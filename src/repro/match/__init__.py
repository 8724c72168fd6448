"""Approximate timestamp matching (the paper's temporal model).

Every exported data object carries an increasing simulation timestamp;
an importer requests a timestamp and a per-connection *match policy*
decides which exported timestamp (if any) satisfies the request:

* ``REGL tol`` -- acceptable region ``[t - tol, t]``, best candidate is
  the one closest to ``t`` (defined by the paper, Section 3.1).
* ``REGU tol`` -- acceptable region ``[t, t + tol]`` (named in the
  paper's Figure 2; semantics defined here symmetrically).
* ``REG tol`` -- acceptable region ``[t - tol, t + tol]``, closest
  wins, ties resolve to the lower timestamp.
* ``EXACT`` -- degenerate region ``[t, t]``.

Because exports arrive in increasing timestamp order, a process can
answer a request *definitively* only once its export stream has reached
the request timestamp (or ended); until then the answer is ``PENDING``
(Section 3.1 of the paper).  :func:`aggregate_responses` implements the
representative's five-legal-cases combination rule (Section 4) and
raises :class:`CollectiveViolationError` on the illegal mixtures that
would break Property 1.
"""

from repro.match.result import MatchKind, MatchResponse, FinalAnswer
from repro.match.policies import MatchPolicy, PolicyKind, parse_policy
from repro.match.engine import ExportHistory, MatchEngine
from repro.match.sorted_engine import BatchResponses, SortedMatchEngine
from repro.match.backend import (
    DEFAULT_MATCH_BACKEND,
    MATCH_BACKENDS,
    MatchBackend,
    make_backend,
)
from repro.match.aggregate import CollectiveViolationError, aggregate_responses

__all__ = [
    "MatchKind",
    "MatchResponse",
    "FinalAnswer",
    "MatchPolicy",
    "PolicyKind",
    "parse_policy",
    "ExportHistory",
    "MatchEngine",
    "SortedMatchEngine",
    "BatchResponses",
    "MatchBackend",
    "MATCH_BACKENDS",
    "DEFAULT_MATCH_BACKEND",
    "make_backend",
    "CollectiveViolationError",
    "aggregate_responses",
]
