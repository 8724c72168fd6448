"""Pluggable match-backend selection.

The match layer ships two interchangeable engines behind one protocol:

* ``sorted`` — :class:`repro.match.sorted_engine.SortedMatchEngine`,
  one bisection per request and a vectorized sweep for long batches;
  the production default (:data:`DEFAULT_MATCH_BACKEND`), faster than
  the reference at every batch size;
* ``legacy`` — :class:`repro.match.engine.MatchEngine`, per-request
  bisection with a linear best-candidate scan: the reference semantics
  the goldens, the differential suite and cross-backend ``repro
  replay``/``repro verify`` check the default against.

Runtimes obtain engines only through :func:`make_backend`; direct
``MatchEngine(...)`` construction keeps working for existing callers
and tests, but the factory is the seam where
``RunOptions.match_backend`` plugs in (and where future backends —
e.g. a parallel-across-connections sweep — register).
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from repro.match.engine import ExportHistory, MatchEngine
from repro.match.policies import MatchPolicy
from repro.match.result import MatchResponse
from repro.match.sorted_engine import SortedMatchEngine

#: Valid ``RunOptions.match_backend`` / :func:`make_backend` names.
MATCH_BACKENDS = ("legacy", "sorted")

#: The engine every default in the package resolves to
#: (``RunOptions``, ``ModelConfig``, ``Figure4Spec``, the exporter
#: states, the CLI flags and :func:`make_backend` itself).
DEFAULT_MATCH_BACKEND = "sorted"


@runtime_checkable
class MatchBackend(Protocol):
    """What the runtimes require of a match engine.

    Both shipped engines satisfy this structurally; the protocol exists
    so alternative backends can be written without inheriting from
    :class:`~repro.match.engine.MatchEngine` (only the *semantics* —
    bit-identical decisions — are mandatory, proven by the
    differential suite).
    """

    policy: MatchPolicy
    history: ExportHistory
    strict_order: bool
    match_count: int
    no_match_count: int
    pending_count: int
    backend_name: str

    @property
    def last_request_ts(self) -> float:
        """High-water mark of request timestamps seen so far."""
        ...

    def record_export(self, ts: float) -> None:
        """Record that this process exported a data object at *ts*."""
        ...

    def close_stream(self) -> None:
        """Mark the export stream finished."""
        ...

    def check_request_order(self, request_ts: float) -> None:
        """Validate and record a new request timestamp."""
        ...

    def evaluate(self, request_ts: float, *, record: bool = True) -> MatchResponse:
        """Evaluate one request against the current history."""
        ...

    def evaluate_batch(
        self, request_ts: Sequence[float], *, record: bool = False
    ) -> Sequence[MatchResponse]:
        """Evaluate a batch of requests in order; one response each.

        The result is read-only to the caller: a list from the
        reference engine, a
        :class:`~repro.match.sorted_engine.BatchResponses` from a sweep.
        """
        ...


def make_backend(
    policy: MatchPolicy,
    name: str = DEFAULT_MATCH_BACKEND,
    *,
    history: ExportHistory | None = None,
    strict_order: bool = True,
) -> MatchBackend:
    """Construct the match engine named *name*.

    Raises :class:`ValueError` for unknown names.  (The match layer
    sits below ``repro.core``, so the framework-flavored eager
    validation — ``ConfigError`` from ``RunOptions.__post_init__`` —
    lives in the api layer; by the time a runtime calls this factory
    the name has already been validated.)
    """
    if name == "legacy":
        return MatchEngine(policy, history=history, strict_order=strict_order)
    if name == "sorted":
        return SortedMatchEngine(policy, history=history, strict_order=strict_order)
    raise ValueError(
        f"unknown match backend {name!r}; expected one of {list(MATCH_BACKENDS)}"
    )
