"""Sort-based batched match engine (vectorized sweep resolution).

Marzolla & D'Angelo's sort-based Data Distribution Management work
shows interval matching at scale is a sort/sweep problem: with both
sides sorted, every region query is a bisection instead of a scan, and
no per-pair object is ever built.  Here the export history is already
sorted (timestamps strictly increase), so :class:`SortedMatchEngine`
resolves a request — or a whole batch of outstanding ones — like this:

* the PENDING frontier is a *watermark* — requests are sorted and one
  bisection of the newest export against their
  :meth:`~repro.match.policies.MatchPolicy.decision_bound` splits the
  decidable prefix from the still-pending suffix;
* **one bisection, two neighbour tests**: the acceptable region is
  ``[t + dlow, t + dhigh]`` with ``dlow <= 0 <= dhigh`` (the constant
  :attr:`~repro.match.policies.MatchPolicy.interval`), so it always
  contains ``t`` and the best candidate is one of the two exports
  around ``t``.  ``above = searchsorted(hist, t, "right")`` finds both:
  ``hist[above - 1]`` (nearest at-or-below) is acceptable iff it is
  ``>= t + dlow``, ``hist[above]`` (nearest strictly above) iff it is
  ``<= t + dhigh``.  No bisection of the region edges is needed;
* the closer of the two wins, ties to the lower timestamp — exactly the
  reference engine's first-minimal-wins scan.

The scalar :meth:`SortedMatchEngine.evaluate` and the vectorized
:meth:`SortedMatchEngine.sweep` use that same formulation;
:meth:`SortedMatchEngine.evaluate_batch` picks between them from the
batch length and, above the line, answers with a :class:`BatchResponses`
— arrays in, arrays out, :class:`~repro.match.result.MatchResponse`
objects built only for the elements somebody reads.

Decisions are bit-identical to :class:`repro.match.engine.MatchEngine`
(IEEE-754 ``t + (-d) == t - d`` exactly, and ``t - b == abs(b - t)``
for ``b <= t``); the differential and seed-replay golden suites prove
it, including re-asked requests under ``strict_order=False``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import overload

import numpy as np

from repro.match.engine import ExportHistory, MatchEngine
from repro.match.policies import MatchPolicy
from repro.match.result import MatchKind, MatchResponse

_PENDING, _NO_MATCH, _MATCH = 0, 1, 2
#: Outcome code -> kind; the codes are what :attr:`BatchResponses.kinds` holds.
_KINDS = (MatchKind.PENDING, MatchKind.NO_MATCH, MatchKind.MATCH)

#: Largest batch :meth:`SortedMatchEngine.evaluate_batch` answers with a
#: loop over the scalar path; longer ones go through the sweep.  Measured
#: (CPython 3.11, NumPy 2.4, sorted requests, histories of 10^2, 10^4 and
#: 2.5 * 10^5 exports alike): the sweep path costs a fixed ~20 us of NumPy
#: call overhead plus ~0.1 us per request, the scalar loop ~2.4 us per
#: request, so they cross at 8-9 requests (8: 18-19 us against 21; 10:
#: 20-23 against 21).  The exporter's open-request sets sit below the
#: line in every run perf/ measures; only ``match_batch`` is above it.
SCALAR_BATCH_MAX = 8


def _response(
    request_ts: float,
    kind: MatchKind,
    matched_ts: float | None,
    latest: float,
) -> MatchResponse:
    """Build a :class:`MatchResponse` without re-running validation.

    The engine guarantees the dataclass invariants by construction
    (``matched_ts`` is set iff ``kind is MATCH``), so it skips
    ``__init__``/``__post_init__`` — the validating constructor costs
    more than the bisection it would wrap.  The resulting objects are
    indistinguishable from normally constructed ones (same type,
    fields, hash, equality).
    """
    resp = object.__new__(MatchResponse)
    object.__setattr__(resp, "request_ts", request_ts)
    object.__setattr__(resp, "kind", kind)
    object.__setattr__(resp, "matched_ts", matched_ts)
    object.__setattr__(resp, "latest_export_ts", latest)
    return resp


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class BatchResponses(Sequence[MatchResponse]):
    """The responses of one swept batch, held as arrays.

    A read-only sequence in request order: ``len``, integer, negative
    and slice indexing and iteration behave as for the list the
    reference engine returns, and ``==`` compares element-wise with any
    sequence — but a :class:`~repro.match.result.MatchResponse` exists
    only while somebody holds the element they read.  A caller that
    reads every element (the exporter does) pays for every object after
    all; one that can work on the arrays never builds any.
    """

    #: ``float64`` request timestamps, in the order they were asked.
    request_ts: np.ndarray
    #: ``int8`` outcome codes: 0 PENDING / 1 NO_MATCH / 2 MATCH.
    kinds: np.ndarray
    #: ``float64`` matched timestamps, ``nan`` where :attr:`kinds` is not 2.
    matched_ts: np.ndarray
    #: The responder's newest export when the batch was evaluated.
    latest_export_ts: float

    def __post_init__(self) -> None:
        for arr in (self.request_ts, self.kinds, self.matched_ts):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.kinds)

    @overload
    def __getitem__(self, index: int) -> MatchResponse: ...
    @overload
    def __getitem__(self, index: slice) -> BatchResponses: ...
    def __getitem__(self, index: int | slice) -> MatchResponse | BatchResponses:
        if isinstance(index, slice):
            return BatchResponses(
                self.request_ts[index],
                self.kinds[index],
                self.matched_ts[index],
                self.latest_export_ts,
            )
        code = self.kinds.item(index)
        return _response(
            self.request_ts.item(index),
            _KINDS[code],
            self.matched_ts.item(index) if code == _MATCH else None,
            self.latest_export_ts,
        )

    def __iter__(self) -> Iterator[MatchResponse]:
        latest = self.latest_export_ts
        for t, code, m in zip(
            self.request_ts.tolist(), self.kinds.tolist(), self.matched_ts.tolist()
        ):
            yield _response(t, _KINDS[code], m if code == _MATCH else None, latest)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"BatchResponses({list(self)!r})"


class SortedMatchEngine(MatchEngine):
    """One-bisection resolution over the sorted export history.

    Drop-in :class:`~repro.match.backend.MatchBackend` replacement for
    the reference engine: same constructor, same counters, same
    response sequences bit for bit.  The scalar :meth:`evaluate`
    replaces the reference candidate scan with one bisection;
    :meth:`evaluate_batch` resolves a long batch in a handful of
    vectorized NumPy calls and a short one through :meth:`evaluate`.
    """

    backend_name = "sorted"

    def __init__(
        self,
        policy: MatchPolicy,
        history: ExportHistory | None = None,
        strict_order: bool = True,
    ) -> None:
        super().__init__(policy, history=history, strict_order=strict_order)
        # The PENDING watermark below compares the newest export with
        # the request itself: decidable(latest, t) iff latest >=
        # decision_bound(t), and the bound is the identity for all four
        # policy families.
        bound = policy.decision_bound
        assert bound(0.0) == 0.0 and bound(1.0) == 1.0
        self._dlow, self._dhigh = policy.interval

    # -- scalar path ------------------------------------------------------
    def evaluate(self, request_ts: float, *, record: bool = True) -> MatchResponse:
        """Evaluate one request; one bisection, reference-identical.

        The only contenders are the nearest export at-or-below the
        request and the nearest strictly above (see the module
        docstring).  Both tests are written so that a NaN request fails
        them — ``not (b < low)`` would let it through as a MATCH on a
        closed stream, where the reference engine says NO_MATCH.  The
        reference's ascending scan keeps the first minimal-distance
        candidate, i.e. the lower one on ties: the export above wins
        only when strictly closer (``d_below <= d_above`` keeps the
        lower; both distances are exact negations of the reference's
        ``abs(candidate - t)``).
        """
        if record:
            self.check_request_order(request_ts)
        history = self.history
        latest = history.latest
        if not (latest >= request_ts or history.closed):
            self.pending_count += 1
            return _response(request_ts, MatchKind.PENDING, None, latest)
        hist = history.view()
        above = int(hist.searchsorted(request_ts, "right"))
        best: float | None = None
        if above:
            below_ts: float = hist.item(above - 1)
            if below_ts >= request_ts + self._dlow:
                best = below_ts
        if above < len(hist):
            above_ts: float = hist.item(above)
            if above_ts <= request_ts + self._dhigh and (
                best is None or above_ts - request_ts < request_ts - best
            ):
                best = above_ts
        if best is None:
            self.no_match_count += 1
            return _response(request_ts, MatchKind.NO_MATCH, None, latest)
        self.match_count += 1
        return _response(request_ts, MatchKind.MATCH, best, latest)

    # -- batched sweep ----------------------------------------------------
    def sweep(self, request_ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Resolve a *sorted* float64 request array in one sweep.

        Returns ``(kinds, matched)``: an ``int8`` array of outcome
        codes (0 PENDING / 1 NO_MATCH / 2 MATCH) and a ``float64``
        array of matched timestamps (``nan`` where there is none).
        Pure kernel — no counters, no response objects; this is what
        ``match.sweep_kernel_req_per_s`` (``perf/``) times in isolation.
        The same one bisection and two neighbour tests as
        :meth:`evaluate`, over the whole array.
        """
        n = request_ts.size
        kinds = np.zeros(n, dtype=np.int8)
        matched = np.full(n, np.nan)
        history = self.history
        # PENDING frontier as a watermark: the decision bound is
        # monotone in t, so one bisection splits the decidable prefix.
        # NaN requests sort last and stay beyond it.
        split = n if history.closed else int(
            request_ts.searchsorted(history.latest, "right")
        )
        if split == 0:
            return kinds, matched
        hist = history.view()
        if hist.size == 0:
            kinds[:split] = _NO_MATCH
            return kinds, matched
        t = request_ts[:split]
        above = hist.searchsorted(t, "right")
        # A neighbour off either end is clipped onto an export on the
        # wrong side of t and ruled out by the side test; NaN fails
        # every comparison and so matches nothing.
        b = hist.take(above - 1, mode="clip")
        a = hist.take(above, mode="clip")
        below_ok = (b <= t) & (b >= t + self._dlow)
        above_ok = (a > t) & (a <= t + self._dhigh)
        use_b = below_ok & ~(above_ok & (a - t < t - b))
        kinds[:split] = np.where(below_ok | above_ok, _MATCH, _NO_MATCH)
        np.copyto(matched[:split], b, where=use_b)
        np.copyto(matched[:split], a, where=above_ok & ~use_b)
        return kinds, matched

    def evaluate_batch(
        self, request_ts: Sequence[float] | np.ndarray, *, record: bool = False
    ) -> Sequence[MatchResponse]:
        """Batched evaluation, bit-identical to the reference loop.

        Input order is preserved in the output; unsorted input is
        argsorted internally and scattered back (with ``record=False``
        each response depends only on the history and policy, so the
        evaluation order is immaterial); a one-shot iterable is
        materialised first, as the reference loop would consume it.  Up to
        :data:`SCALAR_BATCH_MAX` requests are answered one by one with
        a plain list; above it one :meth:`sweep` answers them all with
        a :class:`BatchResponses`.
        """
        if not hasattr(request_ts, "__len__"):
            request_ts = list(request_ts)
        n = len(request_ts)
        if n <= SCALAR_BATCH_MAX:
            evaluate = self.evaluate
            return [evaluate(float(t), record=record) for t in request_ts]
        requests = np.array(request_ts, dtype=np.float64)
        if record:
            for t in requests.tolist():
                self.check_request_order(t)
        ordered = requests
        order: np.ndarray | None = None
        if not bool(np.all(requests[:-1] <= requests[1:])):
            order = np.argsort(requests, kind="stable")
            ordered = requests[order]
        kinds, matched = self.sweep(ordered)
        if order is not None:
            unsorted_kinds = np.empty(n, dtype=np.int8)
            unsorted_matched = np.empty(n, dtype=np.float64)
            unsorted_kinds[order] = kinds
            unsorted_matched[order] = matched
            kinds, matched = unsorted_kinds, unsorted_matched
        counts = np.bincount(kinds, minlength=3).tolist()
        self.pending_count += counts[_PENDING]
        self.no_match_count += counts[_NO_MATCH]
        self.match_count += counts[_MATCH]
        return BatchResponses(requests, kinds, matched, self.history.latest)
