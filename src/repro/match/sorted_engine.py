"""Sort-based batched match engine (vectorized sweep resolution).

Marzolla & D'Angelo's sort-based Data Distribution Management work
shows interval matching at scale is a sort/sweep problem: with both
sides sorted, every region query is a pair of bisections instead of a
scan.  Here the export history is already sorted (timestamps strictly
increase), so :class:`SortedMatchEngine` resolves whole batches of
outstanding requests per sweep:

* the PENDING frontier is a *watermark* — requests are sorted and one
  bisection of the newest export against their
  :meth:`~repro.match.policies.MatchPolicy.decision_bound` splits the
  decidable prefix from the still-pending suffix;
* acceptable regions come from the constant policy offsets
  (:attr:`~repro.match.policies.MatchPolicy.interval`), so candidate
  ranges for the whole batch are two vectorized ``searchsorted`` calls;
* the best candidate per request is the closer of the nearest export
  at-or-below and the nearest strictly-above, ties to the lower
  timestamp — exactly the legacy engine's first-minimal-wins scan.

Decisions are bit-identical to :class:`repro.match.engine.MatchEngine`
(IEEE-754 ``t + (-d) == t - d`` exactly, and distances are computed
with the same ``abs(candidate - t)`` expressions); the differential
and seed-replay golden suites prove it, including re-asked requests
under ``strict_order=False``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.match.engine import MatchEngine
from repro.match.result import MatchKind, MatchResponse

_PENDING, _NO_MATCH, _MATCH = 0, 1, 2


def _response(
    request_ts: float,
    kind: MatchKind,
    matched_ts: float | None,
    latest: float,
) -> MatchResponse:
    """Build a :class:`MatchResponse` without re-running validation.

    The sweep kernel guarantees the dataclass invariants by
    construction (``matched_ts`` is set iff ``kind is MATCH``), so the
    batch path skips ``__init__``/``__post_init__`` — at 10^6
    responses per sweep the constructor is the bottleneck, not the
    kernel.  The resulting objects are indistinguishable from normally
    constructed ones (same type, fields, hash, equality).
    """
    resp = object.__new__(MatchResponse)
    object.__setattr__(resp, "request_ts", request_ts)
    object.__setattr__(resp, "kind", kind)
    object.__setattr__(resp, "matched_ts", matched_ts)
    object.__setattr__(resp, "latest_export_ts", latest)
    return resp


class SortedMatchEngine(MatchEngine):
    """Batched sweep resolution over the sorted export history.

    Drop-in :class:`~repro.match.backend.MatchBackend` replacement for
    the legacy engine: same constructor, same counters, same response
    sequences bit for bit.  The scalar :meth:`evaluate` replaces the
    legacy candidate scan with bisections; :meth:`evaluate_batch`
    resolves the whole batch in a handful of vectorized NumPy calls.
    """

    backend_name = "sorted"

    # -- scalar path ------------------------------------------------------
    def evaluate(self, request_ts: float, *, record: bool = True) -> MatchResponse:
        """Evaluate one request; bisection-based, legacy-identical."""
        if record:
            self.check_request_order(request_ts)
        latest = self.history.latest
        decidable = (
            self.policy.decidable(latest, request_ts) or self.history.closed
        )
        if not decidable:
            self.pending_count += 1
            return MatchResponse(
                request_ts=request_ts,
                kind=MatchKind.PENDING,
                latest_export_ts=latest,
            )
        best = self._best_candidate(request_ts)
        if best is None:
            self.no_match_count += 1
            return MatchResponse(
                request_ts=request_ts,
                kind=MatchKind.NO_MATCH,
                latest_export_ts=latest,
            )
        self.match_count += 1
        return MatchResponse(
            request_ts=request_ts,
            kind=MatchKind.MATCH,
            matched_ts=best,
            latest_export_ts=latest,
        )

    def _best_candidate(self, t: float) -> float | None:
        """Best acceptable export for *t* via three bisections.

        The history is sorted, so the only contenders are the nearest
        export at-or-below ``t`` and the nearest strictly above; the
        legacy ascending scan keeps the first minimal-distance
        candidate, i.e. the below one on ties — reproduced here by
        ``d_below <= d_above``.
        """
        hist = self.history.view()
        if hist.size == 0:
            return None
        dlow, dhigh = self.policy.interval
        lo = int(np.searchsorted(hist, t + dlow, side="left"))
        hi = int(np.searchsorted(hist, t + dhigh, side="right"))
        k = int(np.searchsorted(hist, t, side="right")) - 1
        below_ok = k >= lo
        above = k + 1
        above_ok = above < hi
        if below_ok and above_ok:
            b, a = float(hist[k]), float(hist[above])
            return b if abs(b - t) <= abs(a - t) else a
        if below_ok:
            return float(hist[k])
        if above_ok:
            return float(hist[above])
        return None

    # -- batched sweep ----------------------------------------------------
    def sweep(self, request_ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Resolve a *sorted* float64 request array in one sweep.

        Returns ``(kinds, matched)``: an ``int8`` array of outcome
        codes (0 PENDING / 1 NO_MATCH / 2 MATCH) and a ``float64``
        array of matched timestamps (``nan`` where there is none).
        Pure kernel — no counters, no response objects; this is what
        ``match.sweep_kernel_req_per_s`` (``perf/``) times in isolation.
        """
        n = request_ts.size
        kinds = np.zeros(n, dtype=np.int8)
        matched = np.full(n, np.nan)
        if n == 0:
            return kinds, matched
        hist = self.history.view()
        if self.history.closed:
            split = n
        else:
            # PENDING frontier as a watermark: decidable(latest, t)
            # holds iff latest >= decision_bound(t), and the bound is
            # monotone in t (identity, for all four families), so one
            # bisection splits the decidable prefix.
            bound = self.policy.decision_bound
            assert bound(0.0) == 0.0 and bound(1.0) == 1.0
            split = int(np.searchsorted(request_ts, self.history.latest, side="right"))
        if split == 0:
            return kinds, matched
        decid = request_ts[:split]
        if hist.size == 0:
            kinds[:split] = _NO_MATCH
            return kinds, matched
        dlow, dhigh = self.policy.interval
        lo = np.searchsorted(hist, decid + dlow, side="left")
        hi = np.searchsorted(hist, decid + dhigh, side="right")
        k = np.searchsorted(hist, decid, side="right") - 1
        below_ok = k >= lo
        above = k + 1
        above_ok = above < hi
        b = hist[np.clip(k, 0, hist.size - 1)]
        a = hist[np.clip(above, 0, hist.size - 1)]
        db = np.abs(b - decid)
        da = np.abs(a - decid)
        use_b = below_ok & (~above_ok | (db <= da))
        has = below_ok | above_ok
        kinds[:split] = np.where(has, _MATCH, _NO_MATCH)
        matched[:split] = np.where(has, np.where(use_b, b, a), np.nan)
        return kinds, matched

    def evaluate_batch(
        self, request_ts: Sequence[float], *, record: bool = False
    ) -> list[MatchResponse]:
        """Batched evaluation, bit-identical to the legacy loop.

        Input order is preserved in the output; unsorted input is
        argsorted internally and scattered back (with ``record=False``
        each response depends only on the history and policy, so the
        evaluation order is immaterial).
        """
        ts_list = [float(t) for t in request_ts]
        if record:
            for t in ts_list:
                self.check_request_order(t)
        n = len(ts_list)
        if n == 0:
            return []
        arr = np.asarray(ts_list, dtype=np.float64)
        order: np.ndarray | None = None
        if n > 1 and not bool(np.all(arr[:-1] <= arr[1:])):
            order = np.argsort(arr, kind="stable")
            arr = arr[order]
        kinds, matched = self.sweep(arr)
        if order is not None:
            unsorted_kinds = np.empty(n, dtype=np.int8)
            unsorted_matched = np.empty(n, dtype=np.float64)
            unsorted_kinds[order] = kinds
            unsorted_matched[order] = matched
            kinds, matched = unsorted_kinds, unsorted_matched
        counts = np.bincount(kinds, minlength=3)
        self.pending_count += int(counts[_PENDING])
        self.no_match_count += int(counts[_NO_MATCH])
        self.match_count += int(counts[_MATCH])
        latest = self.history.latest
        out: list[MatchResponse] = []
        append = out.append
        for t, kind, m in zip(ts_list, kinds.tolist(), matched.tolist()):
            if kind == _MATCH:
                append(_response(t, MatchKind.MATCH, m, latest))
            elif kind == _NO_MATCH:
                append(_response(t, MatchKind.NO_MATCH, None, latest))
            else:
                append(_response(t, MatchKind.PENDING, None, latest))
        return out
