"""Per-process match evaluation over an increasing export stream.

:class:`ExportHistory` records the timestamps a process has exported
(strictly increasing, enforced — the paper's model *requires* requests
and exports to form increasing sequences).  :class:`MatchEngine`
evaluates requests against that history under a policy, producing
``MATCH`` / ``NO_MATCH`` / ``PENDING`` responses with the exact
semantics of Section 3.1:

* ``PENDING`` while the stream has not yet reached the request
  timestamp (a better candidate might still be exported);
* definitive once it has (or once the stream is closed).

The history is one sorted (because append-only increasing) list of
Python floats, shared by both match backends: this reference engine
bisects the region edges and scans the candidates between them, while
the default :class:`repro.match.sorted_engine.SortedMatchEngine`
bisects each request once, or sweeps a whole batch over the history's
``float64`` array cache.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from repro.match.policies import MatchPolicy
from repro.match.result import MatchKind, MatchResponse
from repro.util.validation import ValidationError

#: The array cache of a history no sweep has asked for yet.  Shared, so
#: read-only: a :meth:`ExportHistory.view` with a tail to copy grows
#: past it before writing.
_NO_ARRAY = np.empty(0, dtype=np.float64)
_NO_ARRAY.flags.writeable = False


class ExportHistory:
    """Strictly increasing record of one process's export timestamps.

    The record is one append-only list of Python floats, which the
    scalar paths bisect in C (:mod:`bisect`); a ``float64`` array is a
    cache of it for the vectorized sweep, brought up to date by
    :meth:`view`, which copies only the tail appended since its last
    call.  :meth:`replace` loads the array alone and the list is built
    from it the first time a scalar query needs it, so a history that is
    only ever swept never holds its timestamps as Python objects.  One
    history may be shared by several per-connection engines (a region
    exported over several connections has one history and one engine per
    connection).
    """

    _INITIAL_CAPACITY = 16

    def __init__(self) -> None:
        #: The timestamps, or ``None`` after :meth:`replace` until a
        #: scalar query builds them from the array (:meth:`_items`).
        self._ts: list[float] | None = []
        #: The sweep's cache: ``_arr[:_synced]`` equals ``_ts[:_synced]``.
        self._arr = _NO_ARRAY
        self._synced = 0
        #: Newest timestamp, read by every evaluation without a call.
        self._latest = -math.inf
        self._closed = False

    # -- recording -----------------------------------------------------
    def add(self, ts: float) -> None:
        """Record a new export timestamp (must exceed all previous)."""
        if self._closed:
            raise ValidationError("cannot export after the stream is closed")
        value = float(ts)
        if not value > self._latest:
            # Only a first export of -inf gets here legitimately; NaN
            # compares false with everything, so it lands here too and
            # must not enter the sorted list the bisections run on.
            if value != value:
                raise ValidationError(f"export timestamp must not be NaN, got {ts!r}")
            if len(self):
                raise ValidationError(
                    f"export timestamps must increase: {value} after {self._latest}"
                )
        items = self._ts
        if items is None:
            items = self._items()
        items.append(value)
        self._latest = value

    def close(self) -> None:
        """Mark the stream finished (end of program run).

        After closing, every request becomes decidable: no further
        export can appear, so the best candidate is final.
        """
        self._closed = True

    def replace(self, timestamps: Sequence[float], *, closed: bool = False) -> None:
        """Bulk-load the history (model-checker state materialization).

        *timestamps* must already be strictly increasing; they are
        loaded into the array in one shot instead of repeated
        :meth:`add` calls, and the list waits for a scalar query.
        """
        arr = np.asarray(list(timestamps), dtype=np.float64)
        n = int(arr.size)
        latest = float(arr[-1]) if n else -math.inf
        if latest != latest or (n > 1 and not bool(np.all(arr[1:] > arr[:-1]))):
            # NaN compares false with everything, so wherever it sits
            # it has failed one of the two tests above.
            if np.isnan(arr).any():
                raise ValidationError(
                    f"export timestamps must not be NaN, got {arr.tolist()}"
                )
            raise ValidationError("export timestamps must increase")
        self._ts = None
        self._arr = arr
        self._synced = n
        self._latest = latest
        self._closed = closed

    def copy(self) -> ExportHistory:
        """An independent history with the same timestamps and state.

        The copy carries the list and starts without an array cache, so
        neither side's later :meth:`add` or :meth:`view` reaches the
        other.  This is how the model checker clones a region.
        """
        new = object.__new__(ExportHistory)
        new._ts = list(self._items())
        new._arr = _NO_ARRAY
        new._synced = 0
        new._latest = self._latest
        new._closed = self._closed
        return new

    def _items(self) -> list[float]:
        """The live list (built from the array after :meth:`replace`)."""
        items = self._ts
        if items is None:
            items = self._ts = self._arr[: self._synced].tolist()
        return items

    # -- queries ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether the stream has ended."""
        return self._closed

    @property
    def latest(self) -> float:
        """Newest export timestamp (``-inf`` when nothing exported)."""
        return self._latest

    def __len__(self) -> int:
        items = self._ts
        return self._synced if items is None else len(items)

    def view(self) -> np.ndarray:
        """Read-only sorted ``float64`` view of the full history.

        The batched sweep runs ``searchsorted`` directly on this view.
        It aliases the array cache, which this call first extends by the
        timestamps added since the last one; callers must not hold it
        across :meth:`add` calls (growth may reallocate).
        """
        items = self._ts
        n = self._synced
        if items is not None and len(items) != n:
            m = len(items)
            arr = self._arr
            if m > arr.size:
                grown = np.empty(max(2 * m, self._INITIAL_CAPACITY), dtype=np.float64)
                grown[:n] = arr[:n]
                self._arr = arr = grown
            arr[n:m] = items[n:m]
            self._synced = n = m
        v = self._arr[:n]
        v.flags.writeable = False
        return v

    def in_interval(self, low: float, high: float) -> list[float]:
        """Timestamps within the closed interval ``[low, high]``.

        A NaN edge sorts above every timestamp, as in NumPy's
        ``searchsorted``: ``bisect_right`` already places it there, and
        ``bisect_left`` would place it first, so it is not asked.
        """
        items = self._items()
        i = bisect_left(items, low) if low == low else len(items)
        return items[i : bisect_right(items, high)]

    def all_timestamps(self) -> list[float]:
        """Copy of the full history."""
        return list(self._items())


class MatchEngine:
    """Evaluates import requests against one process's export history.

    This is the ``legacy`` :class:`~repro.match.backend.MatchBackend`:
    per-request bisection with a linear best-candidate scan, the
    reference semantics every other backend — the default ``sorted``
    one included — must reproduce bit for bit.  Runtimes obtain engines
    through :func:`repro.match.make_backend`; direct construction keeps
    working for existing callers and tests.

    Also enforces the model's requirement that *request* timestamps
    form a strictly increasing sequence per connection.
    """

    #: Factory name under which :func:`repro.match.make_backend`
    #: serves this engine.
    backend_name = "legacy"

    def __init__(
        self,
        policy: MatchPolicy,
        history: ExportHistory | None = None,
        strict_order: bool = True,
    ) -> None:
        #: The policy in force for this connection.
        self.policy = policy
        #: The export stream evaluated against.  May be *shared*: a
        #: region exported over several connections has one history and
        #: one engine per connection.
        self.history = history if history is not None else ExportHistory()
        #: Under resilient (retransmitting) runtimes, re-asked requests
        #: legitimately arrive at or below the high-water mark; relaxed
        #: mode only advances the mark instead of rejecting them.
        self.strict_order = strict_order
        self._last_request_ts = -math.inf
        #: Outcome counters (every evaluation, including re-evaluations
        #: of outstanding requests), read post-run by ``repro.obs``.
        self.match_count = 0
        self.no_match_count = 0
        self.pending_count = 0

    @property
    def last_request_ts(self) -> float:
        """High-water mark of request timestamps seen so far."""
        return self._last_request_ts

    # -- export side ------------------------------------------------------
    def record_export(self, ts: float) -> None:
        """Record that this process exported a data object at *ts*."""
        self.history.add(ts)

    def close_stream(self) -> None:
        """Mark the export stream finished."""
        self.history.close()

    # -- request side ----------------------------------------------------
    def check_request_order(self, request_ts: float) -> None:
        """Validate and record a new request timestamp.

        In relaxed mode (``strict_order=False``) a timestamp at or
        below the mark is accepted without advancing it — the caller
        has already classified it as a re-ask.  NaN is ordered against
        nothing and is rejected in both modes.
        """
        if request_ts > self._last_request_ts:
            self._last_request_ts = request_ts
        elif request_ts != request_ts:
            raise ValidationError(f"request timestamp must not be NaN, got {request_ts!r}")
        elif self.strict_order:
            raise ValidationError(
                f"request timestamps must increase: {request_ts} after "
                f"{self._last_request_ts}"
            )

    def evaluate(self, request_ts: float, *, record: bool = True) -> MatchResponse:
        """Evaluate *request_ts* against the current history.

        With ``record=True`` (a genuinely new request) the request
        order is checked and remembered; ``record=False`` re-evaluates
        an outstanding request after new exports (the slow-process
        path: a PENDING process re-answers when its stream advances).
        """
        if record:
            self.check_request_order(request_ts)
        decidable = (
            self.policy.decidable(self.history.latest, request_ts)
            or self.history.closed
        )
        if not decidable:
            self.pending_count += 1
            return MatchResponse(
                request_ts=request_ts,
                kind=MatchKind.PENDING,
                latest_export_ts=self.history.latest,
            )
        low, high = self.policy.region(request_ts)
        candidates = self.history.in_interval(low, high)
        best = self.policy.select_best(candidates, request_ts)
        if best is None:
            self.no_match_count += 1
            return MatchResponse(
                request_ts=request_ts,
                kind=MatchKind.NO_MATCH,
                latest_export_ts=self.history.latest,
            )
        self.match_count += 1
        return MatchResponse(
            request_ts=request_ts,
            kind=MatchKind.MATCH,
            matched_ts=best,
            latest_export_ts=self.history.latest,
        )

    def evaluate_batch(
        self, request_ts: Sequence[float], *, record: bool = False
    ) -> Sequence[MatchResponse]:
        """Evaluate a batch of requests in order; one response each.

        Reference implementation: a plain loop over :meth:`evaluate`,
        defining the response sequence (and counter increments) every
        backend's batched path must reproduce exactly.  The default
        ``record=False`` is the sweep-resolution use: re-evaluating a
        sorted set of outstanding requests after the stream advanced.
        """
        return [self.evaluate(ts, record=record) for ts in request_ts]
