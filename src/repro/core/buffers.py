"""The per-process framework buffer, with Eq. (1)-(2) accounting.

Every exported data object that *might* still be requested must be kept
in a framework buffer (one memcpy on export, one free on eviction —
paper Section 4.1).  The paper quantifies the waste:

* ``T_i`` (Eq. 1): the buffering time spent, within the acceptable
  region ``R_i`` of request *i*, on objects that were **not** the final
  match — every candidate except the last.
* ``T_ub`` (Eq. 2): ``Σ_i T_i`` over all requests.

:class:`BufferManager` tracks live entries and accrues exactly these
quantities.  It is deliberately policy-free: *when* to buffer, free or
send is decided by :mod:`repro.core.exporter`; the manager only records
what happened and what it cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Container

from repro.core.exceptions import FrameworkError
from repro.util.validation import ValidationError, require, require_non_negative


@dataclass
class BufferEntry:
    """One buffered data object (a timestamped local array copy).

    Attributes
    ----------
    ts:
        Simulation timestamp of the object.
    nbytes:
        Buffered payload size.
    memcpy_cost:
        The (virtual) time the buffering memcpy took.
    window:
        Index of the request window the object was a candidate for at
        buffering time, or ``None`` when it was buffered "blind"
        (no open request covered it).
    sent:
        Whether the object was transferred to an importer.
    payload:
        Optional reference to the actual buffered data (the Figure-4
        micro-benchmark buffers cost-only; coupled runs keep the data).
    """

    ts: float
    nbytes: int
    memcpy_cost: float
    window: int | None = None
    sent: bool = False
    payload: object | None = None


@dataclass(frozen=True)
class BufferStats:
    """Immutable snapshot of a :class:`BufferManager`'s counters."""

    buffered_count: int
    sent_count: int
    freed_unsent_count: int
    live_count: int
    live_bytes: int
    peak_bytes: int
    total_memcpy_time: float
    unnecessary_total_time: float
    unnecessary_in_region_time: float
    t_by_window: dict[int, float]

    @property
    def t_ub(self) -> float:
        """Eq. (2): total in-region unnecessary buffering time."""
        return self.unnecessary_in_region_time


class BufferManager:
    """Timestamped buffer pool for one process's exported region.

    Entries are keyed by timestamp and **buffered in increasing
    timestamp order**: :meth:`buffer` raises ``ValidationError`` for a
    timestamp not above the newest one ever buffered (export timestamps
    strictly increase, :class:`~repro.match.engine.ExportHistory`
    enforces it upstream).  The pool's insertion order is therefore its
    timestamp order, so :meth:`free_below` and :meth:`attribute_window`
    walk from the oldest entry and stop at their bound — eviction costs
    O(freed + protected), not O(live).  An optional *capacity_bytes*
    bound models the finite buffer space the paper's conclusion lists
    as future work; exceeding it raises :class:`FrameworkError`.
    """

    def __init__(self, capacity_bytes: int | None = None) -> None:
        if capacity_bytes is not None:
            require(capacity_bytes > 0, "capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        #: Live entries; insertion order == ascending timestamp.
        self._entries: dict[float, BufferEntry] = {}
        #: Newest timestamp ever buffered (survives freeing).
        self._newest_ts = -math.inf
        self._sent_ts: set[float] = set()
        self._live_bytes = 0
        # -- counters ----------------------------------------------------
        self.buffered_count = 0
        self.sent_count = 0
        self.freed_unsent_count = 0
        self.peak_bytes = 0
        self.total_memcpy_time = 0.0
        self.unnecessary_total_time = 0.0
        self.unnecessary_in_region_time = 0.0
        #: Eq. (1) ledger: window index -> accumulated ``T_i``.
        self.t_by_window: dict[int, float] = {}

    # -- inspection --------------------------------------------------------
    @property
    def live_bytes(self) -> int:
        """Bytes currently buffered."""
        return self._live_bytes

    @property
    def live_count(self) -> int:
        """Number of currently buffered objects."""
        return len(self._entries)

    def timestamps(self) -> list[float]:
        """Buffered timestamps, ascending."""
        return list(self._entries)

    def oldest(self) -> float | None:
        """The lowest buffered timestamp (``None`` when empty)."""
        for ts in self._entries:  # insertion order is timestamp order
            return ts
        return None

    def has(self, ts: float) -> bool:
        """Whether an object with timestamp *ts* is buffered."""
        return ts in self._entries

    def was_sent(self, ts: float) -> bool:
        """Whether *ts* was ever transferred (survives freeing).

        Under retransmission an object can be re-sent by the agent and
        evicted while the export call that created it is still mid
        virtual-time charge; the runtime uses this record to treat the
        stale send as the duplicate it is instead of an error.
        """
        return ts in self._sent_ts

    def get(self, ts: float) -> BufferEntry:
        """The entry for *ts* (KeyError if absent)."""
        return self._entries[ts]

    def stats(self) -> BufferStats:
        """Snapshot of all counters."""
        return BufferStats(
            buffered_count=self.buffered_count,
            sent_count=self.sent_count,
            freed_unsent_count=self.freed_unsent_count,
            live_count=self.live_count,
            live_bytes=self._live_bytes,
            peak_bytes=self.peak_bytes,
            total_memcpy_time=self.total_memcpy_time,
            unnecessary_total_time=self.unnecessary_total_time,
            unnecessary_in_region_time=self.unnecessary_in_region_time,
            t_by_window=dict(self.t_by_window),
        )

    # -- mutation ------------------------------------------------------------
    def buffer(
        self,
        ts: float,
        nbytes: int,
        memcpy_cost: float,
        window: int | None = None,
        payload: object | None = None,
    ) -> BufferEntry:
        """Record that the object at *ts* was copied into the buffer."""
        # The two checks of every buffered export, paid in calls only
        # when a value is not a plain non-negative int / float.
        if type(nbytes) is not int or nbytes < 0:
            require_non_negative(nbytes, "nbytes")
        if type(memcpy_cost) is not float or not memcpy_cost >= 0.0:
            require_non_negative(memcpy_cost, "memcpy_cost")
        if not ts > self._newest_ts:
            if ts in self._entries:
                raise ValidationError(f"timestamp {ts} already buffered")
            raise ValidationError(
                f"timestamp {ts} is not above the newest one ever buffered "
                f"({self._newest_ts}): objects are buffered in increasing order"
            )
        if (
            self.capacity_bytes is not None
            and self._live_bytes + nbytes > self.capacity_bytes
        ):
            raise FrameworkError(
                f"buffer capacity exceeded: {self._live_bytes} + {nbytes} > "
                f"{self.capacity_bytes} bytes "
                "(the finite-buffer scenario of the paper's Section 6)"
            )
        entry = BufferEntry(
            ts=ts, nbytes=nbytes, memcpy_cost=memcpy_cost, window=window, payload=payload
        )
        self._entries[ts] = entry
        self._newest_ts = ts
        self._live_bytes += nbytes
        if self._live_bytes > self.peak_bytes:
            self.peak_bytes = self._live_bytes
        self.buffered_count += 1
        self.total_memcpy_time += memcpy_cost
        return entry

    def attribute_window(self, low: float, high: float, window: int) -> int:
        """Assign *window* to unattributed entries with ts in [low, high].

        Called when a request arrives: objects buffered *before* the
        request (blind) that turn out to lie inside its acceptable
        region become that window's candidates, so Eq. (1) charges
        their eventual waste to ``T_window``.  Returns the number of
        entries attributed.
        """
        count = 0
        for ts, entry in self._entries.items():
            if ts > high:
                break
            if entry.window is None and ts >= low:
                entry.window = window
                count += 1
        return count

    def mark_sent(self, ts: float) -> BufferEntry:
        """Record that the buffered object at *ts* was transferred."""
        entry = self._entries[ts]
        entry.sent = True
        self._sent_ts.add(ts)
        self.sent_count += 1
        return entry

    def record_cost(self, ts: float, memcpy_cost: float) -> BufferEntry:
        """Overwrite the memcpy cost of a live entry.

        Used by the live (wall-clock) runtime, where the copy duration
        is only known *after* the buffering decision: the entry is
        created with a zero placeholder and the measured time recorded
        here, keeping the Eq. (1)-(2) ledgers exact.
        """
        require_non_negative(memcpy_cost, "memcpy_cost")
        entry = self._entries[ts]
        self.total_memcpy_time += memcpy_cost - entry.memcpy_cost
        entry.memcpy_cost = memcpy_cost
        return entry

    def free(self, ts: float) -> BufferEntry:
        """Release the object at *ts*; accrue waste if it was never sent.

        Freeing a never-sent object means its memcpy was unnecessary:
        the cost lands in ``unnecessary_total_time`` and — when it was
        an in-region candidate — in its window's ``T_i`` (Eq. 1).
        """
        entry = self._entries.pop(ts)
        self._live_bytes -= entry.nbytes
        if not entry.sent:
            self.freed_unsent_count += 1
            self.unnecessary_total_time += entry.memcpy_cost
            if entry.window is not None:
                self.unnecessary_in_region_time += entry.memcpy_cost
                self.t_by_window[entry.window] = (
                    self.t_by_window.get(entry.window, 0.0) + entry.memcpy_cost
                )
        return entry

    def free_below(
        self, threshold: float, keep: Container[float] = ()
    ) -> list[BufferEntry]:
        """Release every entry with ``ts < threshold`` not in *keep*.

        Returns the freed entries (ascending).  This is the eviction
        the paper shows as ``remove D@1.6, ..., D@14.6`` when a request
        reveals that old timestamps can never be matched.  The walk
        starts at the oldest entry and stops at the first one not below
        *threshold*.
        """
        require(not math.isnan(threshold), "threshold must be a number")
        doomed = []
        for ts in self._entries:
            if not ts < threshold:
                break
            if ts not in keep:
                doomed.append(ts)
        return [self.free(ts) for ts in doomed]

    def free_all(self) -> list[BufferEntry]:
        """Release everything (program shutdown)."""
        return [self.free(ts) for ts in list(self._entries)]

    def t_ub(self) -> float:
        """Eq. (2): current total of in-region unnecessary buffering time."""
        return self.unnecessary_in_region_time
