"""Import-side per-process state.

Importing is much simpler than exporting: a process issues a request
(collectively — every process of the program issues the same sequence),
waits for its rep to deliver the final answer, and on ``MATCH`` waits
for its scheduled data pieces.  The state object tracks ordering and
latency statistics; the blocking itself happens in the runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.match.result import FinalAnswer, MatchKind
from repro.util.validation import ValidationError, require


@dataclass
class ImportRecord:
    """Bookkeeping for one import call of one process."""

    request_ts: float
    issued_at: float
    answered_at: float | None = None
    completed_at: float | None = None
    answer: FinalAnswer | None = None

    @property
    def latency(self) -> float | None:
        """Request-to-completion virtual time, if finished."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at


@dataclass
class RegionImportState:
    """One process's import state for one imported region."""

    region_name: str
    connection_id: str
    records: list[ImportRecord] = field(default_factory=list)
    #: Running tallies of :attr:`records`, kept by :meth:`on_answer` and
    #: :meth:`complete` so a telemetry snapshot never re-scans the list.
    completed: int = 0
    match_count: int = 0
    no_match_count: int = 0
    _last_request_ts: float = -math.inf

    def start_request(self, request_ts: float, now: float) -> ImportRecord:
        """Validate ordering and open a new import record."""
        if not request_ts > self._last_request_ts:
            raise ValidationError(
                f"import requests must have increasing timestamps: "
                f"{request_ts} after {self._last_request_ts}"
            )
        self._last_request_ts = request_ts
        record = ImportRecord(request_ts=request_ts, issued_at=now)
        self.records.append(record)
        return record

    def on_answer(self, record: ImportRecord, answer: FinalAnswer, now: float) -> None:
        """The final answer arrived for *record*."""
        require(record.answer is None, "record already answered")
        if answer.request_ts != record.request_ts:
            raise ValidationError(
                f"answer for @{answer.request_ts} applied to request @{record.request_ts}"
            )
        record.answer = answer
        record.answered_at = now
        if answer.kind is MatchKind.MATCH:
            self.match_count += 1
        elif answer.kind is MatchKind.NO_MATCH:
            self.no_match_count += 1

    def complete(self, record: ImportRecord, now: float) -> None:
        """All data pieces arrived (or NO_MATCH short-circuited)."""
        require(record.answer is not None, "completing an unanswered import")
        if record.completed_at is None:
            self.completed += 1
        record.completed_at = now

    # -- reporting ---------------------------------------------------------
    def mean_latency(self) -> float:
        """Mean completed-import latency (0.0 when none completed)."""
        vals = [r.latency for r in self.records if r.latency is not None]
        return sum(vals) / len(vals) if vals else 0.0
