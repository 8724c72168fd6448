"""Wire messages of the coupling protocol.

Shared by the two runtimes — the DES coupler
(:mod:`repro.core.coupler`) and the live threaded coupler
(:mod:`repro.core.live`) — so both speak exactly the same protocol:

* importer process → importer rep: :class:`ImpProcRequest`
* importer rep → exporter rep:     :class:`ReqToExpRep`
* exporter rep → exporter process: :class:`FwdRequest`
* exporter process → exporter rep: :class:`ProcResponse`
* exporter rep → exporter process: :class:`BuddyMsg`   (buddy-help)
* exporter rep → importer rep:     :class:`AnswerToImpRep`
* importer rep → importer process: :class:`AnswerToProc`
* exporter process → importer process: :class:`DataPiece`
* runtime → its own service loops:  :class:`Shutdown`  (no wire cost)

Sequence numbers
----------------
Every message carries a ``seq`` field, stamped by the sending runtime
from a per-coupler counter (``-1`` means "not stamped", e.g. in unit
tests that build messages by hand).  Receivers discard a ``seq`` they
have already processed, which makes *wire-level duplication* (a fault,
or a duplicated delivery) harmless.  *Retransmissions* are new sends
and get fresh sequence numbers — they are deduplicated one level up,
by the rep state machines' idempotent request handling (see
``docs/resilience.md``).

``CTL_NBYTES`` models headers plus a few scalar fields — connection
id, timestamp, rank, and the sequence word all fit comfortably, so the
constant is unchanged by the seq field.  Retransmitted and duplicated
control messages are real sends and are charged at full ``CTL_NBYTES``
each, keeping the DES traffic/timing model honest under faults.

Trace contexts
--------------
Every control message also carries an optional ``trace`` field: a
:class:`~repro.obs.trace.TraceContext` (trace id + parent span id)
stamped by the sending runtime when causal tracing is enabled
(``RunOptions(causal_trace=True)``).  ``None`` — the default, and the
only value ever stamped when tracing is off — keeps hand-built test
messages and untraced runs byte-identical to before.  Like the seq
word, the two trace integers ride inside ``CTL_NBYTES``.  Duplicated
deliveries carry the *same* context as the original; retransmissions
get a fresh span id but keep the original trace id, so the causal DAG
of an import survives the fault layer intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.data.region import RectRegion
from repro.match.result import FinalAnswer, MatchResponse
from repro.obs.trace import TraceContext

#: Modelled wire size of a control message (headers + a few scalars,
#: including the sequence number).
CTL_NBYTES = 64


@dataclass(frozen=True)
class ReqToExpRep:
    """Importer rep → exporter rep: a deduplicated request."""

    connection_id: str
    request_ts: float
    seq: int = -1
    trace: TraceContext | None = None


@dataclass(frozen=True)
class FwdRequest:
    """Exporter rep → exporter process: evaluate this request."""

    connection_id: str
    request_ts: float
    seq: int = -1
    trace: TraceContext | None = None


@dataclass(frozen=True)
class ProcResponse:
    """Exporter process → exporter rep: a (possibly updated) response."""

    connection_id: str
    rank: int
    response: MatchResponse
    seq: int = -1
    trace: TraceContext | None = None


@dataclass(frozen=True)
class BuddyMsg:
    """Exporter rep → exporter process: the final answer (buddy-help)."""

    connection_id: str
    answer: FinalAnswer
    seq: int = -1
    trace: TraceContext | None = None


@dataclass(frozen=True)
class AnswerToImpRep:
    """Exporter rep → importer rep: the final answer."""

    connection_id: str
    answer: FinalAnswer
    seq: int = -1
    trace: TraceContext | None = None


@dataclass(frozen=True)
class ImpProcRequest:
    """Importer process → its own rep: this rank wants *request_ts*."""

    connection_id: str
    request_ts: float
    rank: int
    seq: int = -1
    trace: TraceContext | None = None


@dataclass(frozen=True)
class AnswerToProc:
    """Importer rep → importer process: the final answer."""

    connection_id: str
    answer: FinalAnswer
    seq: int = -1
    trace: TraceContext | None = None


@dataclass(frozen=True)
class DataPiece:
    """Exporter process → importer process: one scheduled piece."""

    connection_id: str
    match_ts: float
    src_rank: int
    region: RectRegion
    data: np.ndarray | None
    nbytes: int
    seq: int = -1


def with_seq(msg: Any, seq: int) -> Any:
    """A copy of wire message *msg* stamped with sequence number *seq*.

    Every message here is a plain frozen dataclass without
    ``__post_init__``, so copying the field dict is exactly what
    ``dataclasses.replace(msg, seq=seq)`` builds — without re-running
    ``__init__`` through ``object.__setattr__`` on every send.
    """
    stamped = object.__new__(type(msg))
    fields = stamped.__dict__
    fields.update(msg.__dict__)
    fields["seq"] = seq
    return stamped


@dataclass(frozen=True)
class Shutdown:
    """Runtime-internal: stop a service loop (live runtime only).

    Never crosses the modelled network, so it carries no sequence
    number and no wire cost.
    """
