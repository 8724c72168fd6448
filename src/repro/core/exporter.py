"""Export-side state machine: buffer / skip / send decisions.

One :class:`RegionExportState` lives in every process of an exporting
program, per exported region.  It owns the region's export history and
framework buffer, and one :class:`ConnectionExportState` per connection
the region participates in.  All methods are pure state transitions
returning *outcome* objects; the runtime (:mod:`repro.core.coupler`)
charges virtual time and moves messages.

The decision logic for a new export at timestamp ``ts`` (paper
Section 4.1 and Figures 5/7/8), per connection:

* ``ts`` is a **known match** (learned from buddy-help or from this
  process's own definitive answer) → ``SEND``: buffer it and transfer
  the scheduled pieces.
* ``ts < skip_threshold`` → ``SKIP``: no future request can ever match
  it, so the memcpy is avoided entirely.  The threshold advances on
  three events: a request arrives (everything below the infimum of
  future acceptable regions is dead), the process decides an answer
  itself, or — **buddy-help** — the rep forwards the answer decided by
  a faster peer.
* otherwise → ``BUFFER`` (it may be a candidate now or for a future
  request).  If it falls inside the acceptable region of an open
  request and supersedes the previous best candidate, the previous
  candidate is freed (the Figure-8 buffer-then-replace churn whose
  cost is Eq. 1's ``T_i``).

The region-level decision combines the per-connection votes: ``SEND``
if any connection needs the object, else ``SKIP`` only if *every*
connection allows skipping, else ``BUFFER``.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.core.buffers import BufferEntry, BufferManager
from repro.core.config import ConnectionSpec
from repro.core.exceptions import PropertyViolationError
from repro.match.backend import DEFAULT_MATCH_BACKEND, make_backend
from repro.match.engine import ExportHistory
from repro.match.result import FinalAnswer, MatchKind, MatchResponse
from repro.util.validation import require


class ExportDecision(enum.Enum):
    """What the framework does with one exported data object."""

    BUFFER = "buffer"
    SKIP = "skip"
    SEND = "send"
    NOOP = "noop"  # region has no importer: the zero-overhead path

    def __str__(self) -> str:
        return self.value


@dataclass
class OpenRequest:
    """A request this connection has seen but not yet resolved."""

    ts: float
    window: int
    candidate_ts: float | None = None  # best in-region export so far


@dataclass(frozen=True)
class ApplyOutcome:
    """Effects of learning a final answer (locally or via buddy-help)."""

    answer: FinalAnswer
    #: The matched timestamp is already buffered and should be
    #: transferred now (its pieces go out from the agent).
    send_now: float | None = None
    #: The answer was new knowledge for this process (False when it
    #: merely confirmed what the process had already decided).
    was_news: bool = False


@dataclass(frozen=True)
class RequestOutcome:
    """Effects of a request arriving at this process."""

    response: MatchResponse
    #: The request's window index, or ``-1`` for an idempotently
    #: re-handled retransmission (no new window opened).
    window: int
    #: Local resolution triggered by the request being immediately
    #: decidable (fast process path).
    applied: ApplyOutcome | None = None


class ExportOutcome(NamedTuple):
    """Effects of one export call (built per export: a tuple, not a
    frozen dataclass, whose every field is an ``object.__setattr__``)."""

    decision: ExportDecision
    #: Request window the object was an in-region candidate for.
    window: int | None
    #: Connections for which this object is the match → transfer pieces.
    send_connections: tuple[str, ...]
    #: Buffer entries freed by candidate replacement during this call
    #: (their free cost is charged to the export call, as in Figure 8).
    replaced: tuple[BufferEntry, ...]
    #: Definitive responses that became possible because the stream
    #: advanced (PENDING requests resolving on the slow path).
    new_responses: tuple[tuple[str, MatchResponse], ...]
    #: Matches resolved during this call whose (already buffered) data
    #: must be transferred now: ``(connection_id, matched_ts)``.
    post_sends: tuple[tuple[str, float], ...] = ()
    #: A SKIP that *local* knowledge alone would not have allowed —
    #: some connection's skip threshold passed this timestamp only
    #: because of a buddy-help answer.  The memcpy avoided here is the
    #: paper's buddy-help saving (Figure 7 vs. Figure 8).
    buddy_skip: bool = False
    #: For a buddy skip: ``(connection_id, request_ts)`` of the
    #: *earliest-learned* buddy answer whose threshold raise passed
    #: this timestamp.  The runtime subtracts the answer's arrival
    #: time from the export time to get the buddy-help *lead* — how
    #: far ahead of the local decision the help arrived (Eq. 1-2's
    #: win, surfaced per skipped window by causal tracing).
    buddy_enabler: tuple[str, float] | None = None


class ConnectionExportState:
    """Per-connection knowledge of one exporting process."""

    def __init__(
        self,
        conn: ConnectionSpec,
        history: ExportHistory,
        strict_order: bool = True,
        match_backend: str = DEFAULT_MATCH_BACKEND,
        who: str = "",
    ) -> None:
        self.conn = conn
        self.policy = conn.policy
        #: How a Property-1 error names it: ``"F.p0 on F.d->U.d"``.
        self.where = f"{who} on {conn.connection_id}" if who else conn.connection_id
        self.disjoint = conn.disjoint_regions
        #: Relaxed under resilient runtimes: a retransmitted request may
        #: arrive after a later request already advanced the mark.
        self.strict_order = strict_order
        self.engine = make_backend(
            conn.policy, match_backend, history=history, strict_order=strict_order
        )
        self.open_requests: dict[float, OpenRequest] = {}
        #: request ts -> resolved answer (local decision or buddy-help).
        self.answers: dict[float, FinalAnswer] = {}
        #: Exports strictly below this can never match → skippable.
        self.skip_threshold: float = -math.inf
        #: Counterfactual threshold raised only by *local* knowledge
        #: (requests this process saw, answers it decided itself).  The
        #: gap up to ``skip_threshold`` is what buddy-help bought; see
        #: :meth:`skip_is_buddy`.
        self.local_skip_threshold: float = -math.inf
        #: Matched timestamps not yet exported: export them with SEND.
        self.must_send: set[float] = set()
        #: Count of requests seen (N of Eq. 2); also the window index.
        self.window_count: int = 0
        #: Threshold raises learned from buddy answers, in learn order:
        #: ``(raised_to, request_ts)``.  :meth:`buddy_enabler` walks
        #: this to name the answer that enabled a given buddy skip.
        self._buddy_raises: list[tuple[float, float]] = []
        #: Buddy answers adopted and not yet confirmed by this stream:
        #: ``request_ts -> (start, high, answer)`` (:meth:`check_verdict`).
        self.unconfirmed: dict[float, tuple[float, float, FinalAnswer]] = {}
        #: Their lowest *start*: an export below it weighs nothing.
        self.unconfirmed_low: float = math.inf

    # -- events ---------------------------------------------------------
    def on_request(self, request_ts: float) -> RequestOutcome:
        """A request forwarded by the rep arrives at this process.

        In relaxed mode a request at or below the engine's high-water
        mark is a *re-ask* (retransmission after loss) and is handled
        idempotently — it opens no new window and never double-counts
        in the Eq. (2) ledger.
        """
        if not self.strict_order and request_ts <= self.engine.last_request_ts:
            return self._on_reask(request_ts)
        response = self.engine.evaluate(request_ts, record=True)
        window = self.window_count
        self.window_count += 1
        # Anything below every future acceptable region is dead now.
        self._raise_threshold(self.policy.future_low(request_ts))
        applied = None
        if response.is_definitive:
            answer = _answer_from(response)
            applied = self.apply_answer(answer, source="local")
        else:
            self.open_requests[request_ts] = OpenRequest(ts=request_ts, window=window)
        return RequestOutcome(response=response, window=window, applied=applied)

    def _on_reask(self, request_ts: float) -> RequestOutcome:
        """Handle a retransmitted request idempotently (``window == -1``).

        * Already answered → repeat the recorded answer; if it was a
          MATCH, ask the runtime to (re-)send the buffered data.
        * Still open or never seen (this process may have missed the
          original forward entirely) → re-evaluate without recording;
          adopt it as an open request when undecidable so the normal
          slow-process path resolves it later.
        """
        known = self.answers.get(request_ts)
        if known is not None:
            response = MatchResponse(
                request_ts=request_ts,
                kind=known.kind,
                matched_ts=known.matched_ts,
                latest_export_ts=self.engine.history.latest,
            )
            send_now = known.matched_ts if known.kind is MatchKind.MATCH else None
            applied = ApplyOutcome(answer=known, send_now=send_now, was_news=False)
            return RequestOutcome(response=response, window=-1, applied=applied)
        response = self.engine.evaluate(request_ts, record=False)
        if response.is_definitive:
            applied = self.apply_answer(_answer_from(response), source="local")
            return RequestOutcome(response=response, window=-1, applied=applied)
        if request_ts not in self.open_requests:
            self.open_requests[request_ts] = OpenRequest(
                ts=request_ts, window=self.window_count
            )
        return RequestOutcome(response=response, window=-1, applied=None)

    def apply_answer(self, answer: FinalAnswer, source: str) -> ApplyOutcome:
        """Learn the final answer for a request (local decision or buddy).

        Raises :class:`PropertyViolationError` if it contradicts an
        answer this process already holds, or (a buddy answer) its own
        exports so far (:meth:`check_verdict`) — either would mean the
        program's processes are not collective.
        """
        ts = answer.request_ts
        known = self.answers.get(ts)
        if known is not None:
            if known != answer:
                raise PropertyViolationError(
                    f"connection {self.conn.connection_id}: conflicting answers "
                    f"for request @{ts}: {known} vs {answer} (source={source})"
                )
            return ApplyOutcome(answer=answer, send_now=None, was_news=False)
        self.answers[ts] = answer
        self.open_requests.pop(ts, None)
        low, high = self.policy.region(ts)
        history, m = self.engine.history, answer.matched_ts
        latest = history.latest
        if source == "buddy":
            # Held against the exports so far, then each later one from
            # *start* until the stream passes the region (:meth:`weigh`);
            # no export below a match at or under the request is closer.
            if latest >= low:
                self.check_verdict(answer, history.in_interval(low, high), latest)
            if latest < high:
                start = m if m is not None and m <= ts else low
                self.unconfirmed[ts] = (start, high, answer)
                if start < self.unconfirmed_low:
                    self.unconfirmed_low = start
            if self.disjoint:
                self._buddy_raises.append((high, ts))
        if self.disjoint:
            # Successive acceptable regions do not overlap, so nothing up
            # to this region's high can satisfy any future request; the
            # match itself is protected by ``must_send``/``keep_set``.
            self._raise_threshold(high, local=source == "local")

        send_now: float | None = None
        if m is not None:  # a MATCH
            if latest >= m:
                # Already exported: the object is buffered (the skip
                # threshold can never have passed an eventual match) —
                # transfer it now.
                send_now = m
            else:
                # The buddy-help payoff: the match is known before this
                # process has even generated it.
                self.must_send.add(m)
        return ApplyOutcome(answer=answer, send_now=send_now, was_news=True)

    def check_verdict(self, answer: FinalAnswer, exports: Sequence[float],
                      latest: float) -> None:
        """Property 1 for an adopted buddy answer: one line on every rank
        makes it this process's own, so it must agree with *exports* (in
        its region, not yet weighed) and *latest* (``inf`` once the main
        returned).  MATCH/m is refuted when the stream passed m without
        exporting it or by an export preferred to m, NO_MATCH by any."""
        r, m, history = answer.request_ts, answer.matched_ts, self.engine.history
        verdict = f"{self.where}: the collective verdict"
        if m is None:
            if exports:
                raise PropertyViolationError(
                    f"{verdict} NO_MATCH for request @{r} is not this process's answer: "
                    f"it exported {exports[0]:g}, inside the request's region — "
                    "Property 1 violated"
                )
            return
        if latest > m and m not in exports and not history.in_interval(m, m):
            items = history.all_timestamps()
            i = bisect_left(items, m)
            around = ", ".join(f"{t:g}" for t in items[max(i - 1, 0) : i + 1])
            raise PropertyViolationError(
                f"{verdict} MATCH/{m:g} names a timestamp this process never exported "
                f"(its exports around it: {around}) — Property 1 violated"
            )
        for x in exports:
            if x != m and self.policy.select_best((x, m), r) == x:
                raise PropertyViolationError(
                    f"{verdict} MATCH/{m:g} for request @{r} is not this process's answer: "
                    f"it exported {x:g}, closer to the request — Property 1 violated"
                )

    def weigh(self, ts: float) -> None:
        """Check export *ts* against each unconfirmed answer it reached."""
        pending, low = self.unconfirmed, math.inf
        for r in list(pending):
            start, high, answer = pending[r]
            if ts >= start:
                self.check_verdict(answer, (ts,) if ts <= high else (), ts)
                if ts >= high:
                    del pending[r]
                    continue
            if start < low:
                low = start
        self.unconfirmed_low = low

    def vote_export(self, ts: float) -> tuple[ExportDecision, int | None, float | None]:
        """This connection's vote for a new export at *ts*.

        Returns ``(decision, window, replaced_candidate_ts)``.  The
        caller must already have appended *ts* to the shared history.
        """
        if ts >= self.unconfirmed_low:
            self.weigh(ts)
        if ts in self.must_send:
            self.must_send.discard(ts)
            return (ExportDecision.SEND, None, None)
        # In-region candidate for an open request?  Checked BEFORE the
        # skip threshold: a later request's arrival advances the
        # threshold past the regions of still-unresolved earlier
        # requests (their future_low exceeds the open regions), but
        # those requests' potential matches must of course be kept.
        # (Usually no request is open — they are far rarer than
        # exports — and there is nothing to sort or scan.)
        if self.open_requests:
            for req in sorted(self.open_requests.values(), key=lambda r: r.ts):
                if not self.policy.in_region(ts, req.ts):
                    continue
                if req.candidate_ts is None:
                    req.candidate_ts = ts
                    return (ExportDecision.BUFFER, req.window, None)
                better = self.policy.select_best([req.candidate_ts, ts], req.ts)
                if better != ts:
                    # The existing candidate stays best (can only happen
                    # above the request timestamp, where later exports
                    # are farther away).  Buffer the new object anyway:
                    # it is in-region churn attributable to this window.
                    return (ExportDecision.BUFFER, req.window, None)
                # The new object supersedes the previous candidate.  For
                # an increasing export stream "better now" is "better
                # forever" for the *current* request, but the superseded
                # candidate may only be *freed* when successive
                # acceptable regions are known to be disjoint —
                # otherwise a future request's region could still reach
                # back and match it.
                previous = req.candidate_ts
                req.candidate_ts = ts
                replaced = (
                    previous
                    if self.disjoint and not self._needed_elsewhere(previous, req)
                    else None
                )
                return (ExportDecision.BUFFER, req.window, replaced)
        if ts < self.skip_threshold:
            return (ExportDecision.SKIP, None, None)
        return (ExportDecision.BUFFER, None, None)

    def newly_decidable(self) -> list[tuple[MatchResponse, ApplyOutcome]]:
        """Re-evaluate open requests after the stream advanced.

        Requests that became decidable are resolved locally; the caller
        forwards the definitive responses to the rep.
        """
        out: list[tuple[MatchResponse, ApplyOutcome]] = []
        if not self.open_requests:
            return out
        pending = sorted(self.open_requests)
        # One batched evaluation of the sorted open set; answers are
        # then applied in ascending request order, exactly as the former
        # per-request loop did (evaluation depends only on the history
        # and policy, so evaluate-all-then-apply is decision-identical).
        for response in self.engine.evaluate_batch(pending, record=False):
            if response.is_definitive:
                applied = self.apply_answer(_answer_from(response), source="local")
                out.append((response, applied))
        return out

    def close_stream(self) -> list[tuple[MatchResponse, ApplyOutcome]]:
        """End of the export stream: every open request becomes decidable."""
        self.engine.close_stream()
        return self.newly_decidable()

    def skip_is_buddy(self, ts: float) -> bool:
        """Whether skipping *ts* is attributable to buddy-help.

        True when the actual threshold passed *ts* but the
        local-knowledge counterfactual has not: without the rep's
        disseminated answer this process would have buffered the
        object (and, per Figure 8, freed it unsent later).
        """
        return self.local_skip_threshold <= ts < self.skip_threshold

    def buddy_enabler(self, ts: float) -> float | None:
        """The request whose buddy answer first made *ts* skippable.

        Returns the request timestamp of the earliest-learned buddy
        answer whose threshold raise passed *ts*, or ``None`` when no
        single buddy answer covers it (e.g. the threshold advanced for
        local reasons too).
        """
        for raised_to, request_ts in self._buddy_raises:
            if raised_to > ts:
                return request_ts
        return None

    # -- helpers -----------------------------------------------------------
    def _raise_threshold(self, value: float, *, local: bool = True) -> None:
        if value > self.skip_threshold:
            self.skip_threshold = value
        if local and value > self.local_skip_threshold:
            self.local_skip_threshold = value

    def _needed_elsewhere(self, ts: float, excluding: OpenRequest) -> bool:
        """Whether *ts* is still a candidate for another open request."""
        for req in self.open_requests.values():
            if req is excluding:
                continue
            if self.policy.in_region(ts, req.ts):
                return True
        return ts in self.must_send

    def would_skip(self, ts: float) -> bool:
        """Non-mutating preview of :meth:`vote_export` for *ts*.

        Used by the finite-buffer backpressure path to decide whether
        an upcoming export will need buffer space at all.
        """
        if ts in self.must_send:
            return False
        for req in self.open_requests.values():
            if self.policy.in_region(ts, req.ts):
                return False
        return ts < self.skip_threshold

    def keep_set(self) -> set[float]:
        """Timestamps eviction must never free for this connection."""
        keep = set(self.must_send)
        for answer in self.answers.values():
            if answer.kind is MatchKind.MATCH:
                assert answer.matched_ts is not None
                keep.add(answer.matched_ts)
        for req in self.open_requests.values():
            if req.candidate_ts is not None:
                keep.add(req.candidate_ts)
        return keep


def _answer_from(response: MatchResponse) -> FinalAnswer:
    """Convert a definitive local response into the (identical) answer.

    Sound because of Property 1: every process reaches the same
    decision, so a local definitive response *is* the final answer.
    """
    require(response.is_definitive, "cannot finalize a PENDING response")
    return FinalAnswer(
        request_ts=response.request_ts,
        kind=response.kind,
        matched_ts=response.matched_ts,
    )


class RegionExportState:
    """All export-side state of one process for one exported region."""

    def __init__(
        self,
        region_name: str,
        connections: list[ConnectionSpec],
        capacity_bytes: int | None = None,
        strict_order: bool = True,
        match_backend: str = DEFAULT_MATCH_BACKEND,
        who: str = "",
    ) -> None:
        self.region_name = region_name
        self.history = ExportHistory()
        self.match_backend = match_backend
        self.connections = {
            c.connection_id: ConnectionExportState(
                c,
                self.history,
                strict_order=strict_order,
                match_backend=match_backend,
                who=who,
            )
            for c in connections
        }
        self.buffer = BufferManager(capacity_bytes=capacity_bytes)

    # -- events --------------------------------------------------------------
    @property
    def is_connected(self) -> bool:
        """Whether any importer consumes this region."""
        return bool(self.connections)

    def on_request(self, connection_id: str, request_ts: float) -> RequestOutcome:
        """Dispatch a forwarded request to the right connection.

        Objects already buffered inside the request's acceptable region
        become candidates of this window for the Eq. (1) ledger.
        """
        conn = self.connections[connection_id]
        outcome = conn.on_request(request_ts)
        if outcome.window < 0:
            # Re-ask: no new window to attribute, and the recorded
            # match may have been sent and evicted already — only
            # re-send data that is actually still buffered.
            applied = outcome.applied
            if (
                applied is not None
                and applied.send_now is not None
                and not self.buffer.has(applied.send_now)
            ):
                outcome = RequestOutcome(
                    response=outcome.response,
                    window=outcome.window,
                    applied=ApplyOutcome(
                        answer=applied.answer, send_now=None, was_news=False
                    ),
                )
            return outcome
        low, high = conn.policy.region(request_ts)
        self.buffer.attribute_window(low, high, outcome.window)
        return outcome

    def on_buddy_answer(self, connection_id: str, answer: FinalAnswer) -> ApplyOutcome:
        """Learn a final answer disseminated by the rep (buddy-help)."""
        return self.connections[connection_id].apply_answer(answer, source="buddy")

    def on_export(self, ts: float, nbytes: int, memcpy_cost: float,
                  payload: object | None = None) -> ExportOutcome:
        """Process one export call; see module docstring for the rules.

        *memcpy_cost* is the virtual cost the runtime would charge if
        the object is buffered; it is recorded in the buffer ledger
        only when buffering actually happens.
        """
        if not self.connections:
            # Nobody imports this region: the framework does nothing at
            # all (the paper's low-overhead unconnected-region path).
            self.history.add(ts)
            return ExportOutcome(
                decision=ExportDecision.NOOP,
                window=None,
                send_connections=(),
                replaced=(),
                new_responses=(),
            )
        self.history.add(ts)

        # One pass over the connections' votes: SEND if any connection
        # needs the object, SKIP only if every one allows it.
        send_connections: list[str] = []
        all_skip = True
        window: int | None = None
        replaced_votes: list[float] = []
        for cid, conn in self.connections.items():
            vote, vote_window, replaced_ts = conn.vote_export(ts)
            if vote is ExportDecision.SEND:
                send_connections.append(cid)
                all_skip = False
            elif vote is not ExportDecision.SKIP:
                all_skip = False
            if window is None:
                window = vote_window
            if replaced_ts is not None:
                replaced_votes.append(replaced_ts)
        buddy_skip = False
        buddy_enabler: tuple[str, float] | None = None

        replaced_entries: list[BufferEntry] = []
        if send_connections:
            decision = ExportDecision.SEND
            # Buffered but NOT yet marked sent: the runtime marks it
            # when the pieces actually leave, and until then the
            # connection's answer record keeps the entry alive.
            self.buffer.buffer(ts, nbytes, memcpy_cost, window=window, payload=payload)
        elif all_skip:
            decision = ExportDecision.SKIP
            for cid, conn in self.connections.items():
                if not conn.skip_is_buddy(ts):
                    continue
                buddy_skip = True
                if buddy_enabler is None:
                    enabling_request = conn.buddy_enabler(ts)
                    if enabling_request is not None:
                        buddy_enabler = (cid, enabling_request)
        else:
            decision = ExportDecision.BUFFER
            self.buffer.buffer(ts, nbytes, memcpy_cost, window=window, payload=payload)
        if decision is not ExportDecision.SKIP:
            # Candidate replacement (Figure 8): the superseded object
            # is freed during the same export call, provided no other
            # connection still needs it.
            for replaced_ts in replaced_votes:
                if self.buffer.has(replaced_ts) and not self._needed_by_any(replaced_ts):
                    replaced_entries.append(self.buffer.free(replaced_ts))

        # The stream advanced: PENDING requests may now be decidable.
        new_responses: list[tuple[str, MatchResponse]] = []
        post_sends: list[tuple[str, float]] = []
        for cid, conn in self.connections.items():
            if not conn.open_requests:
                continue  # nothing pending (most exports): no call
            for response, applied in conn.newly_decidable():
                new_responses.append((cid, response))
                if applied.send_now is not None:
                    post_sends.append((cid, applied.send_now))

        return ExportOutcome(
            decision=decision,
            window=window,
            send_connections=tuple(send_connections),
            replaced=tuple(replaced_entries),
            new_responses=tuple(new_responses),
            post_sends=tuple(post_sends),
            buddy_skip=buddy_skip,
            buddy_enabler=buddy_enabler,
        )

    def close(self) -> tuple[list[tuple[str, MatchResponse]], list[tuple[str, float]]]:
        """End of run: close the stream, resolve all open requests.

        Returns ``(responses, post_sends)``: the definitive responses
        to forward to the rep, and matches whose buffered data must
        still be transferred.
        """
        responses: list[tuple[str, MatchResponse]] = []
        post_sends: list[tuple[str, float]] = []
        for cid, conn in self.connections.items():
            for response, applied in conn.close_stream():
                responses.append((cid, response))
                if applied.send_now is not None:
                    post_sends.append((cid, applied.send_now))
        return responses, post_sends

    def would_skip(self, ts: float) -> bool:
        """Whether exporting *ts* now would be a SKIP (no buffer space
        needed).  Non-mutating; unanimous across connections."""
        if not self.connections:
            return True  # NOOP path
        return all(c.would_skip(ts) for c in self.connections.values())

    # -- eviction ---------------------------------------------------------------
    def evict_threshold(self) -> float:
        """Everything strictly below this can be freed (all connections agree)."""
        threshold = math.inf
        for conn in self.connections.values():
            if conn.skip_threshold < threshold:
                threshold = conn.skip_threshold
        return threshold

    def collect_evictions(self) -> list[BufferEntry]:
        """Free every buffered entry no connection can still need.

        Connections protect unsent matches and live candidates; an
        already-*sent* match below the threshold is done with and may
        be freed (paper Figure 5 line 23 frees the transferred D@19.6
        once the next request proves it dead).

        The pool is ordered by timestamp, so when it is empty or its
        oldest entry is not below the eviction line nothing is — the
        usual case, which returns before any keep-set is built.
        """
        oldest = self.buffer.oldest()
        if oldest is None:
            return []
        threshold = self.evict_threshold()
        if oldest >= threshold:
            return []
        keep: set[float] = set()
        for conn in self.connections.values():
            keep |= conn.keep_set()
        keep = {
            ts
            for ts in keep
            if not (self.buffer.has(ts) and self.buffer.get(ts).sent)
        }
        return self.buffer.free_below(threshold, keep=keep)

    def _needed_by_any(self, ts: float) -> bool:
        for conn in self.connections.values():
            if ts in conn.keep_set():
                return True
        return False
