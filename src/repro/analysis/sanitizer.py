"""Online protocol sanitizer (rule namespace ``S3xx``).

The static passes catch what is visible before a run; this pass is a
fold on the event spine (:mod:`repro.core.spine`) of a *running*
simulation — either runtime — and checks the protocol invariants the
paper's correctness argument rests on:

* **S301** — the per-rank responses the exporter rep aggregates must
  form one of the five legal cases (paper §4): all-MATCH (same matched
  timestamp), all-NO_MATCH, all-PENDING, or PENDING mixed with exactly
  one definitive verdict.  A MATCH/NO_MATCH mixture — or MATCHes with
  different matched timestamps — means the program's processes are not
  collective (Property 1 violated), and the sanitizer reports *every*
  rank's response, not just the offending pair.
* **S302** — buddy-help must target genuinely-PENDING ranks: a rep
  that "helps" a process which already answered definitively is wasted
  traffic at best and a protocol bug at worst.
* **S303** — every skipped export must be justified: the skipped
  timestamp must lie strictly below the skip threshold implied by the
  request/answer events this process has observed.  The sanitizer
  mirrors the threshold per (process, connection) using the same two
  advancement rules as the exporter itself — a request arrival raises
  it to ``policy.future_low(t)``, a definitive answer on a
  disjoint-regions connection raises it to ``policy.region(t)[1]`` — so
  a flagged skip is a genuine divergence between the framework's
  decision and the protocol's rules, never a modelling artifact.
* **S304** — repeated final answers for the same request must agree.
  Retransmitted and duplicated control messages are *legal* under the
  resilient protocol (``repro.faults``): the rep state machines
  re-answer idempotently, so the sanitizer tolerates repeats — S301
  mirrors accumulate across retransmissions instead of resetting, and
  an identical repeated answer is never flagged.  What it does flag is
  a repeat that *disagrees* with the recorded answer: that is not
  message chaos but a genuine protocol bug (a corrupted answer cache
  or a Property-1 violation surfacing through retransmission).

Each rule reads spine events: S301 ``response_recv``, S302
``buddy_send``, S303 ``request_recv``/``match``/``buddy_recv``/
``export`` and S304 ``answer_recv``.  ``response_recv`` and
``answer_recv`` are announced before the rep handles the message, so
S301 and S304 report before the rep's own check.

Enable it with ``RunOptions(sanitize=True)`` or by setting
``REPRO_SANITIZE=1`` in the environment.  In strict mode (the default)
an ERROR finding raises :class:`SanitizerError` at the violating event;
otherwise findings accumulate in :attr:`ProtocolSanitizer.report`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.analysis.report import Finding, Report, Severity
from repro.core.config import ConnectionSpec, CouplingConfig
from repro.core.exceptions import FrameworkError
from repro.core.exporter import ExportDecision
from repro.core.properties import format_per_rank
from repro.core.spine import Fold, ProtocolEvent
from repro.match.result import FinalAnswer, MatchKind, MatchResponse


class SanitizerError(FrameworkError):
    """Raised in strict mode when an ERROR-severity invariant trips.

    Carries the findings so callers can render them (text or JSON)
    exactly like the static passes' output.
    """

    def __init__(self, findings: list[Finding]) -> None:
        self.findings = list(findings)
        super().__init__("\n".join(f.render() for f in self.findings))


def _fmt_response(r: MatchResponse) -> str:
    if r.kind is MatchKind.MATCH:
        return f"MATCH@{r.matched_ts:g}"
    return str(r.kind)


@dataclass
class _RequestMirror:
    """The sanitizer's shadow of one open request at the exporter rep."""

    responses: dict[int, MatchResponse] = field(default_factory=dict)
    definitive: set[int] = field(default_factory=set)


class ProtocolSanitizer(Fold):
    """The four online checks of one simulation, as a spine fold.

    Parameters
    ----------
    config:
        The coupling configuration (policies and disjointness per
        connection drive the S303 threshold mirror).
    strict:
        Raise :class:`SanitizerError` on the first ERROR finding
        (default).  Non-strict mode only accumulates the report.
    """

    def __init__(self, config: CouplingConfig, strict: bool = True) -> None:
        self.strict = strict
        self.report = Report()
        self._conns: dict[str | None, ConnectionSpec] = {
            c.connection_id: c for c in config.connections
        }
        #: (exporting program, region) -> connection ids over it.
        self._region_conns: dict[tuple[str | None, str | None], list[str]] = {}
        for c in config.connections:
            key = (c.exporter.program, c.exporter.region)
            self._region_conns.setdefault(key, []).append(c.connection_id)
        #: S301/S302 mirror: (connection_id, request) -> responses.  Never
        #: reset: responses legitimately accumulate across re-asks under
        #: the resilient protocol.
        self._mirrors: dict[tuple[str | None, float | None], _RequestMirror] = {}
        #: S304: (connection_id, request) -> the first final answer.
        self._answers: dict[tuple[str | None, float | None], FinalAnswer] = {}
        #: S303 mirror: (who, connection_id) -> skip threshold.
        self._thresholds: dict[tuple[str, str | None], float] = {}
        #: A process's agent and main thread both raise its thresholds
        #: on the live runtime.
        self._lock = threading.Lock()

    def _emit(self, finding: Finding) -> None:
        self.report.add(finding)
        if self.strict and finding.severity is Severity.ERROR:
            raise SanitizerError([finding])

    # -- S301: the exporter rep gathered a response ----------------------------
    def _response_recv(self, ev: ProtocolEvent) -> None:
        """The responses gathered so far must be a legal case."""
        response: MatchResponse = ev.decision
        assert ev.rank is not None
        mirror = self._mirrors.setdefault((ev.cid, ev.request), _RequestMirror())
        mirror.responses[ev.rank] = response
        if response.is_definitive:
            mirror.definitive.add(ev.rank)
        definitive = [r for r in mirror.responses.values() if r.is_definitive]
        kinds = {r.kind for r in definitive}
        matched = {r.matched_ts for r in definitive if r.kind is MatchKind.MATCH}
        illegal = (
            MatchKind.MATCH in kinds and MatchKind.NO_MATCH in kinds
        ) or len(matched) > 1
        if not illegal:
            return
        per_rank = {
            rank: _fmt_response(r) for rank, r in sorted(mirror.responses.items())
        }
        detail = format_per_rank(
            f"responses for request @{ev.request:g} form an illegal mixture:",
            per_rank,
        )
        self._emit(
            Finding(
                rule="S301",
                severity=Severity.ERROR,
                message=(
                    "illegal aggregate: definitive responses disagree, which no "
                    f"legal case of the collective-match rule allows.\n{detail}"
                ),
                paper="§4 (five legal cases; Property 1)",
                program=self._conns[ev.cid].exporter.program,
                connection=ev.cid,
            )
        )

    # -- S302: the exporter rep sent buddy-help --------------------------------
    def _buddy_send(self, ev: ProtocolEvent) -> None:
        """Buddy-help must reach only still-PENDING ranks."""
        mirror = self._mirrors.get((ev.cid, ev.request))
        if mirror is None or ev.rank is None or ev.rank not in mirror.definitive:
            return
        self._emit(
            Finding(
                rule="S302",
                severity=Severity.ERROR,
                message=(
                    f"buddy-help for request @{ev.request:g} targets rank "
                    f"{ev.rank}, which already answered "
                    f"{_fmt_response(mirror.responses[ev.rank])}; help must "
                    "go only to still-PENDING processes"
                ),
                paper="§4 (buddy-help dissemination)",
                program=self._conns[ev.cid].exporter.program,
                rank=ev.rank,
                connection=ev.cid,
            )
        )

    # -- S304: the importer rep got a final answer -----------------------------
    def _answer_recv(self, ev: ProtocolEvent) -> None:
        """A repeated answer must equal the recorded one.

        Identical repeats (retransmissions, wire duplicates, cache
        re-answers) are legal and pass silently.
        """
        incoming: FinalAnswer = ev.decision
        previous = self._answers.setdefault((ev.cid, ev.request), incoming)
        if previous is incoming or previous == incoming:
            return
        self._emit(
            Finding(
                rule="S304",
                severity=Severity.ERROR,
                message=(
                    f"request @{incoming.request_ts:g} was answered twice with "
                    f"disagreeing verdicts: first "
                    f"{previous.kind}/{previous.matched_ts}, then "
                    f"{incoming.kind}/{incoming.matched_ts} — retransmitted "
                    "answers must be identical (final-answer cache or "
                    "Property 1 is broken)"
                ),
                paper="§3-4 (answer finality under Property 1)",
                program=self._conns[ev.cid].importer.program,
                connection=ev.cid,
            )
        )

    # -- S303: the skip-threshold mirror and the skips it justifies ------------
    def _raise_mirror(self, ev: ProtocolEvent, value: float) -> None:
        key = (ev.who, ev.cid)
        with self._lock:
            if value > self._thresholds.get(key, float("-inf")):
                self._thresholds[key] = value

    def _request_recv(self, ev: ProtocolEvent) -> None:
        assert ev.request is not None
        self._raise_mirror(ev, self._conns[ev.cid].policy.future_low(ev.request))

    def _buddy_recv(self, ev: ProtocolEvent) -> None:
        """A definitive answer: on a disjoint-regions connection nothing
        up to the request's region can match any later request."""
        spec = self._conns[ev.cid]
        if spec.disjoint_regions:
            assert ev.request is not None
            self._raise_mirror(ev, spec.policy.region(ev.request)[1])

    def _match(self, ev: ProtocolEvent) -> None:
        # Only definitive answers advance the threshold.
        if ev.decision.kind is not MatchKind.PENDING:
            self._buddy_recv(ev)

    def _export(self, ev: ProtocolEvent) -> None:
        if ev.decision.decision is not ExportDecision.SKIP:
            return
        assert ev.ts is not None
        thr = {
            cid: self._thresholds.get((ev.who, cid), float("-inf"))
            for cid in self._region_conns.get((ev.program, ev.region), ())
        }
        unjustified = {cid: t for cid, t in thr.items() if not ev.ts < t}
        if not unjustified:
            return
        self._emit(
            Finding(
                rule="S303",
                severity=Severity.ERROR,
                message=(
                    f"export of {ev.region}@{ev.ts:g} was skipped, but the "
                    "observed request/answer stream only justifies skipping "
                    "below "
                    + ", ".join(
                        f"{t:g} on {cid}" for cid, t in sorted(unjustified.items())
                    )
                    + " — a skipped object a future request could still match "
                    "would be silently lost"
                ),
                paper="§4.1 (skip-threshold advancement)",
                program=ev.program,
                rank=ev.rank,
                connection=next(iter(unjustified)),
            )
        )
