"""Online protocol sanitizer (rule namespace ``S3xx``).

The static passes catch what is visible before a run; this pass watches
a *running* :class:`~repro.core.coupler.CoupledSimulation` and checks
the protocol invariants the paper's correctness argument rests on:

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
* **S303** — every ``EXPORT_SKIP`` must be justified: the skipped
  timestamp must lie strictly below the skip threshold implied by the
  request/answer events this process has observed.  The sanitizer
  mirrors the threshold per (process, connection) from the trace
  stream using the same two advancement rules as the exporter itself —
  a request arrival raises it to ``policy.future_low(t)``, a
  definitive answer on a disjoint-regions connection raises it to
  ``policy.region(t)[1]`` — so a flagged skip is a genuine divergence
  between the framework's decision and the protocol's rules, never a
  modelling artifact.
* **S304** — repeated final answers for the same request must agree.
  Retransmitted and duplicated control messages are *legal* under the
  resilient protocol (``repro.faults``): the rep state machines
  re-answer idempotently, so the sanitizer tolerates repeats — S301
  mirrors accumulate across retransmissions instead of resetting, and
  an identical repeated answer is never flagged.  What it does flag is
  a repeat that *disagrees* with the recorded answer: that is not
  message chaos but a genuine protocol bug (a corrupted answer cache
  or a Property-1 violation surfacing through retransmission).

Enable it with ``RunOptions(sanitize=True)`` or by setting
``REPRO_SANITIZE=1`` in the environment.  In strict mode (the default)
an ERROR finding raises :class:`SanitizerError` at the violating event;
otherwise findings accumulate in :attr:`ProtocolSanitizer.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.report import Finding, Report, Severity
from repro.core.config import ConnectionSpec, CouplingConfig
from repro.core.exceptions import FrameworkError
from repro.core.properties import format_per_rank
from repro.core.rep import BuddyHelp, Directive, ExporterRep, ImporterRep
from repro.match.result import FinalAnswer, MatchKind, MatchResponse
from repro.util import tracing


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


class ProtocolSanitizer:
    """Shared state of the three online checks for one simulation.

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
        self._conns: dict[str, ConnectionSpec] = {
            c.connection_id: c for c in config.connections
        }
        #: (exporting program, region) -> connection ids over it.
        self._region_conns: dict[tuple[str, str], list[str]] = {}
        for c in config.connections:
            key = (c.exporter.program, c.exporter.region)
            self._region_conns.setdefault(key, []).append(c.connection_id)
        #: S303 mirror: (who, connection_id) -> skip threshold.
        self._thresholds: dict[tuple[str, str], float] = {}

    # -- wiring ------------------------------------------------------------
    def wrap_rep(self, rep: ExporterRep) -> "SanitizedExporterRep":
        """Interpose on one program's exporter rep (S301/S302)."""
        return SanitizedExporterRep(rep, self)

    def wrap_imp_rep(self, rep: ImporterRep) -> "SanitizedImporterRep":
        """Interpose on one program's importer rep (S304)."""
        return SanitizedImporterRep(rep, self)

    def wrap_tracer(self, tracer: tracing.Tracer) -> "SanitizingTracer":
        """Interpose on the trace event stream (S303)."""
        return SanitizingTracer(tracer, self)

    # -- reporting ---------------------------------------------------------
    def _emit(self, finding: Finding) -> None:
        self.report.add(finding)
        if self.strict and finding.severity is Severity.ERROR:
            raise SanitizerError([finding])

    # -- S301 / S302: rep-side checks --------------------------------------
    def check_aggregate(
        self, program: str, connection_id: str, mirror: _RequestMirror, request_ts: float
    ) -> None:
        """S301: the responses gathered so far must be a legal case."""
        definitive = [
            (rank, r) for rank, r in mirror.responses.items() if r.is_definitive
        ]
        kinds = {r.kind for _rank, r in definitive}
        matched = {r.matched_ts for _rank, r in definitive if r.kind is MatchKind.MATCH}
        illegal = (
            MatchKind.MATCH in kinds and MatchKind.NO_MATCH in kinds
        ) or len(matched) > 1
        if not illegal:
            return
        per_rank = {
            rank: _fmt_response(r) for rank, r in sorted(mirror.responses.items())
        }
        detail = format_per_rank(
            f"responses for request @{request_ts:g} form an illegal mixture:",
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
                program=program,
                connection=connection_id,
            )
        )

    def check_buddy_targets(
        self,
        program: str,
        connection_id: str,
        mirror: _RequestMirror,
        request_ts: float,
        directives: list[Directive],
    ) -> None:
        """S302: buddy-help must reach only still-PENDING ranks."""
        for d in directives:
            if isinstance(d, BuddyHelp) and d.rank in mirror.definitive:
                self._emit(
                    Finding(
                        rule="S302",
                        severity=Severity.ERROR,
                        message=(
                            f"buddy-help for request @{request_ts:g} targets rank "
                            f"{d.rank}, which already answered "
                            f"{_fmt_response(mirror.responses[d.rank])}; help must "
                            "go only to still-PENDING processes"
                        ),
                        paper="§4 (buddy-help dissemination)",
                        program=program,
                        rank=d.rank,
                        connection=connection_id,
                    )
                )

    # -- S304: duplicate-answer agreement ----------------------------------
    def check_duplicate_answer(
        self,
        program: str,
        connection_id: str,
        previous: FinalAnswer,
        incoming: FinalAnswer,
    ) -> None:
        """S304: a repeated answer must equal the recorded one.

        Identical repeats (retransmissions, wire duplicates, cache
        re-answers) are legal and pass silently.
        """
        if previous == incoming:
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
                program=program,
                connection=connection_id,
            )
        )

    # -- S303: trace-side skip-justification check -------------------------
    def _raise_mirror(self, who: str, cid: str, value: float) -> None:
        key = (who, cid)
        if value > self._thresholds.get(key, float("-inf")):
            self._thresholds[key] = value

    def observe_event(
        self, kind: str, who: str, timestamp: float | None, detail: dict[str, Any]
    ) -> None:
        """Feed one trace event into the S303 threshold mirror.

        Events lacking the ``cid``/``region`` detail keys are applied
        conservatively (thresholds may under-advance for *other*
        connections, skips without a known region are not checked), so
        the mirror can miss violations but never invent one.
        """
        if kind == tracing.REQUEST_RECV:
            cid = detail.get("cid")
            request = detail.get("request")
            if cid is None or request is None:
                return
            spec = self._conns.get(cid)
            if spec is not None:
                self._raise_mirror(who, cid, spec.policy.future_low(request))
        elif kind in (tracing.REQUEST_REPLY, tracing.BUDDY_RECV):
            cid = detail.get("cid")
            request = detail.get("request")
            answer = detail.get("answer")
            if cid is None or request is None or answer is None:
                return
            if kind == tracing.REQUEST_REPLY and answer == str(MatchKind.PENDING):
                return  # only definitive answers advance the threshold
            spec = self._conns.get(cid)
            if spec is not None and spec.disjoint_regions:
                self._raise_mirror(who, cid, spec.policy.region(request)[1])
        elif kind == tracing.EXPORT_SKIP:
            self._check_skip(who, timestamp, detail)

    def _check_skip(
        self, who: str, timestamp: float | None, detail: dict[str, Any]
    ) -> None:
        region = detail.get("region")
        if timestamp is None or region is None:
            return
        program, _sep, rank_s = who.rpartition(".p")
        if not program or not rank_s.isdigit():
            return
        cids = self._region_conns.get((program, region), [])
        unjustified = [
            cid
            for cid in cids
            if not timestamp < self._thresholds.get((who, cid), float("-inf"))
        ]
        if not unjustified:
            return
        thr = {
            cid: self._thresholds.get((who, cid), float("-inf"))
            for cid in unjustified
        }
        self._emit(
            Finding(
                rule="S303",
                severity=Severity.ERROR,
                message=(
                    f"export of {region}@{timestamp:g} was skipped, but the "
                    "observed request/answer stream only justifies skipping "
                    "below "
                    + ", ".join(f"{t:g} on {cid}" for cid, t in sorted(thr.items()))
                    + " — a skipped object a future request could still match "
                    "would be silently lost"
                ),
                paper="§4.1 (skip-threshold advancement)",
                program=program,
                rank=int(rank_s),
                connection=unjustified[0],
            )
        )


class SanitizedExporterRep:
    """Composition proxy around :class:`ExporterRep` (S301/S302).

    Mirrors the per-request response sets independently of the rep's
    own bookkeeping and checks them *before* delegating, so an illegal
    mixture is reported with full per-rank context instead of the
    rep's first-contradiction exception.  Everything not checked is
    delegated untouched.
    """

    def __init__(self, inner: ExporterRep, sanitizer: ProtocolSanitizer) -> None:
        self._inner = inner
        self._sanitizer = sanitizer
        self._mirrors: dict[tuple[str, float], _RequestMirror] = {}

    def on_request(self, connection_id: str, request_ts: float) -> list[Directive]:
        # setdefault, not assignment: a retransmitted request must not
        # reset the mirror — responses legitimately accumulate across
        # re-asks under the resilient protocol.
        self._mirrors.setdefault((connection_id, request_ts), _RequestMirror())
        return self._inner.on_request(connection_id, request_ts)

    def on_response(
        self, connection_id: str, rank: int, response: MatchResponse
    ) -> list[Directive]:
        mirror = self._mirrors.setdefault(
            (connection_id, response.request_ts), _RequestMirror()
        )
        mirror.responses[rank] = response
        if response.is_definitive:
            mirror.definitive.add(rank)
        self._sanitizer.check_aggregate(
            self._inner.program, connection_id, mirror, response.request_ts
        )
        directives = self._inner.on_response(connection_id, rank, response)
        self._sanitizer.check_buddy_targets(
            self._inner.program, connection_id, mirror, response.request_ts, directives
        )
        return directives

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class SanitizedImporterRep:
    """Composition proxy around :class:`ImporterRep` (S304).

    Records the first final answer per request and checks every later
    one against it *before* delegating, so a disagreeing duplicate is
    reported with both verdicts instead of the rep's bare exception.
    """

    def __init__(self, inner: ImporterRep, sanitizer: ProtocolSanitizer) -> None:
        self._inner = inner
        self._sanitizer = sanitizer
        self._answers: dict[tuple[str, float], FinalAnswer] = {}

    def on_process_request(
        self, connection_id: str, request_ts: float, rank: int
    ) -> list[Directive]:
        return self._inner.on_process_request(connection_id, request_ts, rank)

    def on_answer(self, connection_id: str, answer: FinalAnswer) -> list[Directive]:
        key = (connection_id, answer.request_ts)
        known = self._answers.get(key)
        if known is None:
            self._answers[key] = answer
        else:
            self._sanitizer.check_duplicate_answer(
                self._inner.program, connection_id, known, answer
            )
        return self._inner.on_answer(connection_id, answer)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class SanitizingTracer:
    """Trace-stream interposer feeding the S303 mirror.

    Always reports ``enabled`` so the runtime emits every event (the
    mirror needs the full stream even when the user asked for no
    trace); events are forwarded to the wrapped tracer only if that
    tracer records.
    """

    def __init__(self, inner: tracing.Tracer, sanitizer: ProtocolSanitizer) -> None:
        self._inner = inner
        self._sanitizer = sanitizer

    @property
    def enabled(self) -> bool:
        return True

    @property
    def events(self) -> list[tracing.TraceEvent]:
        return self._inner.events

    def record(
        self,
        kind: str,
        who: str,
        time: float,
        timestamp: float | None = None,
        **detail: Any,
    ) -> None:
        self._sanitizer.observe_event(kind, who, timestamp, detail)
        if self._inner.enabled:
            self._inner.record(kind, who, time, timestamp=timestamp, **detail)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)
