"""One run of an experiment, as the one row every consumer reads.

Every registered scenario (:mod:`repro.scenarios`) has one shape: the
first program exports over the first connection and its last rank is
the slow ``p_s``; the second program imports.  :func:`fold_run` reads
that shape off the run's configuration — no program or region name is
hard-coded — and :func:`run_row` merges the fold with the run's report
(:func:`~repro.obs.export.report_run`).  That row is what ``repro run
--json`` prints per cell and what the Figure-3, Figure-4, Eq.-2 and
resilience benchmarks, the seed-replay goldens and ``repro
experiments`` read; :func:`repro.bench.figure4.figure4_rows` is a list
of them, and the Figure 5/7/8 traces are ``p_s.trace`` of ``fig5`` /
``fig7`` rows run with ``trace=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.buffers import BufferStats
from repro.core.config import CouplingConfig, Endpoint, parse_config
from repro.core.exporter import ExportDecision
from repro.obs.export import report_run
from repro.scenarios import ScenarioBuild
from repro.util.tracing import Tracer, format_trace

#: One importer rank's answers: ``(request_ts, matched_ts-or-None)``.
AnswerLog = list[tuple[float, float | None]]


def skip_fraction(decisions: dict[str, int]) -> float:
    """Fraction of exports whose memcpy was skipped."""
    total = sum(decisions.values())
    return decisions.get("skip", 0) / total if total else 0.0


def memcpy_count(decisions: dict[str, int]) -> int:
    """Number of exports whose memcpy was paid (buffered or sent)."""
    return decisions.get("buffer", 0) + decisions.get("send", 0)


def buffered_fraction(decisions: dict[str, int]) -> float:
    """Fraction of exports that were buffered (memcpy paid)."""
    total = sum(decisions.values())
    return memcpy_count(decisions) / total if total else 0.0


def optimal_iteration_of(records: list, cutoff_ts: float | None = None) -> int | None:
    """First iteration after which no export is needlessly buffered.

    In the optimal state only matched data objects are copied
    (decision ``send``); everything else is skipped.  Returns the index
    (0-based) of the first export of that steady tail, or ``None`` if
    it is never reached.

    *cutoff_ts* bounds the scan: exports after the last request's
    timestamp can never be skipped (no future answer exists to rule
    them out), so they are excluded — otherwise every finite run would
    trivially end non-optimal.
    """
    considered = [
        (i, rec)
        for i, rec in enumerate(records)
        if cutoff_ts is None or rec.ts <= cutoff_ts
    ]
    if not considered:
        return None
    last_buffer = None
    for i, rec in considered:
        if rec.decision is ExportDecision.BUFFER:
            last_buffer = i
    if last_buffer is None:
        return 0
    if last_buffer >= considered[-1][0]:
        return None
    return last_buffer + 1


@dataclass
class RunFold:
    """``p_s``'s export path and the importer's answers of one run."""

    #: Per-export cost of ``p_s``, in export order.
    series: list[float]
    decisions: dict[str, int]
    #: ``p_s``'s Eq. 1–2 buffer ledger.
    ledger: BufferStats
    #: :func:`optimal_iteration_of` up to the last request's timestamp.
    optimal_iteration: int | None
    #: Importer rank → its answers, in request order.
    answers: dict[int, AnswerLog]
    #: Mean request-to-completion time of the completed imports, all
    #: ranks (0 when none completed).
    mean_answer_latency: float

    @property
    def export_time(self) -> float:
        """``p_s``'s total export time."""
        return sum(self.series)

    def row(self) -> dict[str, Any]:
        """The fold as plain JSON: what extends a ``repro run`` row."""
        return {
            "p_s": {
                "series": self.series,
                "decisions": self.decisions,
                "skip_fraction": skip_fraction(self.decisions),
                "buffered_fraction": buffered_fraction(self.decisions),
                "t_ub": self.ledger.t_ub,
                "unnecessary_total": self.ledger.unnecessary_total_time,
                "export_time": self.export_time,
                "optimal_iteration": self.optimal_iteration,
            },
            "answers": {str(rank): log for rank, log in self.answers.items()},
            "mean_answer_latency": self.mean_answer_latency,
        }


def p_s_of(config: CouplingConfig) -> tuple[Endpoint, int]:
    """``p_s``: the first connection's exported region and its last rank."""
    exp = config.connections[0].exporter
    return exp, config.programs[exp.program].nprocs - 1


def fold_run(result: Any) -> RunFold:
    """Fold a :class:`~repro.RunResult` of the scenario shape."""
    config = result.simulation.config
    exp, slow_rank = p_s_of(config)
    imp = config.connections[0].importer
    stats = result.context(exp.program, slow_rank).stats
    records = {
        rank: result.context(imp.program, rank).import_states[imp.region].records
        for rank in range(config.programs[imp.program].nprocs)
    }
    requests = [r.request_ts for recs in records.values() for r in recs]
    latencies = [r.latency for recs in records.values() for r in recs if r.latency is not None]
    return RunFold(
        series=[r.cost for r in stats.export_records],
        decisions=stats.decisions(),
        ledger=result.buffer_stats(exp.program, slow_rank, exp.region),
        optimal_iteration=optimal_iteration_of(
            stats.export_records, cutoff_ts=max(requests, default=None)
        ),
        answers={
            rank: [(r.request_ts, r.answer.matched_ts if r.answer else None) for r in recs]
            for rank, recs in records.items()
        },
        mean_answer_latency=sum(latencies) / len(latencies) if latencies else 0.0,
    )


def run_row(
    name: str,
    build: ScenarioBuild,
    trace: bool = False,
    keep: Callable[[Any], None] | None = None,
    **overrides: Any,
) -> dict[str, Any]:
    """Run *build* (*overrides* replaced into its options) and return its
    ``repro run`` row: :func:`report_run` merged with the fold.

    ``trace=True`` records ``p_s``'s events and adds them to the row as
    ``p_s.trace``: numbered lines in the paper's Figure-5/7/8 notation.
    *keep*, when given, also receives the :class:`~repro.RunResult`.
    """
    if trace:
        exp, slow_rank = p_s_of(parse_config(build.config))
        who = f"{exp.program}.p{slow_rank}"
        if overrides.get("tracer") is None:
            overrides["tracer"] = Tracer(lambda e: e.who == who)
    result = build.run(**overrides)
    if keep is not None:
        keep(result)
    row = {**report_run(name, result), **fold_run(result).row()}
    if trace:
        events = [e for e in result.tracer.events if e.who == who]
        row["p_s"]["trace"] = format_trace(events).splitlines()
    return row
