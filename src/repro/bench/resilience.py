"""Resilience benchmark: answer fidelity and cost under chaos.

Runs the ``resilience`` scenario of :mod:`repro.scenarios` (the
Figure-3-style E(2) → I(2) coupling on the DES runtime) under a sweep
of control-plane drop rates (plus duplication, jitter and reordering
from one :class:`~repro.faults.plan.FaultPlan` template) and verifies
the subsystem's central claim: **faults never change the answers** —
every run produces the same per-rank ``(request_ts, matched_ts)``
sequence as the fault-free baseline; only timing, skip counts and
retransmission effort differ.

Reported per drop rate: mean answer latency (importer
:class:`~repro.core.importer.ImportRecord` ledger), the slow exporter
rank's ``T_ub`` buffer ledger, retransmission/dedup counters, the
:class:`~repro.faults.network.FaultStats`, and virtual completion
time.  On the command line the same sweep is ``repro run resilience``
with one ``--fault`` plan per drop rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.bench.rows import AnswerLog, fold_run
from repro.faults import FaultPlan
from repro.match.backend import DEFAULT_MATCH_BACKEND
from repro.scenarios import build


@dataclass
class ResilienceRunResult:
    """Outcome of one chaos run at one drop rate."""

    drop: float
    answers: dict[int, AnswerLog]
    mean_answer_latency: float
    t_ub: float
    skip_count: int
    retransmissions: int
    dup_discards: int
    duplicate_requests: int
    fault_stats: dict[str, Any] | None
    sim_time: float

    def answers_match(self, baseline: "ResilienceRunResult") -> bool:
        """Whether this run's answers are identical to *baseline*'s."""
        return self.answers == baseline.answers


@dataclass
class ResilienceSweepResult:
    """A full sweep: the fault-free baseline plus the chaos runs."""

    runs: list[ResilienceRunResult] = field(default_factory=list)

    @property
    def baseline(self) -> ResilienceRunResult:
        """The fault-free run (``drop == 0`` with a no-op plan)."""
        return self.runs[0]

    @property
    def answers_consistent(self) -> bool:
        """Whether every chaos run reproduced the baseline answers."""
        return all(r.answers_match(self.baseline) for r in self.runs[1:])


def run_once(
    plan: FaultPlan | None,
    exports: int = 40,
    requests: int = 15,
    match_backend: str = DEFAULT_MATCH_BACKEND,
) -> ResilienceRunResult:
    """One ``resilience`` run under *plan* (``None`` = fault-free)."""
    result = build("resilience", {"exports": exports, "requests": requests}).run(
        fault_plan=plan, match_backend=match_backend
    )
    fold = fold_run(result)
    return ResilienceRunResult(
        drop=plan.drop if plan is not None else 0.0,
        answers=fold.answers,
        mean_answer_latency=fold.mean_answer_latency,
        t_ub=fold.ledger.t_ub,
        skip_count=fold.decisions.get("skip", 0),
        retransmissions=result.counters["retransmissions"],
        dup_discards=result.counters["dup_discards"],
        duplicate_requests=int(result.metrics.total("rep.duplicate_requests")),
        fault_stats=result.fault_stats,
        sim_time=result.sim_time,
    )


def run_resilience_sweep(
    drop_rates: tuple[float, ...] = (0.0, 0.05, 0.2),
    exports: int = 40,
    requests: int = 15,
    seed: int = 7,
    dup: float = 0.1,
    delay_jitter: float = 5e-5,
    reorder: float = 0.1,
) -> ResilienceSweepResult:
    """Run the scenario at each drop rate; first entry is the baseline.

    A ``drop_rates`` entry of ``0.0`` after the first still runs with
    duplication/jitter/reordering enabled — answer fidelity must hold
    under *any* chaos, not just loss.
    """
    result = ResilienceSweepResult()
    result.runs.append(run_once(None, exports=exports, requests=requests))
    for drop in drop_rates:
        plan = FaultPlan(
            seed=seed, drop=drop, dup=dup, delay_jitter=delay_jitter, reorder=reorder
        )
        result.runs.append(run_once(plan, exports=exports, requests=requests))
    return result
