"""Resilience benchmark: answer fidelity and cost under chaos.

Runs the Figure-3-style E(2) → I(2) coupling on the DES runtime under
a sweep of control-plane drop rates (plus duplication, jitter and
reordering from one :class:`~repro.faults.plan.FaultPlan` template)
and verifies the subsystem's central claim: **faults never change the
answers** — every run produces the same per-rank ``(request_ts,
matched_ts)`` sequence as the fault-free baseline; only timing, skip
counts and retransmission effort differ.

Reported per drop rate: mean answer latency (importer
:class:`~repro.core.importer.ImportRecord` ledger), the slow exporter
rank's ``T_ub`` buffer ledger, retransmission/dedup counters, the
:class:`~repro.faults.network.FaultStats`, and virtual completion
time.  ``repro chaos`` is the CLI front-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

from repro.api.options import RunOptions
from repro.core.coupler import CoupledSimulation, ProcessContext, RegionDef
from repro.costs import ClusterPreset
from repro.costs.models import ComputeCostModel, MemoryCostModel, NetworkCostModel
from repro.data.decomposition import BlockDecomposition
from repro.faults import FaultPlan
from repro.match.backend import DEFAULT_MATCH_BACKEND

#: One importer rank's answers: ``(request_ts, matched_ts-or-None)``.
AnswerLog = list[tuple[float, float | None]]


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


def _preset() -> ClusterPreset:
    return ClusterPreset(
        name="resilience",
        memory=MemoryCostModel(
            setup_time=1e-5, bandwidth=1e9, free_time=1e-6,
            init_factor=1.0, init_until=0.0, contention_per_peer=0.0,
        ),
        network=NetworkCostModel(latency=1e-5, bandwidth=1e9, congestion_per_flow=0.0),
        compute=ComputeCostModel(time_per_element=1e-8, fixed_overhead=1e-6, jitter=0.0),
    )


def run_once(
    plan: FaultPlan | None,
    exports: int = 40,
    requests: int = 15,
    request_period: float = 2.0,
    match_backend: str = DEFAULT_MATCH_BACKEND,
) -> ResilienceRunResult:
    """One E(2) → I(2) run under *plan* (``None`` = fault-free)."""
    shape = (64, 64)
    config = (
        "E c0 /bin/E 2\n"
        "I c1 /bin/I 2\n"
        "#\n"
        "E.d I.d REGL 2.5\n"
    )
    answers: dict[int, AnswerLog] = {}

    def e_main(ctx: ProcessContext) -> Generator[Any, Any, None]:
        # Rank 1 is p_s: twice the per-iteration work, so the run has
        # PENDING windows for buddy-help (and for BuddyMsg loss) to act on.
        scale = 2.0 if ctx.rank == 1 else 1.0
        for k in range(exports):
            yield from ctx.export("d", 1.6 + k)
            yield from ctx.compute(2e-3 * scale)

    def i_main(ctx: ProcessContext) -> Generator[Any, Any, None]:
        got: AnswerLog = []
        for j in range(1, requests + 1):
            yield from ctx.compute(5e-4)
            ts = request_period * j
            m, _block = yield from ctx.import_("d", ts)
            got.append((ts, m))
        answers[ctx.rank] = got

    cs = CoupledSimulation(
        config,
        options=RunOptions(
            preset=_preset(),
            seed=0,
            fault_plan=plan,
            match_backend=match_backend,
        ),
    )
    cs.add_program(
        "E", main=e_main, regions={"d": RegionDef(BlockDecomposition(shape, (2, 1)))}
    )
    cs.add_program(
        "I", main=i_main, regions={"d": RegionDef(BlockDecomposition(shape, (1, 2)))}
    )
    cs.run()

    latencies = [
        r.latency
        for rank in answers
        for r in cs.context("I", rank).import_states["d"].records
        if r.latency is not None
    ]
    exp_ctx = cs.context("E", 1)
    stats = getattr(cs.world.network, "stats", None)
    exp_rep = cs._programs["E"].exp_rep
    return ResilienceRunResult(
        drop=plan.drop if plan is not None else 0.0,
        answers=answers,
        mean_answer_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        t_ub=cs.buffer_stats("E", 1, "d").t_ub,
        skip_count=exp_ctx.stats.decisions().get("skip", 0),
        retransmissions=cs.retransmissions,
        dup_discards=cs.dup_discards,
        duplicate_requests=exp_rep.duplicate_requests if exp_rep else 0,
        fault_stats=stats.as_dict() if stats is not None else None,
        sim_time=cs.sim.now,
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
