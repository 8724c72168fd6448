"""The four workloads that drive the DES runtime through ``repro``'s facade."""

from __future__ import annotations

import dataclasses
import os
import statistics
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

import repro
from perf.harness import OUT_DIR
from perf.workloads.base import RepOut, Timed, Workload, digest, run_counts


def _events(sim: Any) -> int:
    return int(sim.sim.kernel_counters()["dispatched"])


class Fig4Sweep(Workload):
    name = "fig4_sweep"
    timed_unit = "one repetition: the four runs (a)-(d), built and run"
    work_unit = "DES events dispatched"
    cross_check = True

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        from repro.bench.figure4 import spec_for_subfigure

        exports = 121 if tiny else 1001
        self.specs = [spec_for_subfigure(s, exports=exports) for s in "abcd"]
        # What run_figure4_once(spec, run_index) would seed the run with.
        self.run_index = seed % 1000
        self.sims: list[Any] = []

    def rep(self) -> RepOut:
        from repro.bench.figure4 import build_figure4_simulation, optimal_iteration_of

        failures: list[str] = []
        facts = []
        self.sims = []
        with Timed() as t:
            for spec in self.specs:
                cs = build_figure4_simulation(spec, seed=spec.seed * 1000 + self.run_index)
                cs.run()
                self.sims.append(cs)
        for spec, cs in zip(self.specs, self.sims):
            stats = cs.context("F", spec.slow_rank).stats
            decisions = stats.decisions()
            optimal = optimal_iteration_of(
                stats.export_records, cutoff_ts=spec.n_requests * spec.request_period
            )
            series = [r.cost for r in stats.export_records]
            facts.append((spec.u_procs, decisions, optimal, digest(series)))
            failures += self._check(spec, decisions, optimal)
        self.digests.append(digest(facts))
        work = sum(_events(cs) for cs in self.sims)
        return RepOut(t.seconds, work, len(self.specs), failures, t.stolen)

    def _check(self, spec: Any, decisions: dict[str, int], optimal: int | None) -> list[str]:
        """The first failing check of one run (a run is one operation)."""
        u = spec.u_procs
        bad = []
        if sum(decisions.values()) != spec.exports:
            bad.append(f"decisions_sum U={u}: {decisions} != {spec.exports}")
        elif u in (4, 8) and optimal is not None:
            bad.append(f"optimal_iteration U={u}: {optimal} is not None")
        elif u in (16, 32) and decisions.get("send", 0) != spec.n_requests:
            bad.append(f"send U={u}: {decisions.get('send', 0)} != {spec.n_requests}")
        elif u == 32 and optimal != 22:
            bad.append(f"optimal_iteration U=32: {optimal} != 22")
        elif u == 16 and not self.tiny and not (optimal is not None and 250 <= optimal <= 450):
            bad.append(f"optimal_iteration U=16: {optimal} not in [250, 450]")
        return [f"{self.name}/{b}" for b in bad]

    def layer_counts(self) -> dict[str, float]:
        return run_counts(self.sims)


class CoupledWave(Workload):
    name = "coupled_wave"
    timed_unit = "one repetition: one repro.run"
    work_unit = "DES events dispatched"

    DT = 0.5
    IMPORT_EVERY = 2
    TOLERANCE = 2.5

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        from repro.apps.forcing import rotating_source
        from repro.core.coupler import RegionDef
        from repro.data import BlockDecomposition

        n = 32 if tiny else 512
        self.shape = (n, n)
        self.steps = 20 if tiny else 200
        rng = np.random.default_rng(seed)
        # Requests land between exports, so REGL really approximates.
        self.offset = round(float(rng.uniform(0.1, 0.9)), 3)
        self.field = rotating_source(
            domain=(float(n), float(n)),
            period=float(rng.uniform(25.0, 40.0)),
            sigma=n / 10.0,
            amplitude=2.0,
        )
        self.config = (
            "F cluster0 /bin/forcing 4\nU cluster1 /bin/wave 4\n#\n"
            f"F.forcing U.forcing REGL {self.TOLERANCE}\n"
        )
        self.f_region = RegionDef(BlockDecomposition(self.shape, (4, 1)))
        self.u_decomp = BlockDecomposition(self.shape, (2, 2))
        self.u_region = RegionDef(self.u_decomp)
        self.options = repro.RunOptions(seed=seed)
        self.result: Any = None
        self.blocks: dict[int, Any] = {}
        self.matched: list[tuple[float, float | None]] = []

    def _programs(self) -> list[repro.Program]:
        from repro.apps.diffusion import WaveSolver2D
        from repro.apps.forcing import evaluate_on_region

        steps, dt, every = self.steps, self.DT, self.IMPORT_EVERY
        blocks, matched, field = self.blocks, self.matched, self.field
        offset, decomp = self.offset, self.u_decomp

        def f_main(ctx: Any) -> Any:
            region = ctx.local_region("forcing")
            for k in range(int(steps * dt) + 6):
                t = float(k + 1)
                yield from ctx.export("forcing", t, data=evaluate_on_region(field, t, region))
                yield from ctx.compute(0.002)

        def u_main(ctx: Any) -> Any:
            solver = WaveSolver2D(decomp, ctx.rank, dt=dt)
            solver.set_initial(lambda X, Y: np.zeros_like(X))
            forcing = np.zeros(solver.u.local.shape)
            for step in range(steps):
                if step % every == 0:
                    want = round(solver.time + every * dt + offset, 6)
                    got, block = yield from ctx.import_("forcing", want)
                    if block is not None:
                        forcing = block
                    if ctx.rank == 0:
                        matched.append((want, got))
                yield from solver.step_des(ctx.comm, forcing=forcing)
                yield from ctx.compute_elements(solver.u.local.size)
            blocks[ctx.rank] = solver.u

        return [
            repro.Program("F", main=f_main, regions={"forcing": self.f_region}),
            repro.Program("U", main=u_main, regions={"forcing": self.u_region}),
        ]

    def rep(self) -> RepOut:
        self.blocks.clear()
        self.matched.clear()
        with Timed() as t:
            self.result = repro.run(self.config, self._programs(), self.options)
        failures = []
        if len(self.blocks) != 4 or any(got is None for _, got in self.matched):
            failures.append(
                f"{self.name}/all_imports_matched: ranks={sorted(self.blocks)} "
                f"unmatched={[w for w, g in self.matched if g is None]}"
            )
        else:
            self.digests.append(
                digest(self.matched, *(self.blocks[r].local.tobytes() for r in range(4)))
            )
        return RepOut(t.seconds, _events(self.result.simulation), 1, failures, t.stolen)

    def finish(self) -> list[str]:
        """Serial reference solve with the matched forcing timestamps, once."""
        from repro.apps.diffusion import solve_reference
        from repro.data import DistributedArray

        failures = super().finish()
        if len(self.blocks) != 4:
            return failures
        per_step = [self.matched[s // self.IMPORT_EVERY][1] for s in range(self.steps)]
        X, Y = np.meshgrid(
            np.arange(self.shape[0], dtype=float),
            np.arange(self.shape[1], dtype=float),
            indexing="ij",
        )
        cached = {ts: np.asarray(self.field(ts, X, Y)) for ts in set(per_step)}
        it = iter(per_step)
        ref = solve_reference(
            self.shape, steps=self.steps, dt=self.DT, forcing=lambda t, X_, Y_: cached[next(it)]
        )
        full = DistributedArray.assemble([self.blocks[r] for r in range(4)])
        err = float(np.max(np.abs(full - ref)))
        if not err < 1e-12:
            failures.append(f"{self.name}/matches_serial_reference: max error {err:.3e}")
        return failures

    def layer_counts(self) -> dict[str, float]:
        return run_counts([self.result.simulation])


class _Prov(Workload):
    """The demo scenario recorded with every observability switch on."""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        from repro.serve.scenarios import build_scenario
        from repro.serve.spec import SessionSpec

        exports, imports = (120, 5) if tiny else (2000, 99)
        spec = SessionSpec(
            scenario="demo",
            params={
                "exports": exports,
                "imports": [20.0 * (j + 1) for j in range(imports)],
                "seed": seed,
            },
        )
        self.build = build_scenario(spec)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        stem = OUT_DIR / f"{self.name}-{os.getpid()}-{'tiny' if tiny else 'full'}"
        self.prov_path = Path(f"{stem}.prov")
        self.telemetry_path = Path(f"{stem}.telemetry.jsonl")
        self.recorded: Any = None

    def run_recorded(self) -> Any:
        from repro.obs import JsonlSink

        b = self.build
        self.telemetry_path.unlink(missing_ok=True)  # JsonlSink appends
        options = dataclasses.replace(
            b.options,
            provenance=str(self.prov_path),
            telemetry_sinks=(JsonlSink(str(self.telemetry_path)),),
            causal_trace=True,
        )
        return repro.run(b.config, list(b.programs), options)

    def close(self) -> None:
        self.prov_path.unlink(missing_ok=True)
        self.telemetry_path.unlink(missing_ok=True)


class ProvRecord(_Prov):
    name = "prov_record"
    timed_unit = "one repetition: the recorded run (the issue's record_s)"
    work_unit = "DES events dispatched"

    def run_plain(self) -> Any:
        """The same inputs with nothing watching: the overhead ratio's base."""
        b = self.build
        return repro.run(b.config, list(b.programs), b.options)

    def rep(self) -> RepOut:
        from repro.obs.prov import payload_digest, report_payload

        with Timed() as t:
            self.recorded = self.run_recorded()
        report = report_payload(self.recorded)
        failures = []
        if report.get("schema") != "repro.report/v1":
            failures.append(f"{self.name}/report_schema: {report.get('schema')}")
        if not self.prov_path.stat().st_size:
            failures.append(f"{self.name}/log_written: {self.prov_path.name} is empty")
        self.digests.append(payload_digest(report))
        return RepOut(t.seconds, _events(self.recorded.simulation), 2, failures, t.stolen)

    def untraced_extra(self) -> dict[str, float]:
        """Plain and recorded runs in turn: the ratio is the median of the pairs'."""
        plain, record = [], []
        for _ in range(3):
            t0 = perf_counter()
            self.run_plain()
            t1 = perf_counter()
            self.run_recorded()
            plain.append(t1 - t0)
            record.append(perf_counter() - t1)
        return {
            "prov.plain_s": statistics.median(plain),
            "prov.record_s": statistics.median(record),
            "prov.overhead_ratio": statistics.median(r / p for r, p in zip(record, plain)),
        }

    def layer_counts(self) -> dict[str, float]:
        counts = run_counts([self.recorded.simulation])
        counts["obs.prov_bytes"] = float(self.prov_path.stat().st_size)
        with open(self.telemetry_path, encoding="utf-8") as fh:
            counts["obs.telemetry_records"] = float(sum(1 for _ in fh))
        return counts


class ProvReplay(_Prov):
    name = "prov_replay"
    timed_unit = "one repetition: read_log + validate_provenance_log + verify_replay (replay_s)"
    work_unit = "log rows replayed (operations, wire messages, match resolutions)"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.run_recorded()  # the log every repetition replays
        #: Seconds of every repetition, for the traced run's ``prov.replay_s``.
        self.replay_s: list[float] = []

    def rep(self) -> RepOut:
        from repro.obs import read_log, validate_provenance_log, verify_replay

        with Timed() as t:
            log = read_log(self.prov_path)
            errors = validate_provenance_log(log)
            verdict = verify_replay(log)
        self.replay_s.append(t.seconds)
        failures = []
        if errors:
            failures.append(f"{self.name}/provenance_log_valid: {errors[:3]}")
        if not verdict["ok"]:
            failures.append(f"{self.name}/replay_bit_exact: {verdict}")
        self.digests.append(digest(verdict["report_sha256"], verdict["causal_sha256"]))
        rows = len(log.wire) + len(log.matches) + sum(len(ops) for ops in log.ops.values())
        return RepOut(t.seconds, rows, 2, failures, t.stolen)

    def untraced_extra(self) -> dict[str, float]:
        return {"prov.replay_s": statistics.median(self.replay_s)}

    def layer_counts(self) -> dict[str, float]:
        return {"obs.prov_bytes": float(self.prov_path.stat().st_size)}
