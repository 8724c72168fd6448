"""The model checker over the real protocol state machines: no DES, no NumPy."""

from __future__ import annotations

from typing import Any

from perf.workloads.base import RepOut, Timed, Workload, digest


class VerifyWorlds(Workload):
    name = "verify_worlds"
    timed_unit = "one repetition: both worlds checked"
    work_unit = "distinct model states"

    #: (world, ranks per side) -> exact distinct-state count of the full exploration.
    EXPECTED_STATES = {
        ("clean", 2): 7196,
        ("crash", 1): 4116,
        ("clean", 1): 1372,
    }

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        from repro.analysis.model import ModelConfig, directed_worlds

        # A whole-number shift of every timestamp: another input, same state space.
        shift = float(seed % 64)
        stamps = {"requests": (4.0 + shift,), "exports": (1.5 + shift, 3.5 + shift)}
        # The full 2x2 crash world is 21 588 states (3.5 s); at nimp=1 it
        # walks the same crash/recovery code in a quarter of the time, so
        # one repetition stays short enough to repeat within a run.
        wanted = [("clean", 1)] if tiny else [("clean", 2), ("crash", 1)]
        self.worlds = []
        for world, nimp in wanted:
            worlds = dict(directed_worlds(ModelConfig(nimp=nimp, nexp=2, **stamps)))
            self.worlds.append((world, nimp, worlds[world]))
        self.results: list[Any] = []

    def rep(self) -> RepOut:
        from repro.analysis.model import check

        with Timed() as t:
            self.results = [check(cfg) for _, _, cfg in self.worlds]
        failures = []
        for (world, nimp, _), result in zip(self.worlds, self.results):
            stats = result.stats
            expected = self.EXPECTED_STATES[world, nimp]
            if not stats["complete"]:
                failures.append(f"{self.name}/complete {world}: stopped at {stats['states']}")
            elif result.report.findings:
                failures.append(f"{self.name}/zero_findings {world}: {result.report.findings[:2]}")
            elif stats["states"] != expected:
                failures.append(
                    f"{self.name}/state_count {world}: {stats['states']} != {expected}"
                )
        self.digests.append(
            digest([(r.stats["states"], r.stats["transitions"]) for r in self.results])
        )
        work = sum(r.stats["states"] for r in self.results)
        return RepOut(t.seconds, work, len(self.worlds), failures, t.stolen)

    def layer_counts(self) -> dict[str, float]:
        total = {
            key: float(sum(r.stats[key] for r in self.results))
            for key in ("states", "transitions", "sleep_skips", "revisits", "elapsed_sec")
        }
        return {
            "model.states": total["states"],
            "model.transitions": total["transitions"],
            "model.sleep_skips": total["sleep_skips"],
            "model.revisits": total["revisits"],
            "model.states_per_s": total["states"] / total["elapsed_sec"],
        }
