"""The benchmark's workloads, in the order they are run and reported."""

from __future__ import annotations

from perf.workloads.base import RepOut, Workload
from perf.workloads.des import CoupledWave, Fig4Sweep, ProvRecord, ProvReplay
from perf.workloads.match import MatchBatch, MatchStream
from perf.workloads.serve import ServeBurst
from perf.workloads.verify import VerifyWorlds

WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        Fig4Sweep,
        CoupledWave,
        VerifyWorlds,
        ProvRecord,
        ProvReplay,
        ServeBurst,
        MatchBatch,
        MatchStream,
    )
}

__all__ = ["WORKLOADS", "RepOut", "Workload"]
