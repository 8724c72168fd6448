"""repro — loosely coupled simulations with buddy-help.

A complete Python reproduction of Wu & Sussman, *"Taking Advantage of
Collective Operation Semantics for Loosely Coupled Simulations"*
(IPDPS 2007): the InterComm-style coupling framework with approximate
timestamp matching, collective export/import semantics (Property 1),
representative-based request aggregation, and the paper's **buddy-help**
optimization that lets slow exporter processes skip framework buffering
of data that can never be matched.

Entry points:

* :func:`repro.run` — the one-call facade: configuration +
  :class:`repro.Program` declarations + frozen
  :class:`repro.RunOptions` in, :class:`repro.RunResult` out.
* :class:`repro.CoupledSimulation` — couple programs on the
  deterministic discrete-event runtime (all benchmarks run here).
* :class:`repro.LiveCoupledSimulation` — the same protocol on OS
  threads and wall-clock time.
* :mod:`repro.bench` — regenerate every figure of the paper.
* ``python -m repro`` — command-line access to the experiments.

See README.md for a tour, docs/api.md for the facade reference, and
EXPERIMENTS.md for the paper-vs-measured record.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.api.facade import Program, RunResult, build, run
    from repro.api.options import RunOptions
    from repro.core.config import CouplingConfig, load_config, parse_config
    from repro.core.coupler import CoupledSimulation, RegionDef
    from repro.core.live import LiveCoupledSimulation
    from repro.data.decomposition import BlockDecomposition
    from repro.data.darray import DistributedArray
    from repro.data.region import RectRegion
    from repro.data.schedule import CommSchedule
    from repro.faults.plan import FaultPlan
    from repro.match.policies import MatchPolicy, PolicyKind
    from repro.obs.metrics import MetricsSnapshot
    from repro.obs.paper import PaperMetrics
    from repro.obs.spans import SpanRecorder, TimelineSet
    from repro.util.tracing import NullTracer, Tracer

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.api.facade": ("Program", "RunResult", "build", "run"),
        "repro.api.options": ("RunOptions",),
        "repro.core.config": ("CouplingConfig", "load_config", "parse_config"),
        "repro.core.coupler": ("CoupledSimulation", "RegionDef"),
        "repro.core.live": ("LiveCoupledSimulation",),
        "repro.data.decomposition": ("BlockDecomposition",),
        "repro.data.darray": ("DistributedArray",),
        "repro.data.region": ("RectRegion",),
        "repro.data.schedule": ("CommSchedule",),
        "repro.faults.plan": ("FaultPlan",),
        "repro.match.policies": ("MatchPolicy", "PolicyKind"),
        "repro.obs.metrics": ("MetricsSnapshot",),
        "repro.obs.paper": ("PaperMetrics",),
        "repro.obs.spans": ("SpanRecorder", "TimelineSet"),
        "repro.util.tracing": ("NullTracer", "Tracer"),
    },
)
