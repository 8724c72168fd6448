"""The Section-5 micro-benchmark: Figure 4 (a)-(d).

Setup (paper, Section 5):

* Program **F** (exporter): 4 processes, each owning a 512×512 block of
  a 1024×1024 field; process ``p_s`` does extra computation and is the
  slowest; there is no intra-F data exchange.
* Program **U** (importer): 4 / 8 / 16 / 32 processes over the same
  1024×1024 field; runs faster as process count grows (fixed global
  work).
* 1001 exports (timestamps 1.6, 2.6, ...), requests every 20 time
  units with policy ``REGL 2.5`` — one of every twenty exports is a
  match and gets transferred.
* Measured: per-iteration *data export time* of ``p_s``, six runs.

What the shapes mean:

* U = 4, 8 (importer slower): requests arrive after ``p_s`` has already
  passed them; every export must be buffered → a flat memcpy-dominated
  series with an ~8% elevated initialization head and an ~4% drop after
  the other F processes finish (less memory/network contention).
* U = 16: requests begin to arrive *before* ``p_s`` reaches them;
  buddy-help answers from the faster F processes let ``p_s`` skip ever
  more memcpys each window, decaying toward the optimal state
  (paper: ≈ 400 iterations).
* U = 32: the importer is fast enough that the optimal state is reached
  almost immediately (paper: ≈ 25 iterations).

The configuration itself is :class:`repro.scenarios.Figure4Spec`
(scenario ``fig4``); this module runs it into ``repro run`` rows.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.api.facade import build
from repro.bench import rows
from repro.core.coupler import CoupledSimulation
from repro.scenarios import Figure4Spec


def figure4_rows(spec: Figure4Spec) -> list[dict[str, Any]]:
    """The ``spec.runs`` rows of one configuration (:func:`rows.run_row`).

    Run *i* is seeded ``spec.seed * 1000 + i``, so the runs differ only
    in their cost-model jitter.
    """
    seeds = [spec.seed * 1000 + i for i in range(spec.runs)]
    return [
        rows.run_row(f"fig4 u_procs={spec.u_procs} seed={seed}", spec.scenario(seed))
        for seed in seeds
    ]


def build_figure4_simulation(
    spec: Figure4Spec, seed: int | None = None, tracer=None
) -> CoupledSimulation:
    """Construct (but do not run) one Figure-4 simulation."""
    scenario = spec.scenario(seed)
    sim = build(
        scenario.config, scenario.programs, replace(scenario.options, tracer=tracer)
    )
    assert isinstance(sim, CoupledSimulation)  # the spec names no runtime: DES
    return sim


#: Re-exported: the perf harness imports it from this module.
optimal_iteration_of = rows.optimal_iteration_of


def spec_for_subfigure(sub: str, **overrides) -> Figure4Spec:
    """The spec of paper sub-figure ``"a"``/``"b"``/``"c"``/``"d"``."""
    u = {"a": 4, "b": 8, "c": 16, "d": 32}[sub.lower()]
    return replace(Figure4Spec(u_procs=u), **overrides)
