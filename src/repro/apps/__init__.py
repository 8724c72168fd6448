"""Application substrate: the paper's micro-benchmark workloads.

The paper's Section-5 benchmark couples two data-parallel programs:

* **Program U** solves ``u_tt = u_xx + u_yy + f(t, x, y)`` — a 2-D wave
  equation with a forcing term — on a 1024×1024 grid distributed over
  4/8/16/32 processes.
* **Program F** computes the forcing field ``f(t, x, y)`` on four
  processes (512×512 each), one of which (``p_s``) is artificially the
  slowest.

This package implements both: vectorized NumPy stencils
(:mod:`repro.apps.stencil`), the distributed leapfrog solver with halo
exchange over ``vmpi`` (:mod:`repro.apps.diffusion`), analytic forcing
fields (:mod:`repro.apps.forcing`), and load-imbalance injection
(:mod:`repro.apps.workloads`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.apps.diffusion import WaveSolver2D, solve_reference
    from repro.apps.forcing import evaluate_on_region, gaussian_pulse, rotating_source
    from repro.apps.halo import halo_exchange, neighbor_table
    from repro.apps.heat import HeatSolver2D, heat_cfl_limit, solve_heat_reference
    from repro.apps.stencil import apply_dirichlet, laplacian
    from repro.apps.workloads import (
        ImbalanceProfile,
        linear_profile,
        one_slow_profile,
        uniform_profile,
    )

__all__ = [
    "laplacian",
    "apply_dirichlet",
    "gaussian_pulse",
    "rotating_source",
    "evaluate_on_region",
    "WaveSolver2D",
    "solve_reference",
    "HeatSolver2D",
    "heat_cfl_limit",
    "solve_heat_reference",
    "halo_exchange",
    "neighbor_table",
    "ImbalanceProfile",
    "uniform_profile",
    "one_slow_profile",
    "linear_profile",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.apps.diffusion": ("WaveSolver2D", "solve_reference"),
        "repro.apps.forcing": ("evaluate_on_region", "gaussian_pulse", "rotating_source"),
        "repro.apps.halo": ("halo_exchange", "neighbor_table"),
        "repro.apps.heat": ("HeatSolver2D", "heat_cfl_limit", "solve_heat_reference"),
        "repro.apps.stencil": ("apply_dirichlet", "laplacian"),
        "repro.apps.workloads": (
            "ImbalanceProfile",
            "linear_profile",
            "one_slow_profile",
            "uniform_profile",
        ),
    },
)
