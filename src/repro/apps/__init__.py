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
