"""Benchmark harness: regenerates every figure of the paper.

The coupled experiments are described once, in :mod:`repro.scenarios`;
every run of one is a ``repro run`` row
(:func:`~repro.bench.rows.run_row`), and a multi-run experiment is a
list of rows.

* :mod:`repro.bench.rows` -- the one fold of a run into what the paper
  plots (``p_s``'s export path and the importer's answers) and
  :func:`~repro.bench.rows.run_row`, which runs a scenario build into
  its row: every ``repro run`` cell, benchmark, golden and report
  reads it.
* :mod:`repro.bench.figure4` -- the Section-5 micro-benchmark
  (Figure 4 a-d): :func:`~repro.bench.figure4.figure4_rows`, the rows
  of one importer size, six runs by default.
* :mod:`repro.bench.experiments_report` -- every figure as one
  markdown report (``repro experiments``), rendered from rows.
* :mod:`repro.bench.reporting` -- ASCII tables/series so the pytest
  benchmarks print the same rows the paper plots.

Figure 3, the Figure 5/7/8 traces and the resilience sweep need no
runner of their own: they are ``run_row`` over scenarios ``fig3a`` /
``fig3b``, ``fig5`` / ``fig7`` (with ``trace=True``) and ``resilience``.
"""
