"""Regenerate the EXPERIMENTS record from live runs.

``python -m repro experiments`` runs every paper experiment and emits a
markdown report with the measured numbers — the same content as the
hand-written ``EXPERIMENTS.md``, but produced mechanically so a reader
can diff claims against a fresh run on their machine.  Every number
is read from ``repro run`` rows (:func:`~repro.bench.rows.run_row`,
:func:`~repro.bench.figure4.figure4_rows`).
"""

from __future__ import annotations

from typing import TextIO

from repro.bench.figure4 import Figure4Spec, figure4_rows
from repro.bench.reporting import mean_series
from repro.bench.rows import run_row
from repro.bench.traces import (
    scenario_fig5,
    scenario_fig7_with_buddy,
    scenario_fig8_without_buddy,
)
from repro.scenarios import build
from repro.util.stats import SeriesSummary


def _mean(rows: list[dict], key: str) -> float:
    """``p_s[key]`` averaged over *rows*."""
    return sum(row["p_s"][key] for row in rows) / len(rows)


def generate_report(
    out: TextIO,
    exports: int = 1001,
    runs: int = 6,
    seed: int = 2007,
) -> None:
    """Run all experiments and write the markdown report to *out*."""
    w = out.write
    w("# Measured reproduction report\n\n")
    w(f"Configuration: {exports} exports, {runs} runs per Figure-4 "
      f"sub-figure, seed {seed}.\n\n")

    # ---- Figure 4 -------------------------------------------------------
    w("## Figure 4 — p_s export time\n\n")
    w("| U procs | head ms | body ms | tail ms | head/body | tail/body "
      "| skip% | optimal @ | T_ub ms |\n")
    w("|---|---|---|---|---|---|---|---|---|\n")
    fig4 = {}
    for u in (4, 8, 16, 32):
        rows = fig4[u] = figure4_rows(
            Figure4Spec(u_procs=u, exports=exports, runs=runs, seed=seed)
        )
        s = SeriesSummary.from_series(
            mean_series([row["p_s"]["series"] for row in rows]), head=30, tail=300
        )
        skip, t_ub = _mean(rows, "skip_fraction"), _mean(rows, "t_ub")
        opts = sorted(
            row["p_s"]["optimal_iteration"]
            for row in rows
            if row["p_s"]["optimal_iteration"] is not None
        )
        opt_text = f"{opts[0]}–{opts[-1]}" if opts else "never"
        w(
            f"| {u} | {s.head_mean * 1e3:.3f} | {s.body_mean * 1e3:.3f} "
            f"| {s.tail_mean * 1e3:.3f} | {s.head_mean / s.body_mean:.3f} "
            f"| {s.tail_mean / s.body_mean:.3f} | {skip:.2f} | {opt_text} "
            f"| {t_ub * 1e3:.2f} |\n"
        )
    w("\nPaper: (a)/(b) flat with +8% head and ~−4% tail; (c) optimal at "
      "≈400 iterations; (d) ≈25 iterations.\n\n")

    # ---- Eq. 2 ablation --------------------------------------------------
    w("## Eq. (2) — T_ub with buddy-help off\n\n")
    w("| U procs | T_ub on (ms) | T_ub off (ms) | reduction |\n|---|---|---|---|\n")
    for u in (16, 32):
        off = figure4_rows(
            Figure4Spec(u_procs=u, exports=exports, runs=max(1, runs // 2),
                        seed=seed, buddy_help=False)
        )
        t_on, t_off = _mean(fig4[u], "t_ub"), _mean(off, "t_ub")
        ratio = "∞" if t_on == 0 else f"{t_off / t_on:.0f}×"
        w(f"| {u} | {t_on * 1e3:.2f} | {t_off * 1e3:.2f} | {ratio} |\n")
    w("\n")

    # ---- Figure 3 ---------------------------------------------------------
    w("## Figure 3 — buffering scenarios\n\n")
    a = run_row("fig3a", build("fig3a"))["p_s"]
    w(f"* (a) importer slower: buffered {a['buffered_fraction']:.0%}, "
      f"skipped {a['skip_fraction']:.0%}\n")
    for flag, label in ((True, "on: "), (False, "off:")):
        b = run_row("fig3b", build("fig3b", {"buddy_help": flag}))["p_s"]
        w(f"* (b) exporter slower, buddy {label} skipped {b['skip_fraction']:.0%}, "
          f"T_ub {b['t_ub']:.4g} s, export time {b['export_time']:.4g} s\n")
    w("\n")

    # ---- Traces -------------------------------------------------------------
    w("## Figures 5, 7, 8 — event traces\n\n")
    s5 = scenario_fig5()
    skips5 = [e.timestamp for e in s5.events if e.kind == "export_skip"]
    w(f"* Figure 5: skip runs of {len([t for t in skips5 if t < 20])} then "
      f"{len([t for t in skips5 if 20 < t < 40])} memcpys (paper: 4 then 7)\n")
    s7 = scenario_fig7_with_buddy()
    s8 = scenario_fig8_without_buddy()
    w(f"* Figure 7 (buddy on):  {s7.memcpy_count()} memcpys, "
      f"{s7.skip_count()} skips, T_i = {s7.process.state.buffer.t_ub():.0f}\n")
    w(f"* Figure 8 (buddy off): {s8.memcpy_count()} memcpys, "
      f"{s8.skip_count()} skips, T_i = {s8.process.state.buffer.t_ub():.0f}\n")
    w(f"* buddy-help saves exactly "
      f"{s8.memcpy_count() - s7.memcpy_count()} in-region memcpys per window\n")
