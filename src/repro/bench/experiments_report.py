"""Regenerate the EXPERIMENTS record from live runs.

``python -m repro experiments`` runs every paper experiment and emits a
markdown report with the measured numbers — the same content as the
hand-written ``EXPERIMENTS.md``, but produced mechanically so a reader
can diff claims against a fresh run on their machine.
"""

from __future__ import annotations

from typing import TextIO

from repro.bench.figure4 import Figure4Spec, run_figure4
from repro.bench.scenarios import run_exporter_slower, run_importer_slower
from repro.bench.traces import (
    scenario_fig5,
    scenario_fig7_with_buddy,
    scenario_fig8_without_buddy,
)
from repro.util.stats import SeriesSummary


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
        result = run_figure4(
            Figure4Spec(u_procs=u, exports=exports, runs=runs, seed=seed)
        )
        fig4[u] = result
        s = SeriesSummary.from_series(result.mean_series(), head=30, tail=300)
        skip = sum(r.skip_fraction for r in result.runs) / len(result.runs)
        t_ub = sum(r.t_ub for r in result.runs) / len(result.runs)
        opts = sorted(
            r.optimal_iteration
            for r in result.runs
            if r.optimal_iteration is not None
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
        off = run_figure4(
            Figure4Spec(u_procs=u, exports=exports, runs=max(1, runs // 2),
                        seed=seed, buddy_help=False)
        )
        t_on = sum(r.t_ub for r in fig4[u].runs) / len(fig4[u].runs)
        t_off = sum(r.t_ub for r in off.runs) / len(off.runs)
        ratio = "∞" if t_on == 0 else f"{t_off / t_on:.0f}×"
        w(f"| {u} | {t_on * 1e3:.2f} | {t_off * 1e3:.2f} | {ratio} |\n")
    w("\n")

    # ---- Figure 3 ---------------------------------------------------------
    w("## Figure 3 — buffering scenarios\n\n")
    a = run_importer_slower()
    b_on = run_exporter_slower(buddy_help=True)
    b_off = run_exporter_slower(buddy_help=False)
    w(f"* (a) importer slower: buffered {a.buffered_fraction:.0%}, "
      f"skipped {a.skip_fraction:.0%}\n")
    w(f"* (b) exporter slower, buddy on:  skipped {b_on.skip_fraction:.0%}, "
      f"T_ub {b_on.buffer_stats.t_ub:.4g} s, export time "
      f"{b_on.exporter_export_time_total:.4g} s\n")
    w(f"* (b) exporter slower, buddy off: skipped {b_off.skip_fraction:.0%}, "
      f"T_ub {b_off.buffer_stats.t_ub:.4g} s, export time "
      f"{b_off.exporter_export_time_total:.4g} s\n\n")

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
