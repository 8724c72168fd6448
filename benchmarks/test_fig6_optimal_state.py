"""Figure 6: the optimal state — only matched data objects are buffered.

Characteristics asserted (paper Section 5):

1. for each matched object, the buddy-help answer arrives early enough;
2. the framework knows the needed timestamps *before* they are exported
   (only the matches are buffered);
3. ``T_i = 0`` once the optimal state is entered.
"""

from conftest import emit
from repro.bench.figure4 import Figure4Spec, build_figure4_simulation, optimal_iteration_of
from repro.bench.reporting import format_table
from repro.core.exporter import ExportDecision


def test_fig6_optimal_state(benchmark, scale):
    spec = Figure4Spec(
        u_procs=32, exports=min(scale["exports"], 601), runs=1, jitter=0.0
    )

    def run():
        cs = build_figure4_simulation(spec)
        cs.run()
        return cs

    cs = benchmark.pedantic(run, rounds=1, iterations=1)
    ctx = cs.context("F", spec.slow_rank)
    records = ctx.stats.export_records
    # Exports past the last request can never be skipped: judge the
    # in-window ones.  The last 40 of them hold no blind buffer.
    cutoff = spec.n_requests * spec.request_period
    in_window = [r for r in records if r.ts <= cutoff]
    optimal = optimal_iteration_of(records, cutoff_ts=cutoff)
    assert optimal is not None and optimal <= len(in_window) - 40

    # Characterize the steady tail (excluding the post-last-request end).
    tail = in_window[-100:]
    buffers = sum(1 for r in tail if r.decision is ExportDecision.BUFFER)
    sends = sum(1 for r in tail if r.decision is ExportDecision.SEND)
    skips = sum(1 for r in tail if r.decision is ExportDecision.SKIP)
    stats = cs.buffer_stats("F", spec.slow_rank, "f")
    emit(
        "Figure 6: optimal-state tail of p_s (last 100 in-window exports)",
        format_table(
            ["skips", "sends", "buffers", "T_ub total (s)", "live buffers at end"],
            [[skips, sends, buffers, f"{stats.t_ub:.4g}", stats.live_count]],
        ),
    )
    # Only matched data buffered: one send per 20 exports, zero blind buffers.
    assert buffers == 0
    assert sends >= 4
    assert skips + sends == len(tail)
    # T_i = 0 in the optimal state: windows past the onset accrue nothing.
    onset_window = None
    for w, t in sorted(stats.t_by_window.items()):
        if t == 0.0 and onset_window is None:
            onset_window = w
    late_windows = {w: t for w, t in stats.t_by_window.items() if w > 5}
    assert all(t == 0.0 for t in late_windows.values()) or not late_windows
    benchmark.extra_info["paper"] = "T_i == 0 once the optimal state is entered"
