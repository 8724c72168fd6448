"""Equations (1)-(2): the unnecessary-buffering time ``T_ub``.

``T_i`` is the buffering time wasted on in-region non-match objects for
request window *i*; ``T_ub = Σ T_i``.  This bench measures ``T_ub`` on
the Figure-4 micro-benchmark with buddy-help on and off, quantifying
exactly what the optimization removes.
"""

from conftest import emit
from repro.bench.figure4 import Figure4Spec, figure4_rows
from repro.bench.reporting import format_table


def test_eq2_tub_with_and_without_buddy(benchmark, scale):
    exports = min(scale["exports"], 601)

    def run_matrix():
        out = {}
        for u in (16, 32):
            for buddy in (True, False):
                spec = Figure4Spec(
                    u_procs=u, exports=exports, runs=1, jitter=0.0, buddy_help=buddy
                )
                out[(u, buddy)] = figure4_rows(spec)[0]["p_s"]
        return out

    runs = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    rows = []
    for (u, buddy), ps in sorted(runs.items()):
        rows.append(
            [
                u,
                "on" if buddy else "off",
                f"{ps['t_ub'] * 1e3:.3f}",
                f"{ps['unnecessary_total'] * 1e3:.1f}",
                f"{ps['skip_fraction']:.2f}",
            ]
        )
    emit(
        "Eq. (2): T_ub and total wasted buffering (ms), buddy on/off",
        format_table(
            ["U procs", "buddy", "T_ub ms", "total waste ms", "skip%"], rows
        ),
    )
    for u in (16, 32):
        on, off = runs[(u, True)], runs[(u, False)]
        assert on["t_ub"] <= off["t_ub"]
        assert on["unnecessary_total"] < off["unnecessary_total"]
    # Strict improvement where the importer is fast enough to help.
    assert runs[(32, True)]["t_ub"] < 0.2 * max(runs[(32, False)]["t_ub"], 1e-12)
    benchmark.extra_info["paper"] = "buddy-help drives T_i (and T_ub) to zero"


def test_eq1_windows_monotone_under_catchup(benchmark, scale):
    """The paper's side remark: once ``p_s`` starts getting buddy-help
    at request *j*, the per-window waste ``T_k`` is non-increasing for
    ``k >= j`` (until it reaches 0 in the optimal state)."""
    spec = Figure4Spec(
        u_procs=32, exports=min(scale["exports"], 601), runs=1, jitter=0.0
    )

    def run():
        from repro.bench.figure4 import build_figure4_simulation

        cs = build_figure4_simulation(spec)
        cs.run()
        return cs.buffer_stats("F", spec.slow_rank, "f")

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    windows = [stats.t_by_window.get(w, 0.0) for w in range(spec.n_requests)]
    emit(
        "Eq. (1): per-window T_i of p_s (U=32)",
        " ".join(f"{t * 1e3:.2f}" for t in windows[:20]) + " ... (ms)",
    )
    # After the first few windows, T_i is 0 and stays 0.
    settled = windows[5:]
    assert all(t == 0.0 for t in settled)
