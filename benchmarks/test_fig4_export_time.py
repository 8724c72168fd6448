"""Figure 4 (a)-(d): per-iteration export time of the slowest exporter
process, for importer sizes 4 / 8 / 16 / 32.

Paper observations reproduced and asserted here:

* (a) U=4 and (b) U=8 — the importer is slower: every export is
  buffered; the series is flat, ~8% elevated during framework
  initialization, and drops a few percent late in the run once the
  other F processes have finished (less contention).
* (c) U=16 — the importer catches up: buddy-help skips grow until the
  optimal state is reached (paper: ≈ 400 iterations).
* (d) U=32 — optimal state almost immediately (paper: ≈ 25 iterations).
"""

import pytest

from conftest import emit
from repro.bench.figure4 import Figure4Spec, figure4_rows
from repro.bench.reporting import format_series, format_table, mean_series
from repro.util.stats import SeriesSummary


def _spec(u_procs, scale, **kw):
    return Figure4Spec(
        u_procs=u_procs, exports=scale["exports"], runs=scale["runs"], **kw
    )


def _runs(spec, benchmark):
    """``p_s`` of every run of *spec*, timed once, with its report emitted."""
    rows = benchmark.pedantic(figure4_rows, args=(spec,), rounds=1, iterations=1)
    runs = [row["p_s"] for row in rows]
    table = []
    for i, ps in enumerate(runs):
        s = SeriesSummary.from_series(ps["series"])
        table.append([
            i,
            f"{s.head_mean * 1e3:.3f}",
            f"{s.body_mean * 1e3:.3f}",
            f"{s.tail_mean * 1e3:.3f}",
            f"{ps['skip_fraction']:.2f}",
            _opt(ps),
            f"{ps['t_ub'] * 1e3:.2f}",
        ])
    mean = mean_series([ps["series"] for ps in runs])
    emit(
        f"Figure 4: U={spec.u_procs} processes ({spec.runs} runs, "
        f"{spec.exports} exports)",
        format_table(
            ["run", "head ms", "body ms", "tail ms", "skip%", "opt iter", "T_ub ms"], table
        )
        + "\n"
        + format_series("mean p_s export time", mean, unit="s"),
    )
    return runs


def _opt(ps):
    return ps["optimal_iteration"] if ps["optimal_iteration"] is not None else "-"


@pytest.mark.parametrize("u_procs,sub", [(4, "a"), (8, "b")], ids=["fig4a-u4", "fig4b-u8"])
def test_fig4_importer_slower_flat_series(benchmark, scale, u_procs, sub):
    runs = _runs(_spec(u_procs, scale), benchmark)
    for ps in runs:
        # Every export buffered (plus the matched sends): no skips.
        assert ps["decisions"].get("skip", 0) == 0
        assert ps["optimal_iteration"] is None
        s = SeriesSummary.from_series(ps["series"], head=30, tail=200)
        # ~8% init surcharge on the head of the series.
        assert s.head_mean > 1.03 * s.body_mean
        # A few percent faster after the peer processes finish.
        assert s.tail_mean < s.body_mean
    benchmark.extra_info["skip_fraction"] = runs[0]["skip_fraction"]
    benchmark.extra_info["paper"] = "flat series; +8% head; -4% tail"


def test_fig4c_u16_gradual_optimal_state(benchmark, scale):
    runs = _runs(_spec(16, scale), benchmark)
    full = scale["exports"] >= 1001
    for ps in runs:
        # The catch-up is deliberately near-critical (paper: ~400
        # iterations to the optimal state), so short REPRO_QUICK runs
        # only see its beginning.
        assert ps["skip_fraction"] > (0.5 if full else 0.2)
        if full:
            assert ps["optimal_iteration"] is not None
            # Paper: around 400 iterations; accept the broad band the
            # "gradual catch-up" claim implies.
            assert 100 <= ps["optimal_iteration"] <= 700
        # The series decays: late exports are cheaper than early ones.
        s = SeriesSummary.from_series(ps["series"])
        assert s.tail_mean < (0.5 if full else 0.9) * s.head_mean
    benchmark.extra_info["optimal_iterations"] = [ps["optimal_iteration"] for ps in runs]
    benchmark.extra_info["paper"] = "optimal state at ~400 iterations"


def test_fig4d_u32_fast_optimal_state(benchmark, scale):
    runs = _runs(_spec(32, scale), benchmark)
    for ps in runs:
        assert ps["skip_fraction"] > 0.8
        assert ps["optimal_iteration"] is not None
        # Paper: around 25 iterations.
        assert ps["optimal_iteration"] <= 80
        # Figure 6 / optimal state: T_i == 0 once reached; total in-region
        # waste stays negligible.
        assert ps["t_ub"] < 0.01
    benchmark.extra_info["optimal_iterations"] = [ps["optimal_iteration"] for ps in runs]
    benchmark.extra_info["paper"] = "optimal state at ~25 iterations"


def test_fig4_cross_configuration_ordering(benchmark, scale):
    """The headline comparison: more importer processes -> earlier help
    -> cheaper exports on the slowest process."""

    def run_all():
        return {
            u: figure4_rows(_spec(u, {"exports": scale["exports"], "runs": 1}))[0]["p_s"]
            for u in (4, 8, 16, 32)
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    means = {}
    for u, ps in results.items():
        s = SeriesSummary.from_series(ps["series"])
        means[u] = s.mean
        rows.append([u, f"{s.mean * 1e3:.3f}", f"{ps['skip_fraction']:.2f}", _opt(ps)])
    emit(
        "Figure 4 cross-configuration summary",
        format_table(["U procs", "mean export ms", "skip%", "opt iter"], rows),
    )
    assert means[4] == pytest.approx(means[8], rel=0.05)  # both flat
    assert means[16] < 0.6 * means[4]
    assert means[32] < means[16]
