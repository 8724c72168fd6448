"""Figure 3: the two buffering scenarios.

(a) importer slower — every exported object must be buffered, but the
exporter is off the critical path, so this costs little overall;
(b) exporter slower — buffering sits on the critical path, and this is
where buddy-help pays.
"""

from conftest import emit
from repro.bench.reporting import format_table
from repro.bench.rows import run_row
from repro.scenarios import build


def _row(scenario, exports, buddy_help=True):
    return run_row(scenario, build(scenario, {"exports": exports, "buddy_help": buddy_help}))


def test_fig3a_importer_slower(benchmark, scale):
    exports = min(scale["exports"], 400)
    row = benchmark.pedantic(_row, args=("fig3a", exports), rounds=1, iterations=1)
    ps = row["p_s"]
    emit(
        "Figure 3(a): importer slower",
        format_table(
            ["exports", "requests", "buffered%", "skip%", "T_ub (s)"],
            [[
                exports,
                len(row["answers"]["0"]),
                f"{ps['buffered_fraction']:.2f}",
                f"{ps['skip_fraction']:.2f}",
                f"{ps['t_ub']:.4g}",
            ]],
        ),
    )
    assert ps["buffered_fraction"] == 1.0
    benchmark.extra_info["paper"] = "every export buffered; exporter unaffected"


def test_fig3b_exporter_slower(benchmark, scale):
    exports = min(scale["exports"], 400)

    def run_both():
        return [_row("fig3b", exports, buddy)["p_s"] for buddy in (True, False)]

    with_buddy, without = benchmark.pedantic(run_both, rounds=1, iterations=1)
    emit(
        "Figure 3(b): exporter slower — buddy-help on vs off",
        format_table(
            ["buddy", "skip%", "buffered%", "T_ub (s)", "total export time (s)"],
            [
                [label, f"{ps['skip_fraction']:.2f}", f"{ps['buffered_fraction']:.2f}",
                 f"{ps['t_ub']:.4g}", f"{ps['export_time']:.4g}"]
                for label, ps in (("on", with_buddy), ("off", without))
            ],
        ),
    )
    assert with_buddy["skip_fraction"] > without["skip_fraction"]
    assert with_buddy["export_time"] < without["export_time"]
    benchmark.extra_info["paper"] = "in-region buffering is the cost buddy-help removes"
