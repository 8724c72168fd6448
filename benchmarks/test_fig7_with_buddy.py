"""Figure 7: REGL 5.0 *with* buddy-help — no in-region churn at all.

The wider tolerance (5.0 vs 2.5) makes the paper's point about the
ratio of acceptable-region size to request inter-arrival time: the
bigger the region, the more buffering buddy-help avoids.
"""

from conftest import emit
from repro.bench.traces import scenario_fig7_with_buddy
from repro.util import tracing


def test_fig7_trace(benchmark):
    scenario = benchmark.pedantic(scenario_fig7_with_buddy, rounds=1, iterations=1)
    emit("Figure 7: with buddy-help (REGL 5.0)", scenario.rendered())
    skips = [e.timestamp for e in scenario.events if e.kind == tracing.EXPORT_SKIP]
    memcpys = [e.timestamp for e in scenario.events if e.kind == tracing.EXPORT_MEMCPY]
    # 4.6 is outside [5.0, 10.0]; 5.6..8.6 are inside but ruled out by
    # the buddy answer; only the match 9.6 (and post-region 10.6) copy.
    assert skips == [4.6, 5.6, 6.6, 7.6, 8.6]
    assert memcpys == [1.6, 2.6, 3.6, 9.6, 10.6]
    assert scenario.t_ub == 0.0
    benchmark.extra_info["paper"] = "all in-region non-matches skipped; T_i = 0"
