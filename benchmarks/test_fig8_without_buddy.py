"""Figure 8: the same configuration *without* buddy-help.

Every acceptable export becomes the new best candidate: buffer the new
one, free the previous one (the churn Eq. 1 charges as T_i).  The match
is identified only when an export falls outside the region.
"""

from conftest import emit
from repro.bench.traces import scenario_fig7_with_buddy, scenario_fig8_without_buddy
from repro.util import tracing


def test_fig8_trace(benchmark):
    scenario = benchmark.pedantic(scenario_fig8_without_buddy, rounds=1, iterations=1)
    emit("Figure 8: without buddy-help (REGL 5.0)", scenario.rendered())
    memcpys = [e.timestamp for e in scenario.events if e.kind == tracing.EXPORT_MEMCPY]
    removes = [
        e.timestamp
        for e in scenario.events
        if e.kind == tracing.BUFFER_REMOVE and "low" not in e.detail
    ]
    assert memcpys == [1.6, 2.6, 3.6, 5.6, 6.6, 7.6, 8.6, 9.6, 10.6]
    assert removes == [5.6, 6.6, 7.6, 8.6]  # candidate churn
    assert scenario.t_ub == 4.0  # unit-cost memcpys
    benchmark.extra_info["paper"] = "buffer-and-replace churn; match at 10.6"


def test_fig7_vs_fig8_savings(benchmark):
    def run_pair():
        return scenario_fig7_with_buddy(), scenario_fig8_without_buddy()

    with_b, without = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    saved_memcpys = without.memcpy_count() - with_b.memcpy_count()
    emit(
        "Buddy-help savings in the Figure 7/8 window",
        f"memcpys: {without.memcpy_count()} -> {with_b.memcpy_count()} "
        f"(saved {saved_memcpys})\n"
        f"T_ub:    {without.t_ub:.1f} -> {with_b.t_ub:.1f}",
    )
    assert saved_memcpys == 4
    benchmark.extra_info["saved_memcpys"] = saved_memcpys
