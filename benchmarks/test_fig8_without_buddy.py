"""Figure 8: the same configuration *without* buddy-help.

Every acceptable export becomes the new best candidate: buffer the new
one, free the previous one (the churn Eq. 1 charges as T_i).  The match
is identified only when an export falls outside the region.
"""

import re

from conftest import emit
from repro.bench.rows import memcpy_count, run_row
from repro.scenarios import build


def _fig7(buddy_help: bool) -> dict:
    return run_row("fig7", build("fig7", {"buddy_help": buddy_help}), trace=True)["p_s"]


def test_fig8_trace(benchmark):
    ps = benchmark.pedantic(lambda: _fig7(False), rounds=1, iterations=1)
    text = "\n".join(ps["trace"])
    emit("Figure 8: without buddy-help (REGL 5.0)", text)
    memcpys = [float(t) for t in re.findall(r"export D@([\d.]+), call memcpy\.", text)]
    # The candidate churn: the single removes before the match is sent.
    churn = text[: text.index("send D@9.6 out.")]
    removes = [float(t) for t in re.findall(r"remove D@([\d.]+)\.$", churn, re.M)]
    assert memcpys == [1.6, 2.6, 3.6, 5.6, 6.6, 7.6, 8.6, 9.6, 10.6]
    assert removes == [5.6, 6.6, 7.6, 8.6]  # candidate churn
    assert ps["t_ub"] == 4.0  # unit-cost memcpys
    benchmark.extra_info["paper"] = "buffer-and-replace churn; match at 10.6"


def test_fig7_vs_fig8_savings(benchmark):
    with_b, without = benchmark.pedantic(
        lambda: (_fig7(True), _fig7(False)), rounds=1, iterations=1
    )
    before, after = memcpy_count(without["decisions"]), memcpy_count(with_b["decisions"])
    saved_memcpys = before - after
    emit(
        "Buddy-help savings in the Figure 7/8 window",
        f"memcpys: {before} -> {after} (saved {saved_memcpys})\n"
        f"T_ub:    {without['t_ub']:.1f} -> {with_b['t_ub']:.1f}",
    )
    assert saved_memcpys == 4
    benchmark.extra_info["saved_memcpys"] = saved_memcpys
