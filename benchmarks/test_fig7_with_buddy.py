"""Figure 7: REGL 5.0 *with* buddy-help — no in-region churn at all.

The wider tolerance (5.0 vs 2.5) makes the paper's point about the
ratio of acceptable-region size to request inter-arrival time: the
bigger the region, the more buffering buddy-help avoids.
"""

import re

from conftest import emit
from repro.bench.rows import run_row
from repro.scenarios import build


def test_fig7_trace(benchmark):
    ps = benchmark.pedantic(
        lambda: run_row("fig7", build("fig7"), trace=True)["p_s"], rounds=1, iterations=1
    )
    text = "\n".join(ps["trace"])
    emit("Figure 7: with buddy-help (REGL 5.0)", text)
    skips = [float(t) for t in re.findall(r"export D@([\d.]+), skip memcpy\.", text)]
    memcpys = [float(t) for t in re.findall(r"export D@([\d.]+), call memcpy\.", text)]
    # 4.6 is outside [5.0, 10.0]; 5.6..8.6 are inside but ruled out by
    # the buddy answer; only the match 9.6 (and post-region 10.6) copy.
    assert skips == [4.6, 5.6, 6.6, 7.6, 8.6]
    assert memcpys == [1.6, 2.6, 3.6, 9.6, 10.6]
    assert ps["t_ub"] == 0.0
    benchmark.extra_info["paper"] = "all in-region non-matches skipped; T_i = 0"
