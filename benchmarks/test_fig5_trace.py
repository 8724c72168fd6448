"""Figure 5: the typical buddy-help event trace (REGL 2.5, requests at
20 and 40) — skip runs grow from 4 memcpys to 7 as U catches up."""

import re

from conftest import emit
from repro.bench.rows import run_row
from repro.scenarios import build


def test_fig5_trace(benchmark):
    row = benchmark.pedantic(
        lambda: run_row("fig5", build("fig5"), trace=True), rounds=1, iterations=1
    )
    trace = row["p_s"]["trace"]
    emit("Figure 5: typical buddy-help scenario", "\n".join(trace))
    text = "\n".join(trace)
    skips = [float(t) for t in re.findall(r"export D@([\d.]+), skip memcpy\.", text)]
    assert [t for t in skips if t < 20] == [15.6, 16.6, 17.6, 18.6]
    assert [t for t in skips if 20 < t < 40] == [
        32.6, 33.6, 34.6, 35.6, 36.6, 37.6, 38.6
    ]
    sends = [float(t) for t in re.findall(r"send D@([\d.]+) out\.", text)]
    assert sends == [19.6, 39.6]
    benchmark.extra_info["paper"] = "4 skips in window 1, 7 in window 2"
    benchmark.extra_info["skips_window1"] = 4
    benchmark.extra_info["skips_window2"] = 7
