"""Control-plane overhead: is the rep really "low-overhead"?

The paper calls the representative a *low-overhead control gateway*;
buddy-help adds control messages (one per lagging process per request)
to save data-sized memcpys.  This bench counts every message on the
wire and weighs the control bytes against the buffering work avoided.
"""

from conftest import emit
from repro.bench.figure4 import Figure4Spec, figure4_rows
from repro.bench.reporting import format_table


def _run(u_procs, buddy, exports=401):
    """The wire and rep counters of one Figure-4 run, read off its row."""
    spec = Figure4Spec(u_procs=u_procs, exports=exports, runs=1,
                       jitter=0.0, buddy_help=buddy)
    (row,) = figure4_rows(spec)
    wire = row["counters"]
    (requests,) = [
        s["value"] for s in row["metrics"]["metrics"]
        if s["name"] == "rep.requests" and s["labels"] == {"program": "F"}
    ]
    return {
        "messages": wire["ctl_messages"] + wire["data_messages"],
        "buddy_msgs": row["metrics"]["paper"]["buddy_helps_sent"],
        "requests": int(requests),
        "skips": row["p_s"]["decisions"].get("skip", 0),
        "export_total_s": row["p_s"]["export_time"],
    }


def test_control_message_economics(benchmark, scale):
    exports = min(scale["exports"], 401)

    def run_matrix():
        return {
            (u, b): _run(u, b, exports=exports)
            for u in (16, 32)
            for b in (True, False)
        }

    results = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    rows = []
    for (u, buddy), r in sorted(results.items()):
        per_req = r["messages"] / max(1, r["requests"])
        rows.append([
            u,
            "on" if buddy else "off",
            r["requests"],
            r["messages"],
            f"{per_req:.1f}",
            r["buddy_msgs"],
            r["skips"],
            f"{r['export_total_s']:.3f}",
        ])
    emit(
        "Control-plane economics (total wire messages; p_s export time)",
        format_table(
            ["U", "buddy", "requests", "messages", "msg/request",
             "buddy msgs", "p_s skips", "p_s export s"],
            rows,
        ),
    )
    for u in (16, 32):
        on, off = results[(u, True)], results[(u, False)]
        # Buddy-help adds at most a handful of control messages per
        # request (bounded by nprocs)...
        assert on["buddy_msgs"] <= on["requests"] * 4
        # ...and repays them with large buffering savings on p_s.
        assert on["export_total_s"] < off["export_total_s"]
    benchmark.extra_info["paper"] = "the rep is a low-overhead control gateway"
