#!/usr/bin/env python
"""Reproduce the paper's event traces (Figures 5, 7 and 8).

Each figure is a run of a registered scenario — ``fig5``, and ``fig7``
with ``buddy_help`` on (Figure 7) and off (Figure 8) — with a tracer on
the slow process ``p_s``: every line comes from the full runtime
(requests, PENDING replies, rep finalization, buddy-help messages,
skips).  The same rows print with ``repro run fig5 --trace`` and
``repro run fig7 -p buddy_help=true,false --trace``.

Run:  python examples/buddy_help_traces.py
"""

from repro.bench.rows import memcpy_count, run_row
from repro.scenarios import build


def banner(title):
    print("\n" + "=" * 64)
    print(f"== {title}")
    print("=" * 64)


def trace_of(scenario, **params):
    """``p_s``'s block of a traced ``repro run`` row."""
    return run_row(scenario, build(scenario, params), trace=True)["p_s"]


def main():
    banner("Figure 5: REGL 2.5, requests at 20 and 40")
    s5 = trace_of("fig5")
    print("\n".join(s5["trace"]))
    print(f"\n-> skips grow 4 -> 7 across windows "
          f"(total {s5['decisions']['skip']} skips, "
          f"{memcpy_count(s5['decisions'])} memcpys)")

    banner("Figure 7: REGL 5.0 WITH buddy-help")
    s7 = trace_of("fig7")
    print("\n".join(s7["trace"]))
    print(f"\n-> T_i = {s7['t_ub']:.0f} (no wasted in-region memcpy)")

    banner("Figure 8: REGL 5.0 WITHOUT buddy-help")
    s8 = trace_of("fig7", buddy_help=False)
    print("\n".join(s8["trace"]))
    print(f"\n-> T_i = {s8['t_ub']:.0f} unit-cost wasted memcpys "
          "(the buffer-and-replace churn)")

    banner("T_ub accounting via RunResult.metrics (fig7, with vs. without help)")
    paper = build("fig7", {"buddy_help": True}).run().metrics.paper
    paper_off = build("fig7", {"buddy_help": False}).run().metrics.paper
    print(paper.render())
    print(
        f"\n-> measured no-help run:  T_ub = {paper_off.t_ub_total:.6g}"
        f"\n-> with buddy-help:       T_ub = {paper.t_ub_total:.6g}"
        f"\n-> positive saving:       {paper.t_ub_saving:.6g} "
        f"(counterfactual estimate {paper.t_ub_no_help_estimate:.6g} "
        "matches the no-help measurement)"
    )
    assert paper.t_ub_saving > 0, "buddy-help should save buffering time"


if __name__ == "__main__":
    main()
