"""End-to-end property test: the full coupled system vs. an oracle.

For randomized workloads (policies, tolerances, speeds, request
cadences) the complete DES runtime — reps, agents, buddy-help, buffer
management, data plane — must deliver exactly the answers a clairvoyant
:class:`MatchEngine` computes from the export stream alone, and must
uphold the framework invariants:

* **Property 1**: every importer rank receives identical answers;
* **oracle agreement**: matched timestamps equal the policy's best
  candidate over the full (closed) export stream;
* **skip safety**: no exporter rank ever skipped a timestamp that was
  later matched;
* **delivery**: every match was transferred by every exporter rank
  exactly once.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import RunOptions
from repro.core.coupler import CoupledSimulation, RegionDef
from repro.core.exporter import ExportDecision
from repro.costs import FAST_TEST
from repro.data import BlockDecomposition
from repro.match.engine import MatchEngine
from repro.match.policies import MatchPolicy, PolicyKind
from repro.match.result import MatchKind


def run_coupled(policy_kind, tolerance, exports, request_gaps, speeds,
                importer_sleep, buddy):
    """Build + run one randomized coupled system; return observations."""
    tol_text = "" if policy_kind is PolicyKind.EXACT else f" {tolerance}"
    config = (
        f"E c0 /bin/E {len(speeds)}\n"
        "I c1 /bin/I 2\n"
        "#\n"
        f"E.d I.d {policy_kind.value}{tol_text}\n"
    )
    # Requests: increasing, spaced by more than the acceptable region's
    # width (the disjointness regime the default connection mode
    # assumes); a REG region is 2 * tolerance wide.
    width = 2 * tolerance if policy_kind is PolicyKind.REG else tolerance
    requests = []
    acc = 0.0
    for gap in request_gaps:
        acc += max(gap, width + 1.1)
        requests.append(round(acc, 6))

    answers = {}

    def e_main(ctx):
        scale = speeds[ctx.rank]
        for k in range(exports):
            yield from ctx.export("d", round(0.6 + k, 6))
            yield from ctx.compute(0.0004 * scale)

    def i_main(ctx):
        got = []
        for ts in requests:
            yield from ctx.compute(importer_sleep)
            m, _ = yield from ctx.import_("d", ts)
            got.append((ts, m))
        answers[ctx.rank] = got

    cs = CoupledSimulation(
        config, options=RunOptions(preset=FAST_TEST, buddy_help=buddy, seed=1)
    )
    cs.add_program(
        "E", main=e_main,
        regions={"d": RegionDef(BlockDecomposition((8, 8), (len(speeds), 1)))},
    )
    cs.add_program(
        "I", main=i_main,
        regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))},
    )
    cs.run()
    return cs, answers, requests


def oracle_answers(policy_kind, tolerance, exports, requests):
    """The clairvoyant verdicts from the export stream alone."""
    if policy_kind is PolicyKind.EXACT:
        tolerance = 0.0
    engine = MatchEngine(MatchPolicy(policy_kind, tolerance))
    for k in range(exports):
        engine.record_export(round(0.6 + k, 6))
    engine.close_stream()
    out = []
    for ts in requests:
        r = engine.evaluate(ts)
        out.append((ts, r.matched_ts if r.kind is MatchKind.MATCH else None))
    return out


class TestEndToEndOracle:
    @given(
        policy_kind=st.sampled_from(
            [PolicyKind.REGL, PolicyKind.REGU, PolicyKind.REG]
        ),
        tolerance=st.floats(0.5, 4.0, allow_nan=False),
        exports=st.integers(25, 70),
        request_gaps=st.lists(st.floats(5.0, 25.0), min_size=1, max_size=4),
        speeds_extra=st.lists(st.floats(1.0, 5.0), min_size=1, max_size=2),
        importer_sleep=st.floats(0.0001, 0.01),
        buddy=st.booleans(),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_system_matches_oracle(
        self,
        policy_kind,
        tolerance,
        exports,
        request_gaps,
        speeds_extra,
        importer_sleep,
        buddy,
    ):
        tolerance = round(tolerance, 3)
        speeds = [1.0] + [round(s, 2) for s in speeds_extra]
        cs, answers, requests = run_coupled(
            policy_kind, tolerance, exports, request_gaps, speeds,
            importer_sleep, buddy,
        )
        expected = oracle_answers(policy_kind, tolerance, exports, requests)

        # Property 1: all importer ranks saw identical answers.
        assert answers[0] == answers[1]
        # Oracle agreement.
        assert answers[0] == expected

        matched = {m for _ts, m in expected if m is not None}
        for rank in range(len(speeds)):
            ctx = cs.context("E", rank)
            records = ctx.stats.export_records
            # Skip safety: no matched timestamp was ever skipped.
            skipped = {
                r.ts for r in records if r.decision is ExportDecision.SKIP
            }
            assert not (matched & skipped), (
                f"rank {rank} skipped matched timestamps {matched & skipped}"
            )
            # Delivery: each match transferred exactly once per rank.
            stats = cs.buffer_stats("E", rank, "d")
            assert stats.sent_count == len(matched)

    @given(
        exports=st.integers(30, 60),
        tolerance=st.floats(0.5, 3.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_buddy_is_transparent(self, exports, tolerance):
        """Buddy-help must never change any observable answer."""
        tolerance = round(tolerance, 3)
        kwargs = dict(
            policy_kind=PolicyKind.REGL,
            tolerance=tolerance,
            exports=exports,
            request_gaps=[8.0, 12.0],
            speeds=[1.0, 3.0],
            importer_sleep=0.001,
        )
        _cs1, a_on, _ = run_coupled(buddy=True, **kwargs)
        _cs2, a_off, _ = run_coupled(buddy=False, **kwargs)
        assert a_on == a_off
