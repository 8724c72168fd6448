"""Runtime Property-1 enforcement: misbehaving programs are caught.

Two mechanisms, both tested here:

* the **operation log** (``record_operations=True``) checks all
  export/import sequences after the run;
* the **rep** detects inconsistent responses *during* the run when the
  divergence reaches a request (MATCH vs NO_MATCH, or different
  matched timestamps).
"""

import pytest

from repro.api import RunOptions
from repro.core.coupler import CoupledSimulation, RegionDef
from repro.core.exceptions import PropertyViolationError
from repro.costs import FAST_TEST
from repro.data import BlockDecomposition

CONFIG = """
E c0 /bin/E 2
I c1 /bin/I 2
#
E.d I.d REGL 2.5
"""


def build(e_main, i_requests=(20.0,), record=True, importer_sleep=0.01):
    def i_main(ctx):
        for ts in i_requests:
            yield from ctx.compute(importer_sleep)
            yield from ctx.import_("d", ts)

    cs = CoupledSimulation(
        CONFIG, options=RunOptions(preset=FAST_TEST, record_operations=record, seed=0)
    )
    cs.add_program("E", main=e_main,
                   regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
    cs.add_program("I", main=i_main,
                   regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))})
    return cs


class TestOperationLog:
    def test_conformant_program_passes(self):
        def e_main(ctx):
            for k in range(30):
                yield from ctx.export("d", 1.6 + k)
                yield from ctx.compute(0.001)

        cs = build(e_main)
        cs.run()
        assert cs.check_property1() == []

    def test_divergent_sequences_detected_offline(self):
        def e_main(ctx):
            # Rank 1 exports shifted timestamps: NOT collective.
            shift = 0.25 if ctx.rank == 1 else 0.0
            for k in range(30):
                yield from ctx.export("d", 1.6 + k + shift)
                yield from ctx.compute(0.001)

        cs = build(e_main, i_requests=())
        cs.run()
        with pytest.raises(PropertyViolationError):
            cs.check_property1()
        violations = cs.check_property1(raise_on_violation=False)
        assert violations and "E" in violations[0]

    def test_prefix_lag_is_fine(self):
        def e_main(ctx):
            # Rank 1 exports fewer objects (cut short) but the prefix
            # matches: conformant per the checker.
            n = 10 if ctx.rank == 1 else 30
            for k in range(n):
                yield from ctx.export("d", 1.6 + k)
                yield from ctx.compute(0.001)

        cs = build(e_main, i_requests=())
        cs.run()
        assert cs.check_property1() == []

    def test_requires_recording(self):
        def e_main(ctx):
            yield from ctx.export("d", 1.0)

        cs = build(e_main, i_requests=(), record=False)
        cs.run()
        with pytest.raises(ValueError, match="record_operations"):
            cs.check_property1()

    def test_import_operations_logged_too(self):
        def e_main(ctx):
            for k in range(30):
                yield from ctx.export("d", 1.6 + k)
                yield from ctx.compute(0.001)

        cs = build(e_main, i_requests=(20.0,))
        cs.run()
        assert cs.operation_log is not None
        seq = cs.operation_log.sequence("I", 0)
        assert [op.kind for op in seq] == ["import"]


class TestRepDetection:
    def test_divergent_matches_raise_at_the_rep(self):
        """When ranks export different timestamps, their definitive
        responses disagree and the rep raises mid-run."""

        def e_main(ctx):
            shift = 0.5 if ctx.rank == 1 else 0.0
            for k in range(40):
                yield from ctx.export("d", 1.6 + k + shift)
                yield from ctx.compute(0.0005)

        cs = build(e_main, i_requests=(20.0,), record=False)
        with pytest.raises(PropertyViolationError):
            cs.run()

    def test_match_vs_no_match_raises(self):
        """Rank 1 exports nothing near the request: it answers NO_MATCH
        while rank 0 answers MATCH — illegal aggregate."""

        def e_main(ctx):
            if ctx.rank == 0:
                stream = [1.6 + k for k in range(40)]
            else:
                stream = [100.0 + k for k in range(40)]  # far from 20.0
            for ts in stream:
                yield from ctx.export("d", ts)
                yield from ctx.compute(0.0005)

        cs = build(e_main, i_requests=(20.0,), record=False)
        with pytest.raises(PropertyViolationError):
            cs.run()
