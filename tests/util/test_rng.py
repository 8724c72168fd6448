"""Tests for repro.util.rng — named reproducible streams."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util.rng import BLOCK_SIZE, RngRegistry, _substream_seed


class TestRngRegistry:
    def test_same_name_same_generator_object(self):
        reg = RngRegistry(seed=1)
        assert reg.stream("a") is reg.stream("a")

    def test_different_names_different_sequences(self):
        reg = RngRegistry(seed=1)
        a = reg.stream("a").random(8)
        b = reg.stream("b").random(8)
        assert list(a) != list(b)

    def test_reproducible_across_registries(self):
        x = RngRegistry(seed=7).stream("compute/F.p0").random(16)
        y = RngRegistry(seed=7).stream("compute/F.p0").random(16)
        assert list(x) == list(y)

    def test_creation_order_irrelevant(self):
        r1 = RngRegistry(seed=7)
        r1.stream("zzz")
        a = r1.stream("target").random(4)
        r2 = RngRegistry(seed=7)
        b = r2.stream("target").random(4)
        assert list(a) == list(b)

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1).stream("s").random(8)
        b = RngRegistry(seed=2).stream("s").random(8)
        assert list(a) != list(b)

    def test_fork_is_deterministic_and_independent(self):
        base = RngRegistry(seed=3)
        f1 = base.fork("run0")
        f2 = RngRegistry(seed=3).fork("run0")
        assert f1.seed == f2.seed
        assert list(f1.stream("x").random(4)) == list(f2.stream("x").random(4))
        assert base.fork("run1").seed != f1.seed

    def test_names_sorted(self):
        reg = RngRegistry()
        reg.stream("b")
        reg.stream("a")
        assert reg.names() == ["a", "b"]

    def test_seed_must_be_int(self):
        with pytest.raises(ValueError):
            RngRegistry(seed="abc")  # type: ignore[arg-type]


#: One draw: ``("uniform", lo, hi)`` with ``lo <= hi`` (NumPy refuses
#: the reverse), ``("random", None)`` or ``("random", n)``; array sizes
#: reach past a block so sequences cross refill boundaries from every
#: offset.
_draw = st.one_of(
    st.builds(
        lambda lo, width: ("uniform", lo, lo + width),
        st.floats(-1e6, 1e6),
        st.floats(0.0, 1e6),
    ),
    st.tuples(st.just("random"), st.none()),
    st.tuples(st.just("random"), st.integers(0, 2 * BLOCK_SIZE + 3)),
)


def _call(stream, draw):
    if draw[0] == "uniform":
        return stream.uniform(draw[1], draw[2])
    if draw[1] is None:
        return stream.random()
    return stream.random(draw[1])


def _as_list(value):
    return value.tolist() if isinstance(value, np.ndarray) else [value]


class TestBlockStreamOracle:
    """Block-served draws equal the bare generator's, call for call."""

    @given(
        seed=st.integers(0, 2**63),
        name=st.text(min_size=1, max_size=12),
        draws=st.lists(_draw, max_size=120),
    )
    @settings(max_examples=150, deadline=None)
    def test_equal_to_bare_numpy_call_by_call(self, seed, name, draws):
        recorded = []
        reg = RngRegistry(seed=seed)
        reg.set_recorder(lambda *row: recorded.append(row))
        stream = reg.stream(name)
        bare = np.random.default_rng(_substream_seed(seed, name))
        expected_rows = []
        for draw in draws:
            got, want = _call(stream, draw), _call(bare, draw)
            assert type(got) is type(want)
            assert _as_list(got) == _as_list(want), draw
            method = draw[0]
            expected_rows += [(name, method, v) for v in _as_list(want)]
        # The block position after the sequence is the generator's too.
        after = stream.random()
        assert after == bare.random()
        expected_rows.append((name, "random", after))
        assert recorded == expected_rows

    @pytest.mark.parametrize("method", ["random", "uniform", "array"])
    def test_every_block_offset(self, method):
        # Hypothesis rarely lands a scalar draw exactly on a block's last
        # double; walk every offset instead.
        for offset in range(BLOCK_SIZE + 2):
            stream = RngRegistry(seed=offset).stream("s")
            bare = np.random.default_rng(_substream_seed(offset, "s"))
            assert stream.random(offset).tolist() == bare.random(offset).tolist()
            for _ in range(2 * BLOCK_SIZE + 1):
                if method == "random":
                    assert stream.random() == bare.random()
                elif method == "uniform":
                    assert stream.uniform(0.9, 1.1) == bare.uniform(0.9, 1.1)
                else:
                    assert stream.random(3).tolist() == bare.random(3).tolist()

    def test_a_long_run_of_jitter_draws_is_bit_identical(self):
        stream = RngRegistry(seed=2007).stream("compute/F.3")
        bare = np.random.default_rng(_substream_seed(2007, "compute/F.3"))
        got = [stream.uniform(0.99, 1.01) for _ in range(10_000)]
        assert got == [bare.uniform(0.99, 1.01) for _ in range(10_000)]

    def test_recording_changes_no_value(self):
        plain = RngRegistry(seed=9).stream("faults/ctl")
        reg = RngRegistry(seed=9)
        rows = []
        reg.set_recorder(lambda *row: rows.append(row))
        watched = reg.stream("faults/ctl")
        a = [plain.random() for _ in range(3 * BLOCK_SIZE)]
        b = [watched.random() for _ in range(3 * BLOCK_SIZE)]
        assert a == b
        assert rows == [("faults/ctl", "random", v) for v in b]

    def test_streams_opened_before_the_recorder_stay_unrecorded(self):
        reg = RngRegistry(seed=1)
        early = reg.stream("early")
        rows = []
        reg.set_recorder(lambda *row: rows.append(row))
        early.random()
        reg.stream("late").random()
        assert [row[0] for row in rows] == ["late"]
