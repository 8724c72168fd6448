"""``ExportHistory`` against a plain-list model, on both match backends.

The history keeps its timestamps as one append-only list and derives
the sweep's ``float64`` array from it: :meth:`~ExportHistory.view`
copies only the tail added since its last call, :meth:`~ExportHistory.
replace` loads the array and leaves the list to the first scalar query,
and :meth:`~ExportHistory.copy` carries the list and drops the array.
Hypothesis interleaves every operation that touches either
representation over several histories (copies included) and, after
each step, checks every history against its model — a list, a closed
flag and the definition of a match — and against the NumPy
``searchsorted`` bounds the history used to be built on.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.match.engine import ExportHistory, MatchEngine
from repro.match.policies import MatchPolicy, PolicyKind
from repro.match.result import MatchKind
from repro.match.sorted_engine import SCALAR_BATCH_MAX, SortedMatchEngine
from repro.util.validation import ValidationError

NAN = float("nan")
UNIT = 0.25

POLICIES = [
    MatchPolicy(PolicyKind.REGL, 2 * UNIT),
    MatchPolicy(PolicyKind.REGU, 3 * UNIT),
    MatchPolicy(PolicyKind.REG, 2 * UNIT),
    MatchPolicy(PolicyKind.EXACT),
]


class World:
    """One history and what it should hold."""

    def __init__(self, history, model, closed):
        self.history = history
        self.model = model
        self.closed = closed

    def engines(self, policy):
        return (
            MatchEngine(policy, history=self.history, strict_order=False),
            SortedMatchEngine(policy, history=self.history, strict_order=False),
        )

    def expected(self, policy, t):
        """(kind, matched) of *t* by the definition, from the model alone."""
        latest = self.model[-1] if self.model else -math.inf
        if not (latest >= t or self.closed):
            return MatchKind.PENDING, None
        low, high = policy.region(t)
        best = policy.select_best([x for x in self.model if low <= x <= high], t)
        return (MatchKind.NO_MATCH, None) if best is None else (MatchKind.MATCH, best)

    def check(self):
        h = self.history
        assert len(h) == len(self.model)
        assert h.latest == (self.model[-1] if self.model else -math.inf)
        assert h.closed == self.closed
        assert h.all_timestamps() == self.model


def numpy_interval(model, low, high):
    """``in_interval`` as the NumPy-backed history computed it."""
    arr = np.array(model, dtype=np.float64)
    i = int(np.searchsorted(arr, low, side="left"))
    j = int(np.searchsorted(arr, high, side="right"))
    return arr[i:j].tolist()


_value = st.one_of(
    st.integers(-4, 12).map(lambda k: k * UNIT),  # a step from the newest
    st.sampled_from([NAN, math.inf, -math.inf]),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 2), _value),
        st.tuples(
            st.just("replace"),
            st.integers(0, 2),
            st.lists(st.integers(1, 6), max_size=30),
            st.sampled_from(["ok", "nan", "repeat"]),
            st.booleans(),
        ),
        st.tuples(st.just("close"), st.integers(0, 2)),
        st.tuples(st.just("view"), st.integers(0, 2)),
        st.tuples(st.just("copy"), st.integers(0, 2)),
        st.tuples(st.just("evaluate"), st.integers(0, 2), st.sampled_from(POLICIES), _value),
        st.tuples(
            st.just("batch"),
            st.integers(0, 2),
            st.sampled_from(POLICIES),
            st.sampled_from([1, SCALAR_BATCH_MAX, SCALAR_BATCH_MAX + 1, 4 * SCALAR_BATCH_MAX]),
            st.randoms(use_true_random=False),
        ),
        st.tuples(st.just("interval"), st.integers(0, 2), _value, _value),
    ),
    min_size=1,
    max_size=40,
)


def _request(world, offset):
    """A request near the newest export (or a NaN/inf one)."""
    if offset != offset or math.isinf(offset):
        return offset
    base = world.model[len(world.model) // 2] if world.model else 0.0
    return base + offset


def _add(world, value):
    h, model = world.history, world.model
    finite = value == value and not math.isinf(value)
    ts = model[-1] + value if model and finite else value
    if world.closed:
        with pytest.raises(ValidationError, match="closed"):
            h.add(ts)
    elif ts != ts:
        with pytest.raises(ValidationError, match="NaN.*nan"):
            h.add(ts)
    elif model and not ts > model[-1]:
        with pytest.raises(ValidationError, match="must increase"):
            h.add(ts)
    else:
        h.add(ts)
        model.append(ts)


def _replace(world, steps, flavour, closed):
    stamps = [float(x) * UNIT for x in np.cumsum(steps)] if steps else []
    if flavour == "nan" and stamps:
        stamps[len(stamps) // 2] = NAN
    elif flavour == "repeat" and len(stamps) > 1:
        stamps[-1] = stamps[-2]
    else:
        flavour = "ok"
    if flavour == "ok":
        world.history.replace(stamps, closed=closed)
        world.model[:] = stamps
        world.closed = closed
        return
    with pytest.raises(ValidationError, match="NaN" if flavour == "nan" else "must increase"):
        world.history.replace(stamps, closed=closed)


def _evaluate(world, policy, value):
    t = _request(world, value)
    kind, matched = world.expected(policy, t)
    for engine in world.engines(policy):
        r = engine.evaluate(t, record=False)
        assert (r.kind, r.matched_ts) == (kind, matched), (engine.backend_name, t)
        assert type(r.latest_export_ts) is float
        assert r.latest_export_ts == world.history.latest


def _batch(world, policy, n, rng):
    asks = [_request(world, rng.randint(-6, 10) * UNIT) for _ in range(n)]
    if rng.random() < 0.3:
        asks[rng.randrange(n)] = NAN
    want = [world.expected(policy, t) for t in asks]
    for engine in world.engines(policy):
        got = engine.evaluate_batch(asks)
        assert [(r.kind, r.matched_ts) for r in got] == want, engine.backend_name
        counts = [engine.match_count, engine.no_match_count, engine.pending_count]
        assert counts == [
            sum(k is kind for k, _ in want)
            for kind in (MatchKind.MATCH, MatchKind.NO_MATCH, MatchKind.PENDING)
        ]


def _interval(world, a, b):
    low, high = sorted((_request(world, a), _request(world, b)), key=lambda x: (x != x, x))
    got = world.history.in_interval(low, high)
    assert got == numpy_interval(world.model, low, high)
    if low == low and high == high:
        assert got == [x for x in world.model if low <= x <= high]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in the sweep
@settings(max_examples=150, deadline=None)
@given(ops=_ops)
def test_history_matches_the_list_model(ops):
    worlds = [World(ExportHistory(), [], False)]
    for op in ops:
        world = worlds[op[1] % len(worlds)]
        kind = op[0]
        if kind == "add":
            _add(world, op[2])
        elif kind == "replace":
            _replace(world, *op[2:])
        elif kind == "close":
            world.history.close()
            world.closed = True
        elif kind == "view":
            v = world.history.view()
            assert v.dtype == np.float64 and v.tolist() == world.model
            assert not v.flags.writeable
            if v.size:
                with pytest.raises(ValueError, match="read-only"):
                    v[0] = 0.0
        elif kind == "copy":
            new = world.history.copy()
            assert type(new) is ExportHistory and new is not world.history
            worlds.append(World(new, list(world.model), world.closed))
        elif kind == "evaluate":
            _evaluate(world, op[2], op[3])
        elif kind == "batch":
            _batch(world, *op[2:])
        else:
            _interval(world, op[2], op[3])
        for w in worlds:
            w.check()


@pytest.mark.parametrize("n", [1, 4 * SCALAR_BATCH_MAX])
@pytest.mark.parametrize("loaded", [False, True])
def test_nan_request_on_a_closed_stream_is_no_match_on_both_paths(n, loaded):
    h = ExportHistory()
    if loaded:
        h.replace([1.0, 2.0, 3.0], closed=True)
    else:
        for ts in (1.0, 2.0, 3.0):
            h.add(ts)
        h.close()
    for policy in POLICIES:
        for engine in (MatchEngine(policy, history=h), SortedMatchEngine(policy, history=h)):
            got = engine.evaluate_batch([NAN] * n) if n > 1 else [engine.evaluate(NAN, record=False)]
            assert [r.kind for r in got] == [MatchKind.NO_MATCH] * n


def test_copy_and_original_are_independent_after_view():
    h = ExportHistory()
    for ts in (1.0, 2.0, 3.0):
        h.add(ts)
    h.view()  # the original has an array cache; the copy must not share it
    c = h.copy()
    h.add(4.0)
    c.add(5.0)
    for _ in range(2):  # each side's tail sync must leave the other's alone
        assert c.view().tolist() == [1.0, 2.0, 3.0, 5.0]
        assert h.view().tolist() == [1.0, 2.0, 3.0, 4.0]
    c.close()
    assert not h.closed


def test_replace_then_add_keeps_the_loaded_prefix():
    h = ExportHistory()
    h.replace(np.arange(1.0, 40.0))
    assert h.view().tolist() == list(np.arange(1.0, 40.0))
    h.add(50.0)
    assert h.view().tolist()[-2:] == [39.0, 50.0] and len(h) == 40
