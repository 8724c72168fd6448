"""Differential tests: the sorted sweep backend vs the legacy engine.

The sorted backend's contract is *bit-identical decisions* — every
`MatchResponse` (kind, matched_ts, latest_export_ts) and every outcome
counter must equal the legacy engine's on any request/export stream.
The property tests generate seeded-random streams over all four policy
kinds and assert exactly that, for the scalar path, the batched path
(sorted and shuffled input), interleaved export/request traffic, and
re-asked requests under ``strict_order=False``.  A Hypothesis-driven
differential walks both engines through the same interleaved operations
with batch sizes on either side of the sorted engine's scalar/sweep
dispatch line, and a ``sys.setprofile`` count pins what the batch path
is for: no per-request Python work above that line.
"""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.match.engine import ExportHistory, MatchEngine
from repro.match.policies import MatchPolicy, PolicyKind
from repro.match.result import MatchKind, MatchResponse
from repro.match.sorted_engine import (
    SCALAR_BATCH_MAX,
    BatchResponses,
    SortedMatchEngine,
)

ALL_POLICIES = [
    MatchPolicy(PolicyKind.REGL, 2.5),
    MatchPolicy(PolicyKind.REGL, 0.0),
    MatchPolicy(PolicyKind.REGU, 1.25),
    MatchPolicy(PolicyKind.REG, 0.75),
    MatchPolicy(PolicyKind.EXACT),
]


def _pair(policy, strict_order=True):
    return (
        MatchEngine(policy, strict_order=strict_order),
        SortedMatchEngine(policy, strict_order=strict_order),
    )


def _random_exports(rng, n, lo=0.0, hi=50.0):
    """A strictly increasing export stream with clustered spacings."""
    out, ts = [], lo
    for _ in range(n):
        ts += rng.choice([0.01, 0.1, 0.5, 1.0, 3.0]) * (0.5 + rng.random())
        if ts > hi:
            break
        out.append(round(ts, 6))
    return out


def _counters(engine):
    return (engine.match_count, engine.no_match_count, engine.pending_count)


class TestScalarDifferential:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=str)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_responses_on_random_streams(self, policy, seed):
        rng = random.Random(seed)
        legacy, sorted_eng = _pair(policy)
        for e in _random_exports(rng, 120):
            legacy.record_export(e)
            sorted_eng.record_export(e)
        if rng.random() < 0.5:
            legacy.close_stream()
            sorted_eng.close_stream()
        for _ in range(400):
            t = round(rng.uniform(-2.0, 55.0), 6)
            assert legacy.evaluate(t, record=False) == sorted_eng.evaluate(
                t, record=False
            )
        assert _counters(legacy) == _counters(sorted_eng)

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=str)
    def test_interleaved_exports_and_requests(self, policy):
        rng = random.Random(99)
        legacy, sorted_eng = _pair(policy, strict_order=False)
        export_ts, request_ts = 0.0, 0.0
        for _ in range(300):
            if rng.random() < 0.5:
                export_ts += rng.choice([0.05, 0.4, 1.1])
                legacy.record_export(export_ts)
                sorted_eng.record_export(export_ts)
            else:
                request_ts += rng.choice([0.0, 0.3, 0.9])
                a = legacy.evaluate(request_ts, record=True)
                b = sorted_eng.evaluate(request_ts, record=True)
                assert a == b
        legacy.close_stream()
        sorted_eng.close_stream()
        t = request_ts + 1.0
        assert legacy.evaluate(t) == sorted_eng.evaluate(t)
        assert _counters(legacy) == _counters(sorted_eng)
        assert legacy.last_request_ts == sorted_eng.last_request_ts


class TestBatchDifferential:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=str)
    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_batch_matches_legacy_loop(self, policy, seed, shuffled):
        rng = random.Random(seed)
        legacy, sorted_eng = _pair(policy, strict_order=False)
        for e in _random_exports(rng, 150):
            legacy.record_export(e)
            sorted_eng.record_export(e)
        batch = [round(rng.uniform(-1.0, 60.0), 6) for _ in range(500)]
        if not shuffled:
            batch.sort()
        assert legacy.evaluate_batch(batch) == sorted_eng.evaluate_batch(batch)
        assert _counters(legacy) == _counters(sorted_eng)

    def test_batch_against_scalar_reference(self):
        # The sorted batch path must agree with its own scalar path too.
        policy = MatchPolicy(PolicyKind.REG, 0.6)
        rng = random.Random(7)
        eng = SortedMatchEngine(policy, strict_order=False)
        ref = SortedMatchEngine(policy, history=eng.history, strict_order=False)
        for e in _random_exports(rng, 80):
            eng.record_export(e)
        batch = sorted(round(rng.uniform(0.0, 55.0), 6) for _ in range(200))
        assert eng.evaluate_batch(batch) == [
            ref.evaluate(t, record=False) for t in batch
        ]

    def test_empty_batch(self):
        legacy, sorted_eng = _pair(MatchPolicy(PolicyKind.REGL, 1.0))
        assert sorted_eng.evaluate_batch([]) == legacy.evaluate_batch([]) == []

    def test_batch_with_empty_history_open_and_closed(self):
        for closed in (False, True):
            legacy, sorted_eng = _pair(MatchPolicy(PolicyKind.REGL, 1.0))
            if closed:
                legacy.close_stream()
                sorted_eng.close_stream()
            batch = [1.0, 2.0, 3.0]
            got = sorted_eng.evaluate_batch(batch)
            assert got == legacy.evaluate_batch(batch)
            want = MatchKind.NO_MATCH if closed else MatchKind.PENDING
            assert all(r.kind is want for r in got)

    def test_batch_record_true_checks_order(self):
        eng = SortedMatchEngine(MatchPolicy(PolicyKind.REGL, 1.0))
        eng.record_export(10.0)
        eng.evaluate_batch([1.0, 2.0, 3.0], record=True)
        assert eng.last_request_ts == 3.0
        with pytest.raises(ValueError, match="must increase"):
            eng.evaluate_batch([2.5], record=True)


class TestTieBreaking:
    def test_reg_tie_resolves_to_lower_timestamp(self):
        policy = MatchPolicy(PolicyKind.REG, 2.0)
        legacy, sorted_eng = _pair(policy)
        for e in (9.0, 11.0):
            legacy.record_export(e)
            sorted_eng.record_export(e)
        a = legacy.evaluate(10.0)
        b = sorted_eng.evaluate(10.0)
        assert a == b
        assert b.matched_ts == 9.0  # equidistant: lower wins

    def test_exact_hit_and_miss(self):
        legacy, sorted_eng = _pair(MatchPolicy(PolicyKind.EXACT))
        for e in (1.5, 2.5):
            legacy.record_export(e)
            sorted_eng.record_export(e)
        assert sorted_eng.evaluate(2.0) == legacy.evaluate(2.0)  # miss
        assert sorted_eng.evaluate(2.5) == legacy.evaluate(2.5)  # hit
        assert sorted_eng.match_count == 1 and sorted_eng.no_match_count == 1

    def test_float_boundaries_bit_identical(self):
        # t + (-d) must equal t - d exactly for region edges to agree.
        policy = MatchPolicy(PolicyKind.REGL, 0.1)
        legacy, sorted_eng = _pair(policy, strict_order=False)
        t = 0.30000000000000004  # 0.1 + 0.2: a classic non-representable edge
        for e in (t - 0.1, t):
            legacy.record_export(e)
            sorted_eng.record_export(e)
        assert sorted_eng.evaluate(t, record=False) == legacy.evaluate(
            t, record=False
        )


class TestReaskRelaxedOrder:
    """Regression: retransmits re-ask at/below the high-water mark."""

    def test_reask_below_mark_is_idempotent(self):
        policy = MatchPolicy(PolicyKind.REGL, 2.5)
        legacy, sorted_eng = _pair(policy, strict_order=False)
        for e in (1.6, 2.6, 3.6, 20.1):
            legacy.record_export(e)
            sorted_eng.record_export(e)
        for t in (4.0, 20.0, 4.0, 20.0, 2.0):  # re-asks at/below the mark
            a = legacy.evaluate(t, record=True)
            b = sorted_eng.evaluate(t, record=True)
            assert a == b
        assert legacy.last_request_ts == sorted_eng.last_request_ts == 20.0

    def test_strict_mode_rejects_reask_in_both(self):
        for eng in _pair(MatchPolicy(PolicyKind.REGL, 1.0), strict_order=True):
            eng.evaluate(5.0)
            with pytest.raises(ValueError, match="must increase"):
                eng.evaluate(5.0)

    def test_pending_then_resolution_after_stream_advances(self):
        policy = MatchPolicy(PolicyKind.REGL, 1.0)
        legacy, sorted_eng = _pair(policy, strict_order=False)
        for e in (1.0, 2.0):
            legacy.record_export(e)
            sorted_eng.record_export(e)
        a = legacy.evaluate(5.0)
        b = sorted_eng.evaluate(5.0)
        assert a == b and a.kind is MatchKind.PENDING
        for e in (4.5, 6.0):
            legacy.record_export(e)
            sorted_eng.record_export(e)
        a = legacy.evaluate(5.0, record=False)
        b = sorted_eng.evaluate(5.0, record=False)
        assert a == b and a.kind is MatchKind.MATCH and a.matched_ts == 4.5


class TestEngineSurface:
    def test_shared_history_between_backends(self):
        # A region shares one history across connections; a sorted and
        # a legacy engine on the same history must agree.
        hist = ExportHistory()
        legacy = MatchEngine(MatchPolicy(PolicyKind.REGL, 1.0), history=hist)
        sorted_eng = SortedMatchEngine(
            MatchPolicy(PolicyKind.REGU, 1.0), history=hist
        )
        hist.add(1.0)
        hist.add(2.5)
        assert legacy.history is sorted_eng.history
        assert sorted_eng.evaluate(2.0).matched_ts == 2.5  # REGU looks up
        assert legacy.evaluate(2.0).matched_ts == 1.0  # REGL looks down

    def test_backend_names(self):
        legacy, sorted_eng = _pair(MatchPolicy(PolicyKind.EXACT))
        assert legacy.backend_name == "legacy"
        assert sorted_eng.backend_name == "sorted"

    def test_responses_carry_python_floats(self):
        # np.float64 leaking out would break JSON serialization of
        # goldens and reports.
        _, sorted_eng = _pair(MatchPolicy(PolicyKind.REGL, 1.0))
        sorted_eng.record_export(1.5)
        r = sorted_eng.evaluate(1.5)
        assert r.kind is MatchKind.MATCH
        assert type(r.matched_ts) is float
        assert type(r.latest_export_ts) is float
        sorted_eng.record_export(3.0)
        (batch_r,) = sorted_eng.evaluate_batch([2.1], record=True)
        assert batch_r.kind is MatchKind.MATCH
        assert type(batch_r.matched_ts) is float
        assert type(batch_r.request_ts) is float

    def test_history_replace_and_view(self):
        h = ExportHistory()
        h.replace([1.0, 2.0, 3.0], closed=True)
        assert h.all_timestamps() == [1.0, 2.0, 3.0]
        assert h.closed and h.latest == 3.0 and len(h) == 3
        v = h.view()
        assert not v.flags.writeable
        with pytest.raises(ValueError, match="must increase"):
            h.replace([1.0, 1.0])

    def test_history_replace_empty(self):
        h = ExportHistory()
        h.add(5.0)
        h.replace([])
        assert len(h) == 0 and h.latest == -math.inf and not h.closed
        h.add(1.0)  # still usable after a bulk load
        assert h.latest == 1.0


# -- differential across the dispatch line ---------------------------------

#: Timestamps live on a grid so that a request equal to an export, one
#: exactly on a region edge (``t - tol == export``) and one equidistant
#: between two exports (the REG tie) all turn up constantly; the 0.1
#: grid adds the non-representable sums where ``t + (-d)`` must still
#: equal ``t - d`` bit for bit.
_UNITS = (0.125, 0.1)
_BATCH_SIZES = (0, 1, SCALAR_BATCH_MAX - 1, SCALAR_BATCH_MAX, SCALAR_BATCH_MAX + 1, 300)

_policies = st.one_of(
    st.builds(
        MatchPolicy,
        st.sampled_from([PolicyKind.REGL, PolicyKind.REGU, PolicyKind.REG]),
        st.sampled_from([0.0, 1.0, 2.0, 5.0, 12.0]),  # in grid units, scaled below
    ),
    st.just(MatchPolicy(PolicyKind.EXACT)),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("export"), st.integers(1, 12)),
        st.tuples(st.just("evaluate"), st.booleans()),
        st.tuples(
            st.just("batch"),
            st.sampled_from(_BATCH_SIZES),
            st.sampled_from(["sorted", "shuffled", "duplicated"]),
            st.booleans(),  # as ndarray
            st.booleans(),  # record
        ),
    ),
    min_size=1,
    max_size=25,
)


def _draw_request(rng, exports, unit, tol):
    """One request: mostly on the grid, often a constructed edge case."""
    roll = rng.random()
    if roll < 0.04:
        return rng.choice([math.inf, -math.inf])
    if exports and roll < 0.5:
        i = rng.randrange(len(exports))
        e = exports[i]
        nxt = exports[min(i + 1, len(exports) - 1)]
        return rng.choice([e, e + tol, e - tol, (e + nxt) / 2, e + unit, e - unit])
    top = int(exports[-1] / unit) if exports else 0
    return rng.randint(-8, top + 24) * unit


class TestDifferentialAcrossDispatchLine:
    @settings(max_examples=60)
    @given(
        policy=_policies,
        unit=st.sampled_from(_UNITS),
        strict_order=st.booleans(),
        close_at_end=st.booleans(),
        ops=_ops,
        rng=st.randoms(use_true_random=False),
    )
    def test_same_responses_counters_and_mark_after_every_step(
        self, policy, unit, strict_order, close_at_end, ops, rng
    ):
        policy = MatchPolicy(policy.kind, policy.tolerance * unit)
        legacy, sorted_eng = _pair(policy, strict_order=strict_order)
        exports: list[float] = []

        def check(a, b):
            assert a == b  # list == list, or list == BatchResponses (reflected)
            assert list(b) == a and len(b) == len(a)
            assert _counters(legacy) == _counters(sorted_eng)
            assert legacy.last_request_ts == sorted_eng.last_request_ts

        def requests(n, arrangement, record):
            if record and strict_order:
                # Recording in strict mode must climb from the mark.
                t = max(legacy.last_request_ts, -1.0)
                out = []
                for _ in range(n):
                    t += rng.randint(1, 6) * unit
                    out.append(t)
                return out
            out = [_draw_request(rng, exports, unit, policy.tolerance) for _ in range(n)]
            if arrangement == "sorted":
                out.sort()
            elif arrangement == "duplicated" and out:
                out = [rng.choice(out) for _ in out]
            return out

        if close_at_end:
            ops = [*ops, ("close",), ("batch", 300, "shuffled", True, False),
                   ("batch", 1, "sorted", False, False), ("evaluate", False)]
        for op in ops:
            if op[0] == "export":
                ts = (exports[-1] if exports else 0.0) + op[1] * unit
                exports.append(ts)
                legacy.record_export(ts)
                sorted_eng.record_export(ts)
            elif op[0] == "close":
                legacy.close_stream()
                sorted_eng.close_stream()
            elif legacy.last_request_ts == math.inf and strict_order and op[-1]:
                continue  # nothing can be recorded above +inf
            elif op[0] == "evaluate":
                (t,) = requests(1, "sorted", op[1])
                check(
                    [legacy.evaluate(t, record=op[1])],
                    [sorted_eng.evaluate(t, record=op[1])],
                )
            else:
                _, n, arrangement, as_array, record = op
                batch = requests(n, arrangement, record)
                given_batch = np.array(batch, dtype=np.float64) if as_array else batch
                got = sorted_eng.evaluate_batch(given_batch, record=record)
                assert isinstance(got, BatchResponses) == (n > SCALAR_BATCH_MAX)
                check(legacy.evaluate_batch(batch, record=record), got)

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=str)
    def test_every_batch_size_around_the_line(self, policy):
        # Deterministic companion: one fixed stream, every size from 0
        # to well past the line, so a wrong comparison in the dispatch
        # (< for <=) cannot hide behind example selection.
        rng = random.Random(17)
        legacy, sorted_eng = _pair(policy, strict_order=False)
        for e in _random_exports(rng, 60):
            legacy.record_export(e)
            sorted_eng.record_export(e)
        for n in range(0, 2 * SCALAR_BATCH_MAX + 3):
            batch = [round(rng.uniform(-1.0, 40.0), 6) for _ in range(n)]
            got = sorted_eng.evaluate_batch(batch)
            assert isinstance(got, BatchResponses) == (n > SCALAR_BATCH_MAX)
            assert legacy.evaluate_batch(batch) == got
            assert _counters(legacy) == _counters(sorted_eng)


class TestBatchResponsesSequence:
    """The swept result behaves as the list the reference returns."""

    @pytest.fixture()
    def pair(self):
        rng = random.Random(5)
        legacy, sorted_eng = _pair(MatchPolicy(PolicyKind.REG, 0.75), strict_order=False)
        for e in _random_exports(rng, 40):
            legacy.record_export(e)
            sorted_eng.record_export(e)
        batch = [round(rng.uniform(-1.0, 60.0), 6) for _ in range(50)]
        want = legacy.evaluate_batch(batch)
        got = sorted_eng.evaluate_batch(np.array(batch))
        assert isinstance(got, BatchResponses)
        assert {r.kind for r in want} == set(MatchKind)  # all three outcomes present
        return want, got

    def test_len_index_negative_index_and_slices(self, pair):
        want, got = pair
        assert len(got) == len(want) == 50
        for i in (0, 7, 49, -1, -50, np.int64(3)):
            assert got[i] == want[i]
            assert isinstance(got[i], MatchResponse)
        for sl in (slice(3, 10), slice(None, None, -1), slice(40, 400), slice(5, 5)):
            assert isinstance(got[sl], BatchResponses)
            assert got[sl] == want[sl]
        for bad in (50, -51):
            with pytest.raises(IndexError):
                got[bad]

    def test_iterates_twice_and_compares_with_any_sequence(self, pair):
        want, got = pair
        assert list(got) == list(got) == want
        assert got == want and want == got and got == tuple(want) and got == got[:]
        assert not (got != want)
        assert got != want[:-1] and got != want[::-1] and got != 7
        assert want[3] in got and got.index(want[3]) == want.index(want[3])
        with pytest.raises(TypeError):
            hash(got)

    def test_elements_are_plain_validated_responses(self, pair):
        _, got = pair
        for r in got:
            assert type(r.request_ts) is float and type(r.latest_export_ts) is float
            assert (r.matched_ts is not None) == (r.kind is MatchKind.MATCH)
            assert r.matched_ts is None or type(r.matched_ts) is float
            assert r == MatchResponse(r.request_ts, r.kind, r.matched_ts, r.latest_export_ts)

    def test_arrays_are_public_and_read_only(self, pair):
        want, got = pair
        assert got.request_ts.dtype == got.matched_ts.dtype == np.float64
        assert got.kinds.dtype == np.int8
        assert got.request_ts.tolist() == [r.request_ts for r in want]
        assert [(k == 2) for k in got.kinds.tolist()] == [
            r.kind is MatchKind.MATCH for r in want
        ]
        assert np.isnan(got.matched_ts[got.kinds != 2]).all()
        for arr in (got.request_ts, got.kinds, got.matched_ts, got[2:9].kinds):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        with pytest.raises(AttributeError):
            got.kinds = None  # type: ignore[misc]

    @pytest.mark.parametrize("n", [SCALAR_BATCH_MAX, 5 * SCALAR_BATCH_MAX])
    def test_a_generator_is_accepted_as_by_the_reference(self, n):
        legacy, sorted_eng = _pair(MatchPolicy(PolicyKind.REGU, 0.5), strict_order=False)
        for e in (1.0, 2.5, 4.0):
            legacy.record_export(e)
            sorted_eng.record_export(e)
        want = legacy.evaluate_batch(0.25 * k for k in range(n))
        assert sorted_eng.evaluate_batch(0.25 * k for k in range(n)) == want
        assert len(want) == n and _counters(legacy) == _counters(sorted_eng)

    def test_input_array_is_not_aliased_or_frozen(self):
        eng = SortedMatchEngine(MatchPolicy(PolicyKind.REGL, 1.0))
        eng.record_export(5.0)
        asked = np.arange(20, dtype=np.float64)
        got = eng.evaluate_batch(asked)
        asked[0] = 99.0  # the caller's array stays theirs
        assert got[0].request_ts == 0.0


# -- deterministic cost guard -------------------------------------------------


def _calls(fn):
    """Python-level calls made while *fn* runs (exact, untimed)."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return count


class TestMatchPathCost:
    """What the array-in/array-out path is for, as exact call counts."""

    def _engine(self, n_exports):
        eng = SortedMatchEngine(MatchPolicy(PolicyKind.REGL, 0.25), strict_order=False)
        rng = np.random.default_rng(2)
        exports = np.cumsum(rng.uniform(0.5, 1.5, n_exports))
        eng.history.replace(exports)
        return eng, rng, float(exports[-1])

    def test_swept_batch_does_no_per_request_python_work(self):
        eng, rng, top = self._engine(5_000)
        small = np.sort(rng.uniform(0.0, top * 1.05, 2_000))
        large = np.sort(rng.uniform(0.0, top * 1.05, 20_000))
        counts = [
            _calls(lambda: eng.evaluate_batch(batch)) for batch in (small, large, small)
        ]
        # 19 here (the eager result this replaced: 2 049 and 20 049).
        assert counts[0] == counts[1] == counts[2] < 40
        # ...and a caller that reads k elements pays for k, not for n.
        got = eng.evaluate_batch(large)
        assert _calls(lambda: [got[i] for i in range(0, 20_000, 2_000)]) < 30

    def test_scalar_evaluate_call_ceiling(self):
        eng, rng, top = self._engine(500)
        asks = rng.uniform(0.0, top * 1.05, 1_000).tolist()

        def run():
            for t in asks:
                eng.evaluate(t, record=True)

        per_call = _calls(run) / len(asks)
        assert per_call == _calls(run) / len(asks)  # repeats exactly
        # 5.0 now: evaluate, the order check, two history reads and the
        # response; the three-bisection form this replaced made 22.4.
        assert per_call < 5.5
