"""Tests for BufferManager and the Eq. (1)-(2) ledgers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buffers import BufferManager
from repro.core.exceptions import FrameworkError
from repro.util.validation import ValidationError


class TestBasicLifecycle:
    def test_buffer_then_free(self):
        bm = BufferManager()
        bm.buffer(1.0, nbytes=100, memcpy_cost=0.5)
        assert bm.has(1.0)
        assert bm.live_bytes == 100
        entry = bm.free(1.0)
        assert entry.ts == 1.0
        assert not bm.has(1.0)
        assert bm.live_bytes == 0

    def test_duplicate_timestamp_rejected(self):
        bm = BufferManager()
        bm.buffer(1.0, 10, 0.1)
        with pytest.raises(ValueError, match="already buffered"):
            bm.buffer(1.0, 10, 0.1)

    def test_free_unknown_raises(self):
        with pytest.raises(KeyError):
            BufferManager().free(9.9)

    def test_timestamps_sorted(self):
        bm = BufferManager()
        for ts in (1.0, 2.0, 3.0):
            bm.buffer(ts, 1, 0.0)
        bm.free(2.0)
        bm.buffer(4.0, 1, 0.0)
        assert bm.timestamps() == [1.0, 3.0, 4.0]
        assert bm.oldest() == 1.0
        assert BufferManager().oldest() is None

    def test_out_of_order_timestamp_rejected(self):
        """The ordering contract free_below/attribute_window rely on."""
        bm = BufferManager()
        bm.buffer(1.0, 1, 0.0)
        bm.buffer(3.0, 1, 0.0)
        with pytest.raises(ValidationError, match="increasing order"):
            bm.buffer(2.0, 1, 0.0)
        assert bm.timestamps() == [1.0, 3.0] and bm.buffered_count == 2

    def test_order_contract_survives_freeing(self):
        """'Newest ever buffered', not 'newest live'."""
        bm = BufferManager()
        bm.buffer(5.0, 1, 0.0)
        bm.free(5.0)
        for ts in (5.0, 4.0, float("nan")):
            with pytest.raises(ValidationError, match="increasing order"):
                bm.buffer(ts, 1, 0.0)
        bm.buffer(6.0, 1, 0.0)
        assert bm.timestamps() == [6.0]

    def test_peak_bytes(self):
        bm = BufferManager()
        bm.buffer(1.0, 100, 0.0)
        bm.buffer(2.0, 100, 0.0)
        bm.free(1.0)
        bm.buffer(3.0, 50, 0.0)
        assert bm.peak_bytes == 200
        assert bm.live_bytes == 150

    def test_payload_stored(self):
        bm = BufferManager()
        bm.buffer(1.0, 8, 0.0, payload="data")
        assert bm.get(1.0).payload == "data"


class TestWasteAccounting:
    def test_freed_unsent_counts_as_unnecessary(self):
        bm = BufferManager()
        bm.buffer(1.0, 10, memcpy_cost=0.7)
        bm.free(1.0)
        assert bm.unnecessary_total_time == pytest.approx(0.7)
        assert bm.freed_unsent_count == 1

    def test_sent_objects_are_not_waste(self):
        bm = BufferManager()
        bm.buffer(1.0, 10, memcpy_cost=0.7)
        bm.mark_sent(1.0)
        bm.free(1.0)
        assert bm.unnecessary_total_time == 0.0
        assert bm.sent_count == 1

    def test_eq1_window_ledger(self):
        """T_i = sum of buffering costs of non-match in-region objects."""
        bm = BufferManager()
        # Window 0: three candidates, the last one is the match.
        bm.buffer(17.6, 10, 1.0, window=0)
        bm.buffer(18.6, 10, 1.0, window=0)
        bm.buffer(19.6, 10, 1.0, window=0)
        bm.mark_sent(19.6)
        for ts in (17.6, 18.6, 19.6):
            bm.free(ts)
        assert bm.t_by_window == {0: pytest.approx(2.0)}
        assert bm.t_ub() == pytest.approx(2.0)

    def test_out_of_window_waste_not_in_t_ub(self):
        bm = BufferManager()
        bm.buffer(1.0, 10, 1.0, window=None)
        bm.free(1.0)
        assert bm.unnecessary_total_time == pytest.approx(1.0)
        assert bm.t_ub() == 0.0

    def test_eq2_sums_windows(self):
        bm = BufferManager()
        for w in range(3):
            for k in range(2):
                bm.buffer(10.0 * w + k, 10, 0.5, window=w)
            bm.free(10.0 * w + 0)
            bm.free(10.0 * w + 1)
        assert bm.t_ub() == pytest.approx(3 * 2 * 0.5)
        assert len(bm.t_by_window) == 3

    def test_attribute_window_retroactively(self):
        bm = BufferManager()
        bm.buffer(17.6, 10, 1.0)  # blind buffer before the request
        bm.buffer(19.6, 10, 1.0)
        bm.buffer(25.0, 10, 1.0)
        n = bm.attribute_window(17.5, 20.0, window=4)
        assert n == 2
        bm.free(17.6)
        assert bm.t_by_window == {4: pytest.approx(1.0)}
        # 25.0 was outside the region: freeing it is generic waste.
        bm.free(25.0)
        assert bm.t_ub() == pytest.approx(1.0)

    def test_attribute_window_does_not_overwrite(self):
        bm = BufferManager()
        bm.buffer(5.0, 10, 1.0, window=1)
        assert bm.attribute_window(0.0, 10.0, window=2) == 0
        assert bm.get(5.0).window == 1


class TestFreeBelow:
    def test_frees_strictly_below_threshold(self):
        bm = BufferManager()
        for ts in (1.0, 2.0, 3.0):
            bm.buffer(ts, 1, 0.1)
        freed = bm.free_below(2.0)
        assert [e.ts for e in freed] == [1.0]
        assert bm.timestamps() == [2.0, 3.0]

    def test_keep_set_respected(self):
        bm = BufferManager()
        for ts in (1.0, 2.0, 3.0):
            bm.buffer(ts, 1, 0.1)
        freed = bm.free_below(10.0, keep=[2.0])
        assert [e.ts for e in freed] == [1.0, 3.0]
        assert bm.timestamps() == [2.0]

    def test_free_all(self):
        bm = BufferManager()
        for ts in (1.0, 2.0):
            bm.buffer(ts, 1, 0.1)
        assert len(bm.free_all()) == 2
        assert bm.live_count == 0


class TestCapacity:
    def test_capacity_enforced(self):
        bm = BufferManager(capacity_bytes=150)
        bm.buffer(1.0, 100, 0.0)
        with pytest.raises(FrameworkError, match="capacity exceeded"):
            bm.buffer(2.0, 100, 0.0)

    def test_capacity_freed_space_reusable(self):
        bm = BufferManager(capacity_bytes=150)
        bm.buffer(1.0, 100, 0.0)
        bm.free(1.0)
        bm.buffer(2.0, 100, 0.0)  # fits again
        assert bm.live_bytes == 100


class TestStatsSnapshot:
    def test_snapshot_is_consistent(self):
        bm = BufferManager()
        bm.buffer(1.0, 10, 0.3, window=0)
        bm.buffer(2.0, 20, 0.4)
        bm.mark_sent(2.0)
        bm.free(1.0)
        s = bm.stats()
        assert s.buffered_count == 2
        assert s.sent_count == 1
        assert s.freed_unsent_count == 1
        assert s.live_count == 1
        assert s.live_bytes == 20
        assert s.total_memcpy_time == pytest.approx(0.7)
        assert s.t_ub == pytest.approx(0.3)
        # snapshot is detached from future mutation
        bm.free(2.0)
        assert s.live_count == 1


class TestInvariants:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["buffer", "free_low", "send_then_free"]),
                st.floats(0, 100, allow_nan=False),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_conservation(self, ops):
        """buffered == sent-or-freed-or-live; waste <= total memcpy time."""
        bm = BufferManager()
        next_ts = 0.0
        sent_frees = 0
        for op, val in ops:
            if op == "buffer":
                next_ts += 1.0 + val % 3
                bm.buffer(next_ts, 8, memcpy_cost=0.1)
            elif op == "free_low":
                bm.free_below(val)
            else:
                if bm.live_count:
                    ts = bm.timestamps()[0]
                    bm.mark_sent(ts)
                    bm.free(ts)
                    sent_frees += 1
        total_frees = bm.buffered_count - bm.live_count
        assert total_frees == sent_frees + bm.freed_unsent_count
        assert bm.unnecessary_total_time <= bm.total_memcpy_time + 1e-9
        assert bm.t_ub() <= bm.unnecessary_total_time + 1e-9
