"""Tests for schedule execution: pure, packed, and threaded forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.darray import DistributedArray
from repro.data.decomposition import BlockDecomposition
from repro.data.redistribute import (
    extract_block,
    insert_block,
    pack_sends,
    redistribute_pure,
    redistribute_threaded,
    unpack_recvs,
)
from repro.data.region import RectRegion
from repro.data.schedule import CommSchedule
from repro.vmpi import ThreadWorld


def legacy_redistribute(schedule, src_blocks, dst_blocks):
    """The seed's redistribution loop: the reference for the planned path.

    Every piece is extracted into a contiguous copy and re-inserted,
    with region containment re-validated on both sides of every piece.
    """
    moved = 0
    for item in schedule.items:
        piece = extract_block(src_blocks[item.src_rank], item.region)
        insert_block(dst_blocks[item.dst_rank], item.region, piece)
        moved += item.size
    return moved


def _filled(decomp, fn=lambda i, j: i * 1000 + j):
    blocks = [DistributedArray(decomp, r) for r in range(decomp.nprocs)]
    for b in blocks:
        if not b.region.is_empty:
            b.fill_from(fn)
    return blocks


class TestBlockHelpers:
    def test_extract_is_contiguous_copy(self):
        d = BlockDecomposition((8, 8), (1, 1))
        (b,) = _filled(d)
        region = RectRegion((2, 3), (4, 6))
        piece = extract_block(b, region)
        assert piece.flags["C_CONTIGUOUS"]
        piece[0, 0] = -1  # must not alias the source
        assert b.read_global(region)[0, 0] != -1

    def test_insert(self):
        d = BlockDecomposition((4, 4), (1, 1))
        (b,) = _filled(d, lambda i, j: 0.0)
        insert_block(b, RectRegion((1, 1), (3, 3)), np.full((2, 2), 5.0))
        assert b.local[1, 1] == 5.0
        assert b.local[0, 0] == 0.0


class TestPureRedistribution:
    @pytest.mark.parametrize(
        "src_grid,dst_grid",
        [((2, 2), (4, 1)), ((1, 1), (2, 2)), ((4, 1), (1, 4)), ((2, 2), (2, 2))],
    )
    def test_content_preserved(self, src_grid, dst_grid):
        shape = (16, 16)
        src = BlockDecomposition(shape, src_grid)
        dst = BlockDecomposition(shape, dst_grid)
        sched = CommSchedule.build(src, dst)
        s_blocks = _filled(src)
        d_blocks = [DistributedArray(dst, r) for r in range(dst.nprocs)]
        moved = redistribute_pure(sched, s_blocks, d_blocks)
        assert moved == 16 * 16
        np.testing.assert_array_equal(
            DistributedArray.assemble(s_blocks), DistributedArray.assemble(d_blocks)
        )

    def test_wrong_block_count_rejected(self):
        src = BlockDecomposition((4, 4), (2, 1))
        sched = CommSchedule.build(src, src)
        blocks = _filled(src)
        with pytest.raises(ValueError):
            redistribute_pure(sched, blocks[:1], blocks)

    @given(
        src_grid=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        dst_grid=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_grid_pair(self, src_grid, dst_grid):
        shape = (9, 7)
        src = BlockDecomposition(shape, src_grid)
        dst = BlockDecomposition(shape, dst_grid)
        sched = CommSchedule.build(src, dst)
        s_blocks = _filled(src)
        d_blocks = [DistributedArray(dst, r) for r in range(dst.nprocs)]
        redistribute_pure(sched, s_blocks, d_blocks)
        np.testing.assert_array_equal(
            DistributedArray.assemble(s_blocks), DistributedArray.assemble(d_blocks)
        )


class TestLegacyRedistributeFidelity:
    def test_matches_optimized_path(self):
        shape = (40, 40)
        src_d = BlockDecomposition(shape, (4, 1))
        dst_d = BlockDecomposition(shape, (1, 4))
        sched = CommSchedule.build_cached(src_d, dst_d, RectRegion((0, 0), shape))
        src = _filled(src_d)
        dst_a = [DistributedArray(dst_d, r) for r in range(4)]
        dst_b = [DistributedArray(dst_d, r) for r in range(4)]
        moved_a = legacy_redistribute(sched, src, dst_a)
        moved_b = redistribute_pure(sched, src, dst_b)
        assert moved_a == moved_b
        for a, b in zip(dst_a, dst_b):
            np.testing.assert_array_equal(a.local, b.local)


class TestPackUnpack:
    def test_pack_then_unpack_equals_pure(self):
        shape = (12, 12)
        src = BlockDecomposition(shape, (2, 2))
        dst = BlockDecomposition(shape, (3, 1))
        sched = CommSchedule.build(src, dst)
        s_blocks = _filled(src)
        d_blocks = [DistributedArray(dst, r) for r in range(dst.nprocs)]
        inboxes = {d: [] for d in range(dst.nprocs)}
        for s in range(src.nprocs):
            for dst_rank, region, data in pack_sends(sched, s, s_blocks[s]):
                inboxes[dst_rank].append((region, data))
        for d in range(dst.nprocs):
            unpack_recvs(sched, d, d_blocks[d], inboxes[d])
        np.testing.assert_array_equal(
            DistributedArray.assemble(s_blocks), DistributedArray.assemble(d_blocks)
        )

    def test_unpack_detects_missing_piece(self):
        shape = (8, 8)
        src = BlockDecomposition(shape, (2, 1))
        dst = BlockDecomposition(shape, (1, 2))
        sched = CommSchedule.build(src, dst)
        d_block = DistributedArray(dst, 0)
        with pytest.raises(ValueError, match="received pieces"):
            unpack_recvs(sched, 0, d_block, [])


class TestThreadedRedistribution:
    def test_over_merged_communicator(self):
        shape = (8, 8)
        src = BlockDecomposition(shape, (2, 1))
        dst = BlockDecomposition(shape, (1, 2))
        sched = CommSchedule.build(src, dst)
        world = ThreadWorld(default_timeout=10.0)
        world.create_program("merged", src.nprocs + dst.nprocs)
        collected = {}

        def main(comm):
            if comm.rank < src.nprocs:
                arr = DistributedArray(src, comm.rank)
                arr.fill_from(lambda i, j: i * 10 + j)
                return redistribute_threaded(sched, comm, "src", arr)
            arr = DistributedArray(dst, comm.rank - src.nprocs)
            n = redistribute_threaded(sched, comm, "dst", arr)
            collected[comm.rank - src.nprocs] = arr
            return n

        results = world.run_program("merged", main)
        assert sum(results[: src.nprocs]) == 64
        assert sum(results[src.nprocs :]) == 64
        full = DistributedArray.assemble([collected[0], collected[1]])
        expected = np.add.outer(np.arange(8) * 10, np.arange(8)).astype(float)
        np.testing.assert_array_equal(full, expected)
