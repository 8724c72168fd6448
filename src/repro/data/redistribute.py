"""Executing MxN communication schedules.

Three execution styles:

* :func:`redistribute_pure` — in-memory, no runtime: used by tests and
  by the coupling framework when exporter buffers are already resident
  at the destination process of the simulation host.
* :func:`redistribute_threaded` — over ``vmpi`` thread communicators
  (an intercommunicator is emulated with a flat address list).
* DES execution lives in the coupling core, where transfer cost is
  charged to the virtual clock together with buffering cost.

The block extract/insert helpers are shared by all three.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.darray import DistributedArray
from repro.data.region import RectRegion
from repro.data.schedule import CommSchedule
from repro.util.validation import ValidationError, require


def extract_block(array: DistributedArray, region: RectRegion) -> np.ndarray:
    """Contiguous copy of *region* out of a rank's distributed block.

    The copy is deliberate: it models the pack/memcpy the paper charges
    for, and decouples the wire payload from the live array.
    """
    return array.read_global(region)


def insert_block(
    array: DistributedArray, region: RectRegion, values: np.ndarray
) -> None:
    """Write a received piece into a rank's distributed block."""
    array.write_global(region, values)


def redistribute_pure(
    schedule: CommSchedule,
    src_blocks: Sequence[DistributedArray],
    dst_blocks: Sequence[DistributedArray],
) -> int:
    """Execute *schedule* directly between in-memory blocks.

    Returns the number of elements moved.  Reference semantics: every
    backend-specific executor must produce the same destination
    contents (asserted by the integration tests).

    The hot path is zero-copy: slice tuples come precomputed from the
    schedule's memoized :meth:`~repro.data.schedule.CommSchedule.execution_plan`
    and each piece moves as one direct ``dst[sl] = src[sl]`` block
    assignment — no intermediate contiguous copy, no per-piece
    containment re-validation.  When a source and destination block may
    alias (redistributing an array onto itself), the affected piece
    falls back to the copy-then-insert reference path.
    """
    require(len(src_blocks) == schedule.src_nprocs, "wrong number of source blocks")
    require(len(dst_blocks) == schedule.dst_nprocs, "wrong number of destination blocks")
    plan = schedule.execution_plan(
        [b.region.lo for b in src_blocks],
        [b.region.lo for b in dst_blocks],
    )
    src_locals = [b.local for b in src_blocks]
    dst_locals = [b.local for b in dst_blocks]
    moved = 0
    for t in plan:
        src = src_locals[t.src_rank]
        dst = dst_locals[t.dst_rank]
        if np.may_share_memory(src, dst):
            dst[t.dst_slices] = np.ascontiguousarray(src[t.src_slices])
        else:
            dst[t.dst_slices] = src[t.src_slices]
        moved += t.size
    return moved


def pack_sends(
    schedule: CommSchedule,
    src_rank: int,
    array: DistributedArray,
) -> list[tuple[int, RectRegion, np.ndarray]]:
    """Pack every outgoing piece of *src_rank* as ``(dst, region, data)``."""
    return [
        (item.dst_rank, item.region, extract_block(array, item.region))
        for item in schedule.sends_for(src_rank)
    ]


def unpack_recvs(
    schedule: CommSchedule,
    dst_rank: int,
    array: DistributedArray,
    pieces: Sequence[tuple[RectRegion, np.ndarray]],
) -> int:
    """Insert received ``(region, data)`` pieces into *dst_rank*'s block.

    Returns elements written.  Validates that exactly the scheduled
    pieces arrived — a schedule/transport mismatch is a protocol bug
    and must not pass silently.
    """
    expected = {item.region for item in schedule.recvs_for(dst_rank)}
    got = {region for region, _ in pieces}
    if got != expected:
        raise ValidationError(
            f"rank {dst_rank} received pieces {sorted(map(str, got))}, "
            f"expected {sorted(map(str, expected))}"
        )
    written = 0
    for region, data in pieces:
        insert_block(array, region, data)
        written += region.size
    return written


def redistribute_threaded(
    schedule: CommSchedule,
    comm: "object",
    role: str,
    array: DistributedArray,
    peer_base_tag: int = 7000,
) -> int:
    """Execute *schedule* over a :class:`~repro.vmpi.thread_backend.ThreadCommunicator`.

    The two programs must share one communicator whose ranks are laid
    out as ``[src_0..src_{M-1}, dst_0..dst_{N-1}]`` (a merged
    intercommunicator).  *role* is ``"src"`` or ``"dst"``; *array* is
    this rank's block on its own side.

    Returns elements sent (src role) or received (dst role).
    """
    require(role in ("src", "dst"), "role must be 'src' or 'dst'")
    if role == "src":
        src_rank = comm.rank  # type: ignore[attr-defined]
        moved = 0
        for dst, region, data in pack_sends(schedule, src_rank, array):
            comm.send((region, data), dest=schedule.src_nprocs + dst, tag=peer_base_tag)  # type: ignore[attr-defined]
            moved += region.size
        return moved
    dst_rank = comm.rank - schedule.src_nprocs  # type: ignore[attr-defined]
    expected = schedule.recvs_for(dst_rank)
    pieces = []
    for _ in expected:
        msg = comm.recv(tag=peer_base_tag)  # type: ignore[attr-defined]
        pieces.append(msg.payload)
    return unpack_recvs(schedule, dst_rank, array, pieces)
