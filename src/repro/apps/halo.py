"""Halo (ghost-cell) exchange over ``vmpi`` communicators.

The distributed wave solver needs each rank's one-cell ghost layer
filled from its grid neighbors before every stencil application.  The
exchange is expressed once, in DES generator style; the threaded
backend can reuse the same wire pattern through
:func:`halo_exchange_blocking`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Generator

import numpy as np

from repro.data.darray import DistributedArray
from repro.data.decomposition import BlockDecomposition
from repro.util.validation import require

#: The four 2-D edge directions: name -> (row delta, col delta).
DIRECTIONS: dict[str, tuple[int, int]] = {
    "north": (-1, 0),
    "south": (1, 0),
    "west": (0, -1),
    "east": (0, 1),
}
#: Matching direction for the receive side.
OPPOSITE = {"north": "south", "south": "north", "west": "east", "east": "west"}


def neighbor_table(decomp: BlockDecomposition, rank: int) -> dict[str, int | None]:
    """Grid neighbors of *rank* (``None`` on physical boundaries)."""
    require(decomp.ndim == 2, "halo exchange supports 2-D decompositions")
    coords = decomp.rank_to_coords(rank)
    table: dict[str, int | None] = {}
    for name, (dr, dc) in DIRECTIONS.items():
        r, c = coords[0] + dr, coords[1] + dc
        if 0 <= r < decomp.grid[0] and 0 <= c < decomp.grid[1]:
            table[name] = decomp.coords_to_rank((r, c))
        else:
            table[name] = None
    return table


@lru_cache(maxsize=256)
def _peers(decomp: BlockDecomposition, rank: int) -> tuple[tuple[str, int], ...]:
    """``(direction, peer)`` of each neighbor of *rank*, in :data:`DIRECTIONS` order.

    Built once per decomposition and rank, not once per exchange; the
    cache holds at most 256 of them.
    """
    table = neighbor_table(decomp, rank)
    return tuple((d, peer) for d, peer in table.items() if peer is not None)


def _edge_view(arr: DistributedArray, direction: str) -> np.ndarray:
    """Interior edge strip that gets *sent* toward *direction*."""
    p = arr.padded
    h = arr.halo
    if direction == "north":
        return p[h : 2 * h, h:-h]
    if direction == "south":
        return p[-2 * h : -h, h:-h]
    if direction == "west":
        return p[h:-h, h : 2 * h]
    return p[h:-h, -2 * h : -h]


def _ghost_view(arr: DistributedArray, direction: str) -> np.ndarray:
    """Ghost strip on the *direction* side that gets *filled*."""
    p = arr.padded
    h = arr.halo
    if direction == "north":
        return p[:h, h:-h]
    if direction == "south":
        return p[-h:, h:-h]
    if direction == "west":
        return p[h:-h, :h]
    return p[h:-h, -h:]


def halo_exchange(
    comm: Any, arr: DistributedArray, tag_base: str = "halo"
) -> Generator[Any, Any, None]:
    """Fill *arr*'s ghost layer from neighbors (DES generator form).

    ``yield from halo_exchange(ctx.comm, field)`` inside a process
    generator.  Sends are asynchronous; receives are matched by a
    per-direction tag, so no deadlock and no barrier.
    """
    require(arr.halo >= 1, "halo_exchange needs halo >= 1")
    peers = _peers(arr.decomp, arr.rank)
    for direction, peer in peers:
        # A genuine copy, NOT ascontiguousarray: sends are
        # asynchronous and the sender may update its field in place
        # before the message is consumed; an aliasing view would
        # leak the *future* state to the neighbor.
        comm.send(
            _edge_view(arr, direction).copy(),
            dest=peer,
            tag=f"{tag_base}:{direction}",
        )
    for direction, peer in peers:
        # The neighbor sent toward us with the opposite label.
        msg = yield comm.recv(source=peer, tag=f"{tag_base}:{OPPOSITE[direction]}")
        _ghost_view(arr, direction)[...] = msg.payload


def halo_exchange_blocking(comm: Any, arr: DistributedArray, tag_base: str = "halo") -> None:
    """Blocking form of :func:`halo_exchange` for the threaded backend."""
    require(arr.halo >= 1, "halo_exchange needs halo >= 1")
    peers = _peers(arr.decomp, arr.rank)
    for direction, peer in peers:
        comm.send(
            _edge_view(arr, direction).copy(),  # see halo_exchange
            dest=peer,
            tag=f"{tag_base}:{direction}",
        )
    for direction, peer in peers:
        msg = comm.recv(source=peer, tag=f"{tag_base}:{OPPOSITE[direction]}")
        _ghost_view(arr, direction)[...] = msg.payload
