"""Backend-independent collective communication plans.

A *plan* is the per-rank action list of one collective operation:
sends, receives, and local combines over named value slots.  Plans are
pure data, so the collective algorithms (binomial trees, recursive
doubling, dissemination barrier, ring allgather, pairwise alltoall,
Hillis-Steele scan) can be unit- and property-tested without any
runtime at all (:func:`simulate_plans`), then executed identically by
the DES backend and the threaded backend.

Within one plan, every ordered pair of ranks exchanges at most one
message per key, so message matching is by ``(peer, key)``.  Sends are
asynchronous in both backends; the algorithms below are therefore
deadlock-free as long as each receive has a matching send, which the
property tests verify for every size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.vmpi.reduce_ops import ReduceOp
from repro.util.validation import ValidationError, require, require_positive


@dataclass(frozen=True)
class SendAction:
    """Transmit the current value of *slot* to *peer* under *key*."""

    peer: int
    key: str
    slot: str


@dataclass(frozen=True)
class RecvAction:
    """Receive the message keyed *key* from *peer* into *slot*."""

    peer: int
    key: str
    slot: str


@dataclass(frozen=True)
class CombineAction:
    """Fold *src* into *dst* with the plan's reduce operator.

    ``dst = op(dst, src)`` normally; ``dst = op(src, dst)`` when
    *reverse* is set (used where the incoming operand covers *lower*
    ranks, to preserve rank ordering for non-commutative operators).
    """

    dst: str
    src: str
    reverse: bool = False


@dataclass(frozen=True)
class CopyAction:
    """``slots[dst] = slots[src]`` (reference copy)."""

    dst: str
    src: str


Action = SendAction | RecvAction | CombineAction | CopyAction


@dataclass
class CollectivePlan:
    """One rank's share of a collective operation.

    Attributes
    ----------
    name:
        Collective name, for diagnostics.
    rank, size:
        This rank and the communicator size.
    actions:
        Ordered action list.
    slots:
        Initial named values.
    op:
        Reduce operator used by :class:`CombineAction` (``None`` for
        data-movement collectives).
    result:
        Extracts the operation's return value from the final slots.
    """

    name: str
    rank: int
    size: int
    actions: list[Action]
    slots: dict[str, Any]
    op: ReduceOp | None = None
    result: Callable[[dict[str, Any]], Any] = field(
        default=lambda slots: slots.get("acc")
    )

    def sends(self) -> list[SendAction]:
        """All send actions, in order."""
        return [a for a in self.actions if isinstance(a, SendAction)]

    def recvs(self) -> list[RecvAction]:
        """All receive actions, in order."""
        return [a for a in self.actions if isinstance(a, RecvAction)]


def _check_rank_size(rank: int, size: int, root: int | None = None) -> None:
    require_positive(size, "size")
    if not 0 <= rank < size:
        raise ValidationError(f"rank {rank} out of range for size {size}")
    if root is not None:
        if not 0 <= root < size:
            raise ValidationError(f"root {root} out of range for size {size}")


# ---------------------------------------------------------------------------
# broadcast / reduce (binomial trees)
# ---------------------------------------------------------------------------

def plan_bcast(rank: int, size: int, root: int, value: Any, key: str) -> CollectivePlan:
    """Binomial-tree broadcast of *value* from *root*.

    Non-root ranks pass ``value=None``; the result is the root's value
    on every rank after execution.
    """
    _check_rank_size(rank, size, root)
    vrank = (rank - root) % size
    actions: list[Action] = []
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = (vrank - mask + root) % size
            actions.append(RecvAction(peer=parent, key=key, slot="acc"))
            break
        mask <<= 1
    mask >>= 1
    while mask:
        child_v = vrank + mask
        if child_v < size:
            child = (child_v + root) % size
            actions.append(SendAction(peer=child, key=key, slot="acc"))
        mask >>= 1
    return CollectivePlan(
        name="bcast",
        rank=rank,
        size=size,
        actions=actions,
        slots={"acc": value},
    )


def plan_reduce(
    rank: int,
    size: int,
    root: int,
    value: Any,
    op: ReduceOp,
    key: str,
) -> CollectivePlan:
    """Reduce *value* across ranks onto *root* with *op*.

    Uses a binomial tree for commutative operators.  Non-commutative
    operators fall back to an ordered linear gather-fold at the root so
    the MPI rank-order guarantee holds for any *root*.
    """
    _check_rank_size(rank, size, root)
    actions: list[Action] = []
    if not op.commutative:
        if rank == root:
            # Fold strictly in rank order: own value participates at
            # position `root`.
            slots: dict[str, Any] = {"acc": None}
            for r in range(size):
                if r == root:
                    slots[f"in:{r}"] = value
                else:
                    actions.append(RecvAction(peer=r, key=f"{key}:{r}", slot=f"in:{r}"))
            actions.append(CopyAction(dst="acc", src="in:0"))
            for r in range(1, size):
                actions.append(CombineAction(dst="acc", src=f"in:{r}"))
            return CollectivePlan(
                name="reduce", rank=rank, size=size, actions=actions, slots=slots, op=op,
                result=lambda s: s["acc"],
            )
        actions.append(SendAction(peer=root, key=f"{key}:{rank}", slot="acc"))
        return CollectivePlan(
            name="reduce", rank=rank, size=size, actions=actions,
            slots={"acc": value}, op=op, result=lambda s: None,
        )

    vrank = (rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask == 0:
            src_v = vrank | mask
            if src_v < size:
                src = (src_v + root) % size
                tmp = f"tmp:{mask}"
                actions.append(RecvAction(peer=src, key=key, slot=tmp))
                actions.append(CombineAction(dst="acc", src=tmp))
            mask <<= 1
        else:
            dst = (vrank - mask + root) % size
            actions.append(SendAction(peer=dst, key=key, slot="acc"))
            break
    return CollectivePlan(
        name="reduce",
        rank=rank,
        size=size,
        actions=actions,
        slots={"acc": value},
        op=op,
        result=(lambda s: s["acc"]) if rank == root else (lambda s: None),
    )


def plan_allreduce(
    rank: int, size: int, value: Any, op: ReduceOp, key: str
) -> CollectivePlan:
    """Allreduce of *value* with *op*.

    Power-of-two sizes with a commutative operator use recursive
    doubling (log₂ p rounds); every other case composes reduce-to-0
    with a broadcast, which is correct for any size and operator.
    """
    _check_rank_size(rank, size)
    power_of_two = size & (size - 1) == 0
    if power_of_two and op.commutative and size > 1:
        actions: list[Action] = []
        mask = 1
        while mask < size:
            partner = rank ^ mask
            tmp = f"tmp:{mask}"
            actions.append(SendAction(peer=partner, key=f"{key}:{mask}", slot="acc"))
            actions.append(RecvAction(peer=partner, key=f"{key}:{mask}", slot=tmp))
            # Keep rank-segment order: the lower-rank operand goes left.
            actions.append(CombineAction(dst="acc", src=tmp, reverse=partner < rank))
            mask <<= 1
        return CollectivePlan(
            name="allreduce",
            rank=rank,
            size=size,
            actions=actions,
            slots={"acc": value},
            op=op,
            result=lambda s: s["acc"],
        )
    # General case: reduce onto rank 0, then broadcast the result.  The
    # broadcast's receive overwrites `acc` on every non-root rank.
    reduce_plan = plan_reduce(rank, size, 0, value, op, key=f"{key}:r")
    bcast_plan = plan_bcast(rank, size, 0, None, key=f"{key}:b")
    actions = list(reduce_plan.actions) + list(bcast_plan.actions)
    return CollectivePlan(
        name="allreduce",
        rank=rank,
        size=size,
        actions=actions,
        slots=dict(reduce_plan.slots),
        op=op,
        result=lambda s: s["acc"],
    )


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------

def plan_barrier(rank: int, size: int, key: str) -> CollectivePlan:
    """Dissemination barrier: ⌈log₂ p⌉ rounds of shifted token passing.

    After round *k* every rank has transitively heard from ``2^(k+1)``
    ranks; when ``2^k >= size`` everyone has heard from everyone.
    """
    _check_rank_size(rank, size)
    actions: list[Action] = []
    step = 1
    round_no = 0
    while step < size:
        to = (rank + step) % size
        frm = (rank - step) % size
        actions.append(SendAction(peer=to, key=f"{key}:{round_no}", slot="token"))
        actions.append(RecvAction(peer=frm, key=f"{key}:{round_no}", slot="token_in"))
        step <<= 1
        round_no += 1
    return CollectivePlan(
        name="barrier",
        rank=rank,
        size=size,
        actions=actions,
        slots={"token": True, "token_in": None},
        result=lambda s: None,
    )


# ---------------------------------------------------------------------------
# gather / scatter
# ---------------------------------------------------------------------------

def plan_gather(
    rank: int, size: int, root: int, value: Any, key: str
) -> CollectivePlan:
    """Gather each rank's *value* into a rank-ordered list at *root*."""
    _check_rank_size(rank, size, root)
    if rank != root:
        return CollectivePlan(
            name="gather",
            rank=rank,
            size=size,
            actions=[SendAction(peer=root, key=f"{key}:{rank}", slot="mine")],
            slots={"mine": value},
            result=lambda s: None,
        )
    actions: list[Action] = []
    slots: dict[str, Any] = {f"part:{root}": value}
    for r in range(size):
        if r != root:
            actions.append(RecvAction(peer=r, key=f"{key}:{r}", slot=f"part:{r}"))
    return CollectivePlan(
        name="gather",
        rank=rank,
        size=size,
        actions=actions,
        slots=slots,
        result=lambda s, n=size: [s[f"part:{r}"] for r in range(n)],
    )


def plan_scatter(
    rank: int,
    size: int,
    root: int,
    values: Sequence[Any] | None,
    key: str,
) -> CollectivePlan:
    """Scatter ``values[i]`` from *root* to rank *i*; returns own piece."""
    _check_rank_size(rank, size, root)
    if rank == root:
        if values is None or len(values) != size:
            raise ValidationError(f"scatter root needs exactly {size} values")
        actions = [
            SendAction(peer=r, key=f"{key}:{r}", slot=f"part:{r}")
            for r in range(size)
            if r != root
        ]
        slots = {f"part:{r}": values[r] for r in range(size)}
        return CollectivePlan(
            name="scatter",
            rank=rank,
            size=size,
            actions=actions,
            slots=slots,
            result=lambda s, me=root: s[f"part:{me}"],
        )
    return CollectivePlan(
        name="scatter",
        rank=rank,
        size=size,
        actions=[RecvAction(peer=root, key=f"{key}:{rank}", slot="mine")],
        slots={"mine": None},
        result=lambda s: s["mine"],
    )


# ---------------------------------------------------------------------------
# allgather / alltoall / scan
# ---------------------------------------------------------------------------

def plan_allgather(rank: int, size: int, value: Any, key: str) -> CollectivePlan:
    """Ring allgather: p−1 steps, each forwarding one block rightwards."""
    _check_rank_size(rank, size)
    actions: list[Action] = []
    slots: dict[str, Any] = {f"part:{rank}": value}
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        send_block = (rank - step) % size
        recv_block = (rank - step - 1) % size
        actions.append(
            SendAction(peer=right, key=f"{key}:{step}", slot=f"part:{send_block}")
        )
        actions.append(
            RecvAction(peer=left, key=f"{key}:{step}", slot=f"part:{recv_block}")
        )
    return CollectivePlan(
        name="allgather",
        rank=rank,
        size=size,
        actions=actions,
        slots=slots,
        result=lambda s, n=size: [s[f"part:{r}"] for r in range(n)],
    )


def plan_alltoall(
    rank: int, size: int, values: Sequence[Any], key: str
) -> CollectivePlan:
    """Pairwise-shifted alltoall: round *i* exchanges with rank ± i."""
    _check_rank_size(rank, size)
    if len(values) != size:
        raise ValidationError(f"alltoall needs exactly {size} values")
    actions: list[Action] = []
    slots: dict[str, Any] = {f"out:{r}": values[r] for r in range(size)}
    slots[f"in:{rank}"] = values[rank]
    for offset in range(1, size):
        dst = (rank + offset) % size
        src = (rank - offset) % size
        actions.append(SendAction(peer=dst, key=f"{key}:{offset}", slot=f"out:{dst}"))
        actions.append(RecvAction(peer=src, key=f"{key}:{offset}", slot=f"in:{src}"))
    return CollectivePlan(
        name="alltoall",
        rank=rank,
        size=size,
        actions=actions,
        slots=slots,
        result=lambda s, n=size: [s[f"in:{r}"] for r in range(n)],
    )


def plan_scan(
    rank: int, size: int, value: Any, op: ReduceOp, key: str
) -> CollectivePlan:
    """Inclusive prefix scan (Hillis–Steele, ⌈log₂ p⌉ rounds).

    After execution rank *r* holds ``op(value_0, ..., value_r)`` folded
    in rank order (safe for non-commutative operators).
    """
    _check_rank_size(rank, size)
    actions: list[Action] = []
    offset = 1
    while offset < size:
        if rank + offset < size:
            actions.append(
                SendAction(peer=rank + offset, key=f"{key}:{offset}", slot="acc")
            )
        if rank - offset >= 0:
            tmp = f"tmp:{offset}"
            actions.append(
                RecvAction(peer=rank - offset, key=f"{key}:{offset}", slot=tmp)
            )
            # Incoming covers lower ranks: fold on the left.
            actions.append(CombineAction(dst="acc", src=tmp, reverse=True))
        offset <<= 1
    return CollectivePlan(
        name="scan",
        rank=rank,
        size=size,
        actions=actions,
        slots={"acc": value},
        op=op,
        result=lambda s: s["acc"],
    )


def plan_exscan(
    rank: int, size: int, value: Any, op: ReduceOp, key: str
) -> CollectivePlan:
    """Exclusive prefix scan: rank *r* gets ``op(v_0, ..., v_{r-1})``.

    Rank 0's result is ``None`` (MPI leaves it undefined).  Implemented
    as the inclusive scan followed by a single right-shift round —
    one extra message per rank, but trivially correct for any operator.
    """
    _check_rank_size(rank, size)
    inclusive = plan_scan(rank, size, value, op, key=f"{key}:i")
    actions = list(inclusive.actions)
    slots = dict(inclusive.slots)
    slots["ex"] = None
    if rank + 1 < size:
        actions.append(SendAction(peer=rank + 1, key=f"{key}:s", slot="acc"))
    if rank > 0:
        actions.append(RecvAction(peer=rank - 1, key=f"{key}:s", slot="ex"))
    return CollectivePlan(
        name="exscan",
        rank=rank,
        size=size,
        actions=actions,
        slots=slots,
        op=op,
        result=lambda s: s["ex"],
    )


def plan_reduce_scatter(
    rank: int, size: int, values: Sequence[Any], op: ReduceOp, key: str
) -> CollectivePlan:
    """Reduce-scatter (block): rank *i* gets ``op`` over item *i* of
    every rank's *values* list.

    Pairwise exchange (each rank mails its *j*-th contribution to rank
    *j*) followed by a rank-ordered local fold — ``p−1`` messages per
    rank, correct for non-commutative operators too.
    """
    _check_rank_size(rank, size)
    if len(values) != size:
        raise ValidationError(f"reduce_scatter needs exactly {size} values")
    actions: list[Action] = []
    slots: dict[str, Any] = {f"out:{r}": values[r] for r in range(size)}
    slots[f"in:{rank}"] = values[rank]
    for offset in range(1, size):
        dst = (rank + offset) % size
        src = (rank - offset) % size
        actions.append(SendAction(peer=dst, key=f"{key}:{offset}", slot=f"out:{dst}"))
        actions.append(RecvAction(peer=src, key=f"{key}:{offset}", slot=f"in:{src}"))
    # Fold contributions in rank order: acc = in:0 op in:1 op ...
    actions.append(CopyAction(dst="acc", src="in:0"))
    for r in range(1, size):
        actions.append(CombineAction(dst="acc", src=f"in:{r}"))
    return CollectivePlan(
        name="reduce_scatter",
        rank=rank,
        size=size,
        actions=actions,
        slots=slots,
        op=op,
        result=lambda s: s["acc"],
    )


# ---------------------------------------------------------------------------
# pure in-memory execution (for tests and for algorithm verification)
# ---------------------------------------------------------------------------

class PlanDeadlock(RuntimeError):
    """Raised by :func:`simulate_plans` when no rank can make progress."""


def simulate_plans(plans: Sequence[CollectivePlan]) -> list[Any]:
    """Execute one plan per rank against an in-memory message board.

    This is the reference executor: no timing, round-robin stepping,
    blocking receives.  Used by the test suite to validate every
    algorithm for all communicator sizes, independent of any backend.

    Returns the per-rank results.  Raises :class:`PlanDeadlock` if the
    plans cannot complete (a bug in a plan generator).
    """
    size = len(plans)
    for p in plans:
        require(p.size == size, "all plans must agree on communicator size")
    board: dict[tuple[int, int, str], list[Any]] = {}
    pcs = [0] * size
    slots = [dict(p.slots) for p in plans]

    def _step(r: int) -> bool:
        """Run rank *r* until it blocks or finishes; True if it progressed."""
        progressed = False
        plan = plans[r]
        while pcs[r] < len(plan.actions):
            action = plan.actions[pcs[r]]
            if isinstance(action, SendAction):
                board.setdefault((r, action.peer, action.key), []).append(
                    slots[r][action.slot]
                )
            elif isinstance(action, RecvAction):
                queue = board.get((action.peer, r, action.key))
                if not queue:
                    return progressed
                slots[r][action.slot] = queue.pop(0)
            elif isinstance(action, CombineAction):
                op = plan.op
                if op is None:
                    raise ValidationError(f"{plan.name} plan combines without an op")
                a = slots[r][action.dst]
                b = slots[r][action.src]
                slots[r][action.dst] = op(b, a) if action.reverse else op(a, b)
            else:  # CopyAction
                slots[r][action.dst] = slots[r][action.src]
            pcs[r] += 1
            progressed = True
        return progressed

    remaining = set(range(size))
    while remaining:
        moved = False
        for r in sorted(remaining):
            if _step(r):
                moved = True
            if pcs[r] >= len(plans[r].actions):
                remaining.discard(r)
        if remaining and not moved:
            stuck = {
                r: plans[r].actions[pcs[r]] for r in sorted(remaining)
            }
            raise PlanDeadlock(f"plans deadlocked; blocked actions: {stuck}")
    return [plans[r].result(slots[r]) for r in range(size)]
