"""Threaded backend: ranks are OS threads, time is wall-clock.

This backend runs the *same* collective plans as the DES backend but
under real concurrency.  It exists to demonstrate that the coupling
framework's logic is runtime-independent and to provide live, runnable
examples; benchmarks use the DES backend because virtual time is
deterministic.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.vmpi import plans as _plans
from repro.vmpi.message import ANY_SOURCE, ANY_TAG, Message, match_predicate
from repro.vmpi.reduce_ops import ReduceOp
from repro.vmpi.datatypes import HEADER_BYTES, nbytes_of
from repro.util.validation import require, require_positive, require_type

_INTERNAL_PREFIX = "__c:"


class MailboxTimeout(RuntimeError):
    """Raised when a blocking receive exceeds its timeout."""


class ThreadMailbox:
    """A predicate-matching blocking mailbox for one rank."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._items: list[Message] = []

    def put(self, msg: Message) -> None:
        """Deposit *msg* and wake matching waiters."""
        with self._cond:
            self._items.append(msg)
            self._cond.notify_all()

    def get(
        self,
        predicate: Callable[[Message], bool],
        timeout: float | None = None,
    ) -> Message:
        """Take the oldest message satisfying *predicate* (blocking)."""

        def _scan() -> Message | None:
            for i, msg in enumerate(self._items):
                if predicate(msg):
                    return self._items.pop(i)
            return None

        with self._cond:
            found = _scan()
            while found is None:
                if not self._cond.wait(timeout=timeout):
                    raise MailboxTimeout(
                        f"no matching message within {timeout} s"
                    )
                found = _scan()
            return found

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class ThreadWorld:
    """Container of programs whose ranks run as threads.

    Parameters
    ----------
    default_timeout:
        Receive timeout (seconds) applied to all blocking operations;
        ``None`` waits forever.  A finite default turns deadlocks into
        diagnosable failures, which matters for a framework whose whole
        point is correct distributed hand-shaking.
    """

    def __init__(self, default_timeout: float | None = 30.0) -> None:
        self.default_timeout = default_timeout
        self._mailboxes: dict[Any, ThreadMailbox] = {}
        self._programs: dict[str, list["ThreadCommunicator"]] = {}
        #: Optional fault hook ``f(world, address, msg)`` consulted by
        #: :meth:`post` (set by the live coupler to inject chaos; see
        #: :class:`repro.faults.injectors.LiveFaultInjector`).
        self.fault_hook: Callable[["ThreadWorld", Any, Any], None] | None = None

    def post(self, address: Any, msg: Any) -> None:
        """Deliver *msg* to *address* through the fault hook, if any.

        Framework senders use this instead of ``mailbox(addr).put`` so
        a single assignment turns chaos on for the whole runtime.
        """
        if self.fault_hook is None:
            self.mailbox(address).put(msg)
        else:
            self.fault_hook(self, address, msg)

    def create_program(self, name: str, nprocs: int) -> list["ThreadCommunicator"]:
        """Register a parallel program and return per-rank communicators."""
        require_type(name, str, "name")
        require_positive(nprocs, "nprocs")
        require(name not in self._programs, f"program {name!r} already exists")
        addresses = [(name, r) for r in range(nprocs)]
        for addr in addresses:
            self._mailboxes[addr] = ThreadMailbox()
        comms = [
            ThreadCommunicator(self, comm_id=name, addresses=addresses, rank=r)
            for r in range(nprocs)
        ]
        self._programs[name] = comms
        return comms

    def program(self, name: str) -> list["ThreadCommunicator"]:
        """Communicators of a previously created program."""
        return self._programs[name]

    def mailbox(self, address: Any) -> ThreadMailbox:
        """The mailbox registered at *address*."""
        return self._mailboxes[address]

    def register(self, address: Any) -> ThreadMailbox:
        """Create (or fetch) a mailbox at an arbitrary *address*."""
        box = self._mailboxes.get(address)
        if box is None:
            box = ThreadMailbox()
            self._mailboxes[address] = box
        return box

    def run_program(
        self,
        name: str,
        main: Callable[["ThreadCommunicator"], Any],
        join_timeout: float | None = 60.0,
    ) -> list[Any]:
        """Run ``main(comm)`` on a thread per rank; return rank results.

        The first worker exception is re-raised in the caller after all
        threads have been joined.
        """
        comms = self._programs[name]
        results: list[Any] = [None] * len(comms)
        errors: list[tuple[int, BaseException]] = []

        def _runner(idx: int, comm: "ThreadCommunicator") -> None:
            try:
                results[idx] = main(comm)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors.append((idx, exc))

        threads = [
            threading.Thread(
                target=_runner, args=(i, c), name=f"{name}.{i}", daemon=True
            )
            for i, c in enumerate(comms)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=join_timeout)
        alive = [t.name for t in threads if t.is_alive()]
        if errors:
            rank, exc = errors[0]
            raise RuntimeError(f"rank {rank} of {name!r} failed: {exc!r}") from exc
        if alive:
            raise RuntimeError(f"ranks did not finish: {alive}")
        return results


class ThreadCommunicator:
    """Blocking MPI-like communicator over thread mailboxes."""

    def __init__(
        self,
        world: ThreadWorld,
        comm_id: str,
        addresses: Sequence[Any],
        rank: int,
    ) -> None:
        self.world = world
        self.comm_id = comm_id
        self._addresses = list(addresses)
        self.rank = rank
        self.size = len(self._addresses)
        self._mailbox = world.mailbox(self._addresses[rank])
        self._coll_seq = 0
        #: Diagnostics, mirroring :class:`repro.vmpi.DesCommunicator`:
        #: sends split into user p2p vs. internal collective traffic.
        self.sent_messages = 0
        self.received_messages = 0
        self.p2p_messages_sent = 0
        self.p2p_bytes_sent = 0
        self.coll_messages_sent = 0
        self.coll_bytes_sent = 0

    @property
    def address(self) -> Any:
        """This rank's mailbox address."""
        return self._addresses[self.rank]

    # -- point to point --------------------------------------------------
    def send(
        self, obj: Any, dest: int, tag: int | str = 0, trace: Any = None
    ) -> None:
        """Asynchronous send of *obj* to rank *dest*.

        *trace* is an optional causal trace context stamped verbatim on
        the envelope (see :class:`repro.vmpi.message.Message`).
        """
        require(0 <= dest < self.size, f"dest {dest} out of range")
        nbytes = nbytes_of(obj) + HEADER_BYTES
        msg = Message(
            src=self.rank,
            tag=(self.comm_id, tag),
            payload=obj,
            nbytes=nbytes,
            trace=trace,
        )
        self.world.mailbox(self._addresses[dest]).put(msg)
        self.sent_messages += 1
        if isinstance(tag, str) and tag.startswith(_INTERNAL_PREFIX):
            self.coll_messages_sent += 1
            self.coll_bytes_sent += nbytes
        else:
            self.p2p_messages_sent += 1
            self.p2p_bytes_sent += nbytes

    def recv(
        self,
        source: Any = ANY_SOURCE,
        tag: Any = ANY_TAG,
        timeout: float | None = None,
    ) -> Message:
        """Blocking matched receive; returns the :class:`Message`."""
        base = match_predicate(source, ANY_TAG)

        def _pred(msg: Message) -> bool:
            if not base(msg):
                return False
            comm_id, user_tag = msg.tag
            if comm_id != self.comm_id:
                return False
            if tag is ANY_TAG:
                return not (
                    isinstance(user_tag, str) and user_tag.startswith(_INTERNAL_PREFIX)
                )
            return user_tag == tag

        msg = self._mailbox.get(
            _pred, timeout=self.world.default_timeout if timeout is None else timeout
        )
        self.received_messages += 1
        return msg

    # -- collectives -------------------------------------------------------
    def _next_key(self, name: str) -> str:
        self._coll_seq += 1
        return f"{_INTERNAL_PREFIX}{name}:{self._coll_seq}"

    def _execute(self, plan: _plans.CollectivePlan) -> Any:
        slots = dict(plan.slots)
        for action in plan.actions:
            if isinstance(action, _plans.SendAction):
                self.send(slots[action.slot], action.peer, tag=action.key)
            elif isinstance(action, _plans.RecvAction):
                msg = self.recv(source=action.peer, tag=action.key)
                slots[action.slot] = msg.payload
            elif isinstance(action, _plans.CombineAction):
                op = plan.op
                assert op is not None, "combine without an operator"
                a, b = slots[action.dst], slots[action.src]
                slots[action.dst] = op(b, a) if action.reverse else op(a, b)
            else:
                slots[action.dst] = slots[action.src]
        return plan.result(slots)

    def bcast(self, value: Any, root: int = 0) -> Any:
        """Broadcast *value* from *root*."""
        return self._execute(
            _plans.plan_bcast(self.rank, self.size, root, value, self._next_key("bcast"))
        )

    def reduce(self, value: Any, op: ReduceOp, root: int = 0) -> Any:
        """Reduce onto *root* (others return ``None``)."""
        return self._execute(
            _plans.plan_reduce(self.rank, self.size, root, value, op, self._next_key("reduce"))
        )

    def allreduce(self, value: Any, op: ReduceOp) -> Any:
        """Reduce; every rank returns the result."""
        return self._execute(
            _plans.plan_allreduce(self.rank, self.size, value, op, self._next_key("allreduce"))
        )

    def barrier(self) -> None:
        """Block until every rank has entered."""
        self._execute(
            _plans.plan_barrier(self.rank, self.size, self._next_key("barrier"))
        )

    def gather(self, value: Any, root: int = 0) -> Any:
        """Gather into a rank-ordered list at *root*."""
        return self._execute(
            _plans.plan_gather(self.rank, self.size, root, value, self._next_key("gather"))
        )

    def scatter(self, values: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter ``values[i]`` from *root* to rank *i*."""
        return self._execute(
            _plans.plan_scatter(self.rank, self.size, root, values, self._next_key("scatter"))
        )

    def allgather(self, value: Any) -> list[Any]:
        """Gather into a rank-ordered list on every rank."""
        return self._execute(
            _plans.plan_allgather(self.rank, self.size, value, self._next_key("allgather"))
        )

    def alltoall(self, values: Sequence[Any]) -> list[Any]:
        """Exchange ``values[i]`` with rank *i*."""
        return self._execute(
            _plans.plan_alltoall(self.rank, self.size, values, self._next_key("alltoall"))
        )

    def scan(self, value: Any, op: ReduceOp) -> Any:
        """Inclusive rank-order prefix reduction."""
        return self._execute(
            _plans.plan_scan(self.rank, self.size, value, op, self._next_key("scan"))
        )

    def exscan(self, value: Any, op: ReduceOp) -> Any:
        """Exclusive prefix reduction (rank 0 returns ``None``)."""
        return self._execute(
            _plans.plan_exscan(self.rank, self.size, value, op, self._next_key("exscan"))
        )

    def reduce_scatter(self, values: Sequence[Any], op: ReduceOp) -> Any:
        """Rank *i* returns ``op`` over item *i* of every rank's list."""
        return self._execute(
            _plans.plan_reduce_scatter(
                self.rank, self.size, values, op, self._next_key("reduce_scatter")
            )
        )

    def split(self, color: int, key: int = 0) -> "ThreadCommunicator":
        """Partition by *color*, ordering ranks by *key* (collective)."""
        infos = self.allgather((color, key, self.rank))
        members = sorted((k, r) for (c, k, r) in infos if c == color)
        ranks = [r for (_k, r) in members]
        new_rank = ranks.index(self.rank)
        new_id = f"{self.comm_id}/split@{self._coll_seq}:{color}"
        addresses = [self._addresses[r] for r in ranks]
        return ThreadCommunicator(
            self.world, comm_id=new_id, addresses=addresses, rank=new_rank
        )
