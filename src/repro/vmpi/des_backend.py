"""DES backend: ranks are generator processes on the virtual clock.

Usage pattern (SPMD, like mpi4py but with ``yield``/``yield from`` at
blocking points)::

    world = DesWorld(seed=1)
    comms = world.create_program("U", nprocs=4)

    def main(comm):
        total = yield from comm.allreduce(comm.rank, SUM)
        ...

    world.spawn_all("U", main)
    world.run()

``send`` is asynchronous (returns immediately); ``recv`` returns an
event to ``yield`` on; collectives are generators to ``yield from``.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Hashable, Sequence

from repro.des import Event, Network, Process, Simulator
from repro.vmpi import plans as _plans
from repro.vmpi.datatypes import HEADER_BYTES, nbytes_of
from repro.vmpi.message import ANY_SOURCE, ANY_TAG, Message, match_predicate
from repro.vmpi.reduce_ops import ReduceOp
from repro.util.rng import RngRegistry
from repro.util.validation import ValidationError, require_positive, require_type

#: Prefix of internal (collective) wire tags; hidden from ANY_TAG recvs.
_INTERNAL_PREFIX = "__c:"


class DesWorld:
    """The container of programs, the network, and the simulator.

    Parameters
    ----------
    sim:
        An existing simulator to join, or ``None`` to create one.
    latency, bandwidth:
        Network parameters passed to :class:`repro.des.Network`.
    congestion:
        Optional congestion factor function (see :class:`Network`).
    seed:
        Root seed for the world's :class:`RngRegistry`.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan`; when given, the
        world's network is a :class:`repro.faults.network.FaultyNetwork`
        executing it (framework control planes only — vmpi traffic is
        never touched, see :func:`repro.faults.plan.classify_plane`).
    """

    def __init__(
        self,
        sim: Simulator | None = None,
        latency: float = 0.0,
        bandwidth: float = float("inf"),
        congestion: Callable[[int], float] | None = None,
        seed: int = 0,
        fault_plan: Any = None,
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        if fault_plan is not None:
            # Imported lazily: vmpi must not depend on repro.faults
            # unless chaos is actually requested.
            from repro.faults.network import FaultyNetwork

            self.network: Network = FaultyNetwork(
                self.sim,
                fault_plan,
                latency=latency,
                bandwidth=bandwidth,
                congestion=congestion,
            )
        else:
            self.network = Network(
                self.sim, latency=latency, bandwidth=bandwidth, congestion=congestion
            )
        self.rng = RngRegistry(seed=seed)
        self._programs: dict[str, list["DesCommunicator"]] = {}

    def create_program(self, name: str, nprocs: int) -> list["DesCommunicator"]:
        """Register a parallel program and return one communicator per rank."""
        require_type(name, str, "name")
        require_positive(nprocs, "nprocs")
        if name in self._programs:
            raise ValidationError(f"program {name!r} already exists")
        addresses: list[Hashable] = [(name, r) for r in range(nprocs)]
        for addr in addresses:
            self.network.register(addr)
        comms = [
            DesCommunicator(self, comm_id=name, addresses=addresses, rank=r)
            for r in range(nprocs)
        ]
        self._programs[name] = comms
        return comms

    def program(self, name: str) -> list["DesCommunicator"]:
        """Communicators of a previously created program."""
        return self._programs[name]

    def spawn_all(
        self,
        name: str,
        main: Callable[["DesCommunicator"], Generator[Event, Any, Any]],
    ) -> list[Process]:
        """Start ``main(comm)`` as a DES process on every rank of *name*."""
        return [
            self.sim.process(main(comm), name=f"{name}.{comm.rank}")
            for comm in self._programs[name]
        ]

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation (delegates to :meth:`Simulator.run`)."""
        return self.sim.run(until)


class DesCommunicator:
    """An MPI-like communicator over the DES network.

    The *blocking* operations (``recv`` and all collectives) integrate
    with the process model: ``recv`` returns an event to ``yield``;
    collectives are generators to ``yield from``.
    """

    def __init__(
        self,
        world: DesWorld,
        comm_id: str,
        addresses: Sequence[Hashable],
        rank: int,
    ) -> None:
        self.world = world
        self.comm_id = comm_id
        self._addresses = list(addresses)
        self.rank = rank
        self.size = len(self._addresses)
        self._mailbox = world.network.mailbox(self._addresses[rank])
        self._coll_seq = 0
        #: Sent/received message counters for diagnostics, with the
        #: sends split by kind: user point-to-point vs. the internal
        #: collective traffic (tags under ``_INTERNAL_PREFIX``).
        self.sent_messages = 0
        self.received_messages = 0
        self.p2p_messages_sent = 0
        self.p2p_bytes_sent = 0
        self.coll_messages_sent = 0
        self.coll_bytes_sent = 0

    # -- point to point --------------------------------------------------
    @property
    def address(self) -> Hashable:
        """This rank's network address."""
        return self._addresses[self.rank]

    def send(
        self, obj: Any, dest: int, tag: int | str = 0, trace: Any = None
    ) -> None:
        """Asynchronous eager send of *obj* to rank *dest*.

        *trace* is an optional causal trace context stamped verbatim on
        the envelope (see :class:`repro.vmpi.message.Message`).
        """
        if not 0 <= dest < self.size:
            raise ValidationError(f"dest {dest} out of range")
        nbytes = nbytes_of(obj) + HEADER_BYTES
        msg = Message(
            src=self.rank,
            tag=(self.comm_id, tag),
            payload=obj,
            nbytes=nbytes,
            trace=trace,
        )
        self.world.network.send(
            self.address, self._addresses[dest], msg, nbytes=nbytes
        )
        self.sent_messages += 1
        if isinstance(tag, str) and tag.startswith(_INTERNAL_PREFIX):
            self.coll_messages_sent += 1
            self.coll_bytes_sent += nbytes
        else:
            self.p2p_messages_sent += 1
            self.p2p_bytes_sent += nbytes

    def recv(self, source: Any = ANY_SOURCE, tag: Any = ANY_TAG) -> Event:
        """Event carrying the next matching :class:`Message`.

        ``yield comm.recv(...)`` from a process; the yielded value is
        the message (use ``.payload`` for the object, ``.src`` for the
        sender).  ``ANY_TAG`` never matches internal collective
        traffic.
        """
        base = match_predicate(source, ANY_TAG)

        def _pred(delivery: Any) -> bool:
            msg: Message = delivery.payload
            if not base(msg):
                return False
            comm_id, user_tag = msg.tag  # wire tags are always pairs
            if comm_id != self.comm_id:
                return False
            if tag is ANY_TAG:
                return not (isinstance(user_tag, str) and user_tag.startswith(_INTERNAL_PREFIX))
            return user_tag == tag

        inner = self._mailbox.get_matching(_pred)
        out = Event(self.world.sim)

        def _unwrap(ev: Event) -> None:
            self.received_messages += 1
            out.succeed(ev.value.payload)

        inner.callbacks.append(_unwrap)
        return out

    def sendrecv(
        self, obj: Any, dest: int, source: Any = ANY_SOURCE, tag: int | str = 0
    ) -> Generator[Event, Any, Message]:
        """Send to *dest* and receive one message; returns the message."""
        self.send(obj, dest, tag)
        msg = yield self.recv(source, tag)
        return msg

    # -- collectives -------------------------------------------------------
    def _next_key(self, name: str) -> str:
        self._coll_seq += 1
        return f"{_INTERNAL_PREFIX}{name}:{self._coll_seq}"

    def _execute(
        self, plan: _plans.CollectivePlan
    ) -> Generator[Event, Any, Any]:
        """Run one collective plan against the network."""
        slots = dict(plan.slots)
        for action in plan.actions:
            if isinstance(action, _plans.SendAction):
                self.send(slots[action.slot], action.peer, tag=action.key)
            elif isinstance(action, _plans.RecvAction):
                msg = yield self.recv(source=action.peer, tag=action.key)
                slots[action.slot] = msg.payload
            elif isinstance(action, _plans.CombineAction):
                op = plan.op
                assert op is not None, "combine without an operator"
                a, b = slots[action.dst], slots[action.src]
                slots[action.dst] = op(b, a) if action.reverse else op(a, b)
            else:  # CopyAction
                slots[action.dst] = slots[action.src]
        return plan.result(slots)

    def bcast(self, value: Any, root: int = 0) -> Generator[Event, Any, Any]:
        """Broadcast *value* from *root*; every rank returns it."""
        key = self._next_key("bcast")
        plan = _plans.plan_bcast(self.rank, self.size, root, value, key)
        result = yield from self._execute(plan)
        return result

    def reduce(
        self, value: Any, op: ReduceOp, root: int = 0
    ) -> Generator[Event, Any, Any]:
        """Reduce *value* with *op* onto *root* (others return ``None``)."""
        key = self._next_key("reduce")
        plan = _plans.plan_reduce(self.rank, self.size, root, value, op, key)
        result = yield from self._execute(plan)
        return result

    def allreduce(self, value: Any, op: ReduceOp) -> Generator[Event, Any, Any]:
        """Reduce *value* with *op*; every rank returns the result."""
        key = self._next_key("allreduce")
        plan = _plans.plan_allreduce(self.rank, self.size, value, op, key)
        result = yield from self._execute(plan)
        return result

    def barrier(self) -> Generator[Event, Any, None]:
        """Block until every rank has entered the barrier."""
        key = self._next_key("barrier")
        plan = _plans.plan_barrier(self.rank, self.size, key)
        yield from self._execute(plan)

    def gather(self, value: Any, root: int = 0) -> Generator[Event, Any, Any]:
        """Gather values into a rank-ordered list at *root*."""
        key = self._next_key("gather")
        plan = _plans.plan_gather(self.rank, self.size, root, value, key)
        result = yield from self._execute(plan)
        return result

    def scatter(
        self, values: Sequence[Any] | None, root: int = 0
    ) -> Generator[Event, Any, Any]:
        """Scatter ``values[i]`` from *root* to rank *i*."""
        key = self._next_key("scatter")
        plan = _plans.plan_scatter(self.rank, self.size, root, values, key)
        result = yield from self._execute(plan)
        return result

    def allgather(self, value: Any) -> Generator[Event, Any, list[Any]]:
        """Gather values into a rank-ordered list on every rank."""
        key = self._next_key("allgather")
        plan = _plans.plan_allgather(self.rank, self.size, value, key)
        result = yield from self._execute(plan)
        return result

    def alltoall(self, values: Sequence[Any]) -> Generator[Event, Any, list[Any]]:
        """Exchange ``values[i]`` with rank *i*; returns received list."""
        key = self._next_key("alltoall")
        plan = _plans.plan_alltoall(self.rank, self.size, values, key)
        result = yield from self._execute(plan)
        return result

    def scan(self, value: Any, op: ReduceOp) -> Generator[Event, Any, Any]:
        """Inclusive rank-order prefix reduction."""
        key = self._next_key("scan")
        plan = _plans.plan_scan(self.rank, self.size, value, op, key)
        result = yield from self._execute(plan)
        return result

    def exscan(self, value: Any, op: ReduceOp) -> Generator[Event, Any, Any]:
        """Exclusive prefix reduction (rank 0 returns ``None``)."""
        key = self._next_key("exscan")
        plan = _plans.plan_exscan(self.rank, self.size, value, op, key)
        result = yield from self._execute(plan)
        return result

    def reduce_scatter(
        self, values: Sequence[Any], op: ReduceOp
    ) -> Generator[Event, Any, Any]:
        """Rank *i* returns ``op`` over item *i* of every rank's list."""
        key = self._next_key("reduce_scatter")
        plan = _plans.plan_reduce_scatter(self.rank, self.size, values, op, key)
        result = yield from self._execute(plan)
        return result

    def iprobe(self, source: Any = ANY_SOURCE, tag: Any = ANY_TAG) -> bool:
        """Whether a matching message is already waiting (non-blocking)."""
        base = match_predicate(source, ANY_TAG)
        for delivery in self._mailbox.peek_all():
            msg: Message = delivery.payload
            if not base(msg):
                continue
            comm_id, user_tag = msg.tag
            if comm_id != self.comm_id:
                continue
            if tag is ANY_TAG:
                if not (isinstance(user_tag, str) and user_tag.startswith(_INTERNAL_PREFIX)):
                    return True
            elif user_tag == tag:
                return True
        return False

    def split(self, color: int, key: int = 0) -> Generator[Event, Any, "DesCommunicator"]:
        """Partition the communicator by *color*, ordering ranks by *key*.

        All ranks must call collectively (same call sequence), like
        ``MPI_Comm_split``.  Returns the new communicator for this
        rank's color group.
        """
        infos = yield from self.allgather((color, key, self.rank))
        members = sorted(
            (k, r) for (c, k, r) in infos if c == color
        )
        ranks = [r for (_k, r) in members]
        new_rank = ranks.index(self.rank)
        # The id must be identical on every member: derive it from the
        # collective sequence number, which SPMD call order keeps in
        # lockstep across ranks, never from per-world mutable state.
        new_id = f"{self.comm_id}/split@{self._coll_seq}:{color}"
        addresses = [self._addresses[r] for r in ranks]
        sub = DesCommunicator(self.world, comm_id=new_id, addresses=addresses, rank=new_rank)
        return sub
