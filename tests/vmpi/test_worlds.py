"""Tests for DesWorld / ThreadWorld container behaviour."""

import sys
import threading
import time

import pytest

from repro.vmpi import DesWorld, ThreadWorld, SUM
from repro.vmpi.thread_backend import MailboxAborted


class TestDesWorld:
    def test_duplicate_program_rejected(self):
        world = DesWorld()
        world.create_program("P", 2)
        with pytest.raises(ValueError, match="already exists"):
            world.create_program("P", 2)

    def test_program_accessor(self):
        world = DesWorld()
        comms = world.create_program("P", 3)
        assert world.program("P") is comms
        with pytest.raises(KeyError):
            world.program("missing")

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            DesWorld().create_program("P", 0)

    def test_two_programs_are_isolated(self):
        """Same-rank processes of different programs never cross-talk."""
        world = DesWorld()
        world.create_program("A", 2)
        world.create_program("B", 2)
        got = {}

        def a_main(comm):
            comm.send("from-A", dest=1, tag=1)
            return None
            yield  # pragma: no cover - makes this a generator

        def b_main(comm):
            if comm.rank == 1:
                # B.1 must NOT receive A's message even with wildcards.
                has = comm.iprobe()
                got["b_probe"] = has
            return None
            yield  # pragma: no cover

        def a1_recv(comm):
            if comm.rank == 1:
                msg = yield comm.recv(source=0, tag=1)
                got["a_recv"] = msg.payload

        world.spawn_all("A", a_main)
        world.spawn_all("B", b_main)
        world.spawn_all("A", a1_recv)
        world.run()
        assert got["a_recv"] == "from-A"
        assert got.get("b_probe") is False

    def test_message_counters(self):
        world = DesWorld()
        world.create_program("P", 2)
        done = {}

        def main(comm):
            if comm.rank == 0:
                comm.send("x", dest=1)
            else:
                yield comm.recv(source=0)
            done[comm.rank] = (comm.sent_messages, comm.received_messages)

        world.spawn_all("P", main)
        world.run()
        assert done[0] == (1, 0)
        assert done[1] == (0, 1)

    def test_send_out_of_range_dest(self):
        world = DesWorld()
        comms = world.create_program("P", 2)
        with pytest.raises(ValueError, match="out of range"):
            comms[0].send("x", dest=5)

    def test_shared_simulator(self):
        from repro.des import Simulator

        sim = Simulator()
        world = DesWorld(sim=sim)
        assert world.sim is sim


class TestThreadWorld:
    def test_duplicate_program_rejected(self):
        world = ThreadWorld()
        world.create_program("P", 2)
        with pytest.raises(ValueError, match="already exists"):
            world.create_program("P", 2)

    def test_register_is_idempotent(self):
        world = ThreadWorld()
        a = world.register(("extra", 0))
        b = world.register(("extra", 0))
        assert a is b
        assert world.mailbox(("extra", 0)) is a

    def test_program_accessor(self):
        world = ThreadWorld()
        comms = world.create_program("P", 2)
        assert world.program("P") is comms

    def test_hung_rank_reported(self):
        def main(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=99, timeout=None)  # nobody sends
            return None

        world = ThreadWorld(default_timeout=None)
        world.create_program("P", 2)
        with pytest.raises(RuntimeError, match="did not finish"):
            world.run_program("P", main, join_timeout=0.3)

    def test_multiple_sequential_programs(self):
        world = ThreadWorld(default_timeout=5.0)
        world.create_program("A", 2)
        world.create_program("B", 3)
        ra = world.run_program("A", lambda c: c.allreduce(1, SUM))
        rb = world.run_program("B", lambda c: c.allreduce(1, SUM))
        assert ra == [2, 2]
        assert rb == [3, 3, 3]

    def test_abort_wakes_every_blocked_receive(self):
        """More receivers than cores, blocked with no timeout, each on
        its own mailbox: one ``abort`` ends every one of them at once,
        and a receive begun after it does not block either."""
        world = ThreadWorld(default_timeout=None)
        boxes = [world.register(("box", i)) for i in range(8)]
        outcomes: list[BaseException] = []
        lock = threading.Lock()

        def receive(box):
            try:
                box.get(lambda _m: True)
            except MailboxAborted as exc:
                with lock:
                    outcomes.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=receive, args=(b,)) for b in boxes]
            for t in threads:
                t.start()
            time.sleep(0.05)
            world.abort()
            for t in threads:
                t.join(timeout=2.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(outcomes) == len(boxes)
        with pytest.raises(MailboxAborted):
            boxes[0].get(lambda _m: True)
