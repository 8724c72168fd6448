"""Tests for Network/Channel: latency, bandwidth, congestion, ordering."""

import pytest

from repro.des import Channel, Network, Simulator


class TestNetworkDelivery:
    def test_latency_only(self):
        sim = Simulator()
        net = Network(sim, latency=0.5)
        net.register("a")
        net.register("b")
        got = []

        def receiver():
            d = yield net.mailbox("b").get()
            got.append((d.payload, sim.now, d.sent_at))

        sim.process(receiver())
        net.send("a", "b", "hello", nbytes=0)
        sim.run()
        assert got == [("hello", 0.5, 0.0)]

    def test_bandwidth_term(self):
        sim = Simulator()
        net = Network(sim, latency=0.0, bandwidth=100.0)
        net.register("a")
        net.register("b")
        got = []

        def receiver():
            d = yield net.mailbox("b").get()
            got.append(sim.now)
            del d

        sim.process(receiver())
        net.send("a", "b", "payload", nbytes=50)
        sim.run()
        assert got == [pytest.approx(0.5)]

    def test_unknown_destination_rejected(self):
        sim = Simulator()
        net = Network(sim)
        net.register("a")
        with pytest.raises(ValueError, match="unknown destination"):
            net.send("a", "nowhere", "x")

    def test_nan_size_rejected(self):
        sim = Simulator()
        net = Network(sim, bandwidth=100.0)
        net.register("a")
        net.register("b")
        with pytest.raises(ValueError, match="nbytes must be >= 0"):
            net.send("a", "b", "x", nbytes=float("nan"))
        assert net.messages_sent == 0 and sim.events_scheduled == 0

    def test_fifo_between_same_pair(self):
        sim = Simulator()
        net = Network(sim, latency=0.1)
        net.register("a")
        net.register("b")
        got = []

        def receiver():
            for _ in range(3):
                d = yield net.mailbox("b").get()
                got.append(d.payload)

        sim.process(receiver())
        for i in range(3):
            net.send("a", "b", i)
        sim.run()
        assert got == [0, 1, 2]

    def test_counters(self):
        sim = Simulator()
        net = Network(sim, latency=0.1)
        net.register("a")
        net.register("b")
        net.send("a", "b", "x", nbytes=100)
        net.send("a", "b", "y", nbytes=200)
        assert net.messages_sent == 2
        assert net.bytes_sent == 300
        assert net.in_flight == 2
        sim.run()
        assert net.in_flight == 0

    def test_delivery_envelope_fields(self):
        sim = Simulator()
        net = Network(sim, latency=1.0)
        net.register("src")
        net.register("dst")
        captured = []

        def receiver():
            d = yield net.mailbox("dst").get()
            captured.append(d)

        sim.process(receiver())
        net.send("src", "dst", {"k": 1}, nbytes=8)
        sim.run()
        (d,) = captured
        assert d.src == "src"
        assert d.dst == "dst"
        assert d.nbytes == 8
        assert d.delivered_at == 1.0


class TestCongestion:
    def test_congestion_scales_delay(self):
        sim = Simulator()
        net = Network(
            sim, latency=1.0, congestion=lambda active: 1.0 + active
        )
        net.register("a")
        net.register("b")
        times = []

        def receiver():
            for _ in range(2):
                d = yield net.mailbox("b").get()
                times.append((d.payload, sim.now))

        sim.process(receiver())
        net.send("a", "b", "first")   # 0 others in flight: delay 1.0
        net.send("a", "b", "second")  # 1 other in flight: delay 2.0
        sim.run()
        assert times == [("first", 1.0), ("second", 2.0)]

    def test_transfer_delay_query(self):
        sim = Simulator()
        net = Network(sim, latency=0.5, bandwidth=10.0)
        assert net.transfer_delay(5) == pytest.approx(1.0)


class TestChannel:
    def test_bidirectional(self):
        sim = Simulator()
        ch = Channel(sim, latency=0.25)
        log = []

        def side_a():
            ch.send("a", "ping")
            d = yield ch.recv("a")
            log.append(("a got", d.payload, sim.now))

        def side_b():
            d = yield ch.recv("b")
            log.append(("b got", d.payload, sim.now))
            ch.send("b", "pong")

        sim.process(side_a())
        sim.process(side_b())
        sim.run()
        assert ("b got", "ping", 0.25) in log
        assert ("a got", "pong", 0.5) in log

    def test_invalid_side(self):
        sim = Simulator()
        ch = Channel(sim)
        with pytest.raises(ValueError):
            ch.send("c", "x")
