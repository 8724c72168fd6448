"""Tests for Store: FIFO, blocking, matched receives."""

from repro.des import Simulator, Store


class TestBasicFifo:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def proc():
            store.put_nowait("a")
            store.put_nowait("b")
            got.append((yield store.get()))
            got.append((yield store.get()))

        sim.process(proc())
        sim.run()
        assert got == ["a", "b"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter():
            item = yield store.get()
            got.append((item, sim.now))

        def putter():
            yield sim.timeout(3.0)
            store.put_nowait("x")

        sim.process(getter())
        sim.process(putter())
        sim.run()
        assert got == [("x", 3.0)]

    def test_multiple_getters_served_fifo(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter(tag):
            item = yield store.get()
            got.append((tag, item))

        def putter():
            yield sim.timeout(1.0)
            store.put_nowait(1)
            store.put_nowait(2)

        sim.process(getter("first"))
        sim.process(getter("second"))
        sim.process(putter())
        sim.run()
        assert got == [("first", 1), ("second", 2)]

    def test_each_item_delivered_exactly_once(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter():
            item = yield store.get()
            got.append(item)

        for _ in range(3):
            sim.process(getter())

        def putter():
            yield sim.timeout(1.0)
            for i in range(3):
                store.put_nowait(i)

        sim.process(putter())
        sim.run()
        assert sorted(got) == [0, 1, 2]

    def test_len_and_inspection(self):
        sim = Simulator()
        store = Store(sim)
        store.put_nowait("a")
        store.put_nowait("b")
        assert len(store) == 2
        assert not store.is_empty
        assert store.peek_all() == ["a", "b"]
        assert len(store) == 2  # peek does not consume

    def test_nowait_operations(self):
        sim = Simulator()
        store = Store(sim)
        store.put_nowait("x")  # nobody waits: buffered
        first = store.get()
        second = store.get()  # nothing buffered: parks
        store.put_nowait("y")  # handed to the parked getter
        sim.run()
        assert (first.value, second.value) == ("x", "y")
        assert store.is_empty


class TestMatchedReceive:
    def test_matching_item_taken_others_left(self):
        sim = Simulator()
        store = Store(sim)
        store.put_nowait(("red", 1))
        store.put_nowait(("blue", 2))
        got = []

        def proc():
            item = yield store.get_matching(lambda it: it[0] == "blue")
            got.append(item)

        sim.process(proc())
        sim.run()
        assert got == [("blue", 2)]
        assert store.peek_all() == [("red", 1)]

    def test_blocked_matcher_woken_by_matching_put_only(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def matcher():
            item = yield store.get_matching(lambda it: it == "wanted")
            got.append((item, sim.now))

        def producer():
            yield sim.timeout(1.0)
            store.put_nowait("other")
            yield sim.timeout(1.0)
            store.put_nowait("wanted")

        sim.process(matcher())
        sim.process(producer())
        sim.run()
        assert got == [("wanted", 2.0)]
        assert store.peek_all() == ["other"]

    def test_non_matching_put_goes_to_unfiltered_getter(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def filtered():
            item = yield store.get_matching(lambda it: it == "special")
            got.append(("filtered", item))

        def unfiltered():
            item = yield store.get()
            got.append(("plain", item))

        sim.process(filtered())
        sim.process(unfiltered())

        def producer():
            yield sim.timeout(1.0)
            store.put_nowait("ordinary")
            yield sim.timeout(1.0)
            store.put_nowait("special")

        sim.process(producer())
        sim.run()
        assert ("plain", "ordinary") in got
        assert ("filtered", "special") in got


class TestInlineEvents:
    """``get`` builds and triggers its event without ``Event.__init__``
    or ``succeed``: these pin every slot those would have set."""

    @staticmethod
    def _slots(ev):
        from repro.des.core import Event

        return {name: getattr(ev, name) for name in Event.__slots__}

    def test_buffered_item_event_has_every_slot_of_a_succeeded_one(self):
        from repro.des.core import Event

        sim = Simulator()
        store = Store(sim)
        store.put_nowait("a")
        store.put_nowait("b")
        expected = self._slots(Event(sim).succeed("a"))
        assert self._slots(store.get()) == expected
        assert self._slots(store.get_matching(lambda item: item == "b")) == {
            **expected, "_value": "b",
        }

    def test_parked_getter_event_has_every_slot_of_a_pending_one(self):
        from repro.des.core import Event

        sim = Simulator()
        store = Store(sim)
        pending = self._slots(Event(sim))
        matched, plain = store.get_matching(lambda item: item == "m"), store.get()
        assert self._slots(plain) == pending
        assert self._slots(matched) == pending
        store.put_nowait("x")  # wakes the plain getter, as ``succeed`` would
        store.put_nowait("m")
        assert self._slots(matched) == self._slots(Event(sim).succeed("m"))
        assert self._slots(plain) == self._slots(Event(sim).succeed("x"))
