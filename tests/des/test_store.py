"""Tests for Store/FilterStore: FIFO, blocking, matched receives."""

import pytest

from repro.des import FilterStore, Simulator, Store, StoreFullError


class TestBasicFifo:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def proc():
            store.put("a")
            store.put("b")
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
            store.put("x")

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
            store.put(1)
            store.put(2)

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
                store.put(i)

        sim.process(putter())
        sim.run()
        assert sorted(got) == [0, 1, 2]

    def test_len_and_inspection(self):
        sim = Simulator()
        store = Store(sim)
        store.put("a")
        store.put("b")
        assert len(store) == 2
        assert not store.is_empty
        assert store.peek_all() == ["a", "b"]
        assert len(store) == 2  # peek does not consume

    def test_nowait_operations(self):
        sim = Simulator()
        store = Store(sim)
        store.put_nowait("x")
        assert store.get_nowait() == "x"
        with pytest.raises(IndexError):
            store.get_nowait()


class TestBoundedStore:
    def test_put_nowait_raises_when_full(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        store.put_nowait("a")
        with pytest.raises(StoreFullError):
            store.put_nowait("b")

    def test_put_blocks_when_full(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        done = []

        def producer():
            yield store.put("a")
            yield store.put("b")  # blocks until consumer takes "a"
            done.append(sim.now)

        def consumer():
            yield sim.timeout(2.0)
            item = yield store.get()
            assert item == "a"

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert done == [2.0]

    def test_is_full(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        store.put("a")
        assert not store.is_full
        store.put("b")
        assert store.is_full


class TestMatchedReceive:
    def test_matching_item_taken_others_left(self):
        sim = Simulator()
        store = FilterStore(sim)
        store.put(("red", 1))
        store.put(("blue", 2))
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
        store = FilterStore(sim)
        got = []

        def matcher():
            item = yield store.get_matching(lambda it: it == "wanted")
            got.append((item, sim.now))

        def producer():
            yield sim.timeout(1.0)
            store.put("other")
            yield sim.timeout(1.0)
            store.put("wanted")

        sim.process(matcher())
        sim.process(producer())
        sim.run()
        assert got == [("wanted", 2.0)]
        assert store.peek_all() == ["other"]

    def test_non_matching_put_goes_to_unfiltered_getter(self):
        sim = Simulator()
        store = FilterStore(sim)
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
            store.put("ordinary")
            yield sim.timeout(1.0)
            store.put("special")

        sim.process(producer())
        sim.run()
        assert ("plain", "ordinary") in got
        assert ("filtered", "special") in got

    def test_waiting_getters_counter(self):
        sim = Simulator()
        store = FilterStore(sim)

        def proc():
            yield store.get()

        sim.process(proc())
        sim.run()  # process parks on get
        assert store.waiting_getters == 1
