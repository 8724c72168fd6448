"""Property test: the DES kernel is deterministic under arbitrary load.

Every experiment's credibility rests on this: for any randomly
generated process graph (timers, store traffic, network messages), two
executions produce identical event logs.  Hypothesis generates the
graphs; we run each twice and compare.
"""

from hypothesis import given, settings, strategies as st

from repro.des import Network, Simulator, Store


def _run_scenario(spec):
    """Execute one generated scenario; return the ordered event log."""
    sim = Simulator()
    net = Network(sim, latency=0.001, bandwidth=1e6)
    store = Store(sim)
    log = []
    n_workers = spec["workers"]
    for w in range(n_workers):
        net.register(("w", w))

    def worker(idx, plan):
        for op, arg in plan:
            if op == "sleep":
                yield sim.timeout(arg)
                log.append(("slept", idx, round(sim.now, 9)))
            elif op == "put":
                store.put_nowait((idx, arg))
                log.append(("put", idx, arg))
            elif op == "get":
                item = yield store.get()
                log.append(("got", idx, item, round(sim.now, 9)))
            elif op == "send":
                peer = arg % n_workers
                net.send(("w", idx), ("w", peer), f"m{idx}", nbytes=arg * 10)
                log.append(("sent", idx, peer))
            elif op == "recv":
                d = yield net.mailbox(("w", idx)).get()
                log.append(("recv", idx, d.payload, round(sim.now, 9)))

    # Balance gets/recvs with puts/sends so nothing deadlocks: count
    # totals and truncate unmatched blocking ops.
    puts = sum(1 for p in spec["plans"] for op, _ in p if op == "put")
    sends_to = [0] * n_workers
    for p in spec["plans"]:
        for op, arg in p:
            if op == "send":
                sends_to[arg % n_workers] += 1
    gets_allowed = puts
    recvs_allowed = list(sends_to)
    trimmed = []
    for p in spec["plans"]:
        plan = []
        for op, arg in p:
            if op == "get":
                if gets_allowed <= 0:
                    continue
                gets_allowed -= 1
            plan.append((op, arg))
        trimmed.append(plan)
    final = []
    for idx, plan in enumerate(trimmed):
        kept = []
        for op, arg in plan:
            if op == "recv":
                if recvs_allowed[idx] <= 0:
                    continue
                recvs_allowed[idx] -= 1
            kept.append((op, arg))
        final.append(kept)

    for idx, plan in enumerate(final):
        sim.process(worker(idx, plan), name=f"w{idx}")
    sim.run()
    return log


ops = st.one_of(
    st.tuples(st.just("sleep"), st.floats(0.0, 0.1, allow_nan=False)),
    st.tuples(st.just("put"), st.integers(0, 5)),
    st.tuples(st.just("get"), st.just(0)),
    st.tuples(st.just("send"), st.integers(0, 7)),
    st.tuples(st.just("recv"), st.just(0)),
)


class TestDeterminism:
    @given(
        workers=st.integers(1, 5),
        plans_seed=st.lists(st.lists(ops, max_size=12), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_runs_identical(self, workers, plans_seed):
        plans = (plans_seed * workers)[:workers]
        spec = {"workers": workers, "plans": plans}
        first = _run_scenario(spec)
        second = _run_scenario(spec)
        assert first == second
