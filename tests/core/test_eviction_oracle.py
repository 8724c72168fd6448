"""Differential test: ordered-pool eviction against the former full scans.

``BufferManager.free_below`` / ``attribute_window`` walk the pool from
its oldest entry and stop at their bound, and
``RegionExportState.collect_evictions`` returns before building any
keep-set when the oldest entry is not below the eviction line.  The
bodies they replaced — scan every live entry, build every keep-set on
every call — are kept here as the reference (the pattern of the
plain-heap scheduler in ``tests/des/test_core.py``).  Hypothesis drives
both through the same interleavings of exports, forwarded requests,
buddy answers and sends; after every step the freed lists (order
included), both Eq. (1)-(2) ledgers and the live sets must be equal.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.buffers import BufferManager
from repro.core.config import ConnectionSpec, Endpoint
from repro.core.exporter import RegionExportState
from repro.match.policies import MatchPolicy, PolicyKind
from repro.match.result import FinalAnswer, MatchKind
from repro.util.validation import require


class _ScanBufferManager(BufferManager):
    """The O(live) pool walks, verbatim from before the ordered pool."""

    def attribute_window(self, low, high, window):
        count = 0
        for ts, entry in self._entries.items():
            if entry.window is None and low <= ts <= high:
                entry.window = window
                count += 1
        return count

    def free_below(self, threshold, keep=()):
        require(not math.isnan(threshold), "threshold must be a number")
        kept = set(keep)
        doomed = sorted(ts for ts in self._entries if ts < threshold and ts not in kept)
        return [self.free(ts) for ts in doomed]


class _ScanRegionExportState(RegionExportState):
    """Keep-sets built and the whole pool scanned on every call."""

    def __init__(self, region_name, connections):
        super().__init__(region_name, connections)
        self.buffer = _ScanBufferManager()

    def collect_evictions(self):
        keep = set()
        for conn in self.connections.values():
            keep |= conn.keep_set()
        keep = {
            ts
            for ts in keep
            if not (self.buffer.has(ts) and self.buffer.get(ts).sent)
        }
        return self.buffer.free_below(self.evict_threshold(), keep=keep)


def _connections(policies):
    return [
        ConnectionSpec(
            exporter=Endpoint("F", "d"),
            importer=Endpoint(f"U{i}", "d"),
            policy=MatchPolicy(kind, tol),
            disjoint_regions=disjoint,
        )
        for i, (kind, tol, disjoint) in enumerate(policies)
    ]


def _final_answers(conns, export_ts, requests):
    """What a peer that already exported everything decides (buddy-help)."""
    peer = RegionExportState("d", conns)
    for ts in export_ts:
        peer.on_export(ts, nbytes=8, memcpy_cost=1.0)
    peer.close()
    answers = {}
    for conn, reqs in zip(conns, requests):
        for r in reqs:
            resp = peer.on_request(conn.connection_id, r).response
            answers[(conn.connection_id, r)] = FinalAnswer(
                request_ts=r, kind=resp.kind, matched_ts=resp.matched_ts
            )
    return answers


class _Driven:
    """One region state plus the runtime's bookkeeping around it."""

    def __init__(self, state):
        self.state = state
        #: Matches whose pieces are due: ``_send_pieces`` marks them sent.
        self.due = []

    def _after(self, applied, cid):
        if applied is not None and applied.send_now is not None:
            self.due.append((cid, applied.send_now))

    def export(self, ts):
        out = self.state.on_export(ts, nbytes=8, memcpy_cost=1.0)
        self.due += [(cid, ts) for cid in out.send_connections]
        self.due += list(out.post_sends)
        return (
            out.decision,
            out.window,
            out.send_connections,
            [e.ts for e in out.replaced],
            [(cid, r.request_ts, r.kind, r.matched_ts) for cid, r in out.new_responses],
            out.post_sends,
            out.buddy_skip,
            out.buddy_enabler,
        )

    def request(self, cid, ts):
        out = self.state.on_request(cid, ts)
        self._after(out.applied, cid)
        return (out.response.kind, out.response.matched_ts, out.window)

    def buddy(self, cid, answer):
        applied = self.state.on_buddy_answer(cid, answer)
        self._after(applied, cid)
        return (applied.send_now, applied.was_news)

    def send(self):
        if not self.due:
            return None
        _cid, m = self.due.pop(0)
        buf = self.state.buffer
        if buf.has(m) and not buf.get(m).sent:
            buf.mark_sent(m)
        return m

    def evict(self):
        return [e.ts for e in self.state.collect_evictions()]

    def snapshot(self):
        buf = self.state.buffer
        return (
            [(ts, buf.get(ts).window, buf.get(ts).sent) for ts in buf.timestamps()],
            dict(buf.t_by_window),
            buf.t_ub(),
            buf.freed_unsent_count,
            buf.unnecessary_total_time,
            buf.live_bytes,
            [
                (c.skip_threshold, sorted(c.open_requests), sorted(c.must_send))
                for c in self.state.connections.values()
            ],
        )


_POLICY = st.tuples(
    st.sampled_from([PolicyKind.REGL, PolicyKind.REGU, PolicyKind.REG]),
    st.sampled_from([0.5, 1.0, 2.5, 4.0]),
    st.booleans(),
)
_STEP = st.sampled_from(
    ["export"] * 5 + ["request0", "request1", "buddy0", "buddy1", "send", "evict"]
)


@given(
    policies=st.lists(_POLICY, min_size=1, max_size=2),
    gaps=st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]), min_size=25, max_size=60),
    request_slack=st.lists(
        st.sampled_from([0.25, 1.0, 3.5, 9.0]), min_size=8, max_size=8
    ),
    steps=st.lists(_STEP, min_size=30, max_size=150),
)
@settings(max_examples=150, deadline=None)
def test_ordered_eviction_equals_full_scan(policies, gaps, request_slack, steps):
    conns = _connections(policies)
    export_ts = []
    t = 1.0
    for gap in gaps:
        t += gap
        export_ts.append(t)
    # Successive acceptable regions stay disjoint (the Eq. 2 assumption):
    # requests of one connection are more than two tolerances apart.
    requests = []
    for i, (_kind, tol, _disjoint) in enumerate(policies):
        r, reqs = 0.0, []
        for slack in request_slack[4 * i : 4 * i + 4]:
            r += 2 * tol + slack
            reqs.append(r)
        requests.append(reqs)
    answers = _final_answers(conns, export_ts, requests)

    new = _Driven(RegionExportState("d", conns))
    old = _Driven(_ScanRegionExportState("d", conns))
    next_export = 0
    next_request = [0] * len(conns)
    for step in steps:
        if step == "export":
            if next_export == len(export_ts):
                continue
            args = ("export", export_ts[next_export])
            next_export += 1
        elif step.startswith("request"):
            i = int(step[-1])
            if i >= len(conns) or next_request[i] == len(requests[i]):
                continue
            args = ("request", conns[i].connection_id, requests[i][next_request[i]])
            next_request[i] += 1
        elif step.startswith("buddy"):
            i = int(step[-1])
            if i >= len(conns):
                continue
            cid = conns[i].connection_id
            # The rep helps the ranks that answered PENDING.
            pending = sorted(new.state.connections[cid].open_requests)
            if not pending:
                continue
            args = ("buddy", cid, answers[(cid, pending[0])])
        else:
            args = (step,)
        results = [getattr(side, args[0])(*args[1:]) for side in (new, old)]
        assert results[0] == results[1], (args, results)
        if args[0] != "send":
            # Every runtime entry point ends with the eviction sweep.
            freed = [side.evict() for side in (new, old)]
            assert freed[0] == freed[1], (args, freed)
            assert freed[0] == sorted(freed[0])
        assert new.snapshot() == old.snapshot(), args


def test_scenario_reaches_protected_entries_below_the_line():
    """The generated space is not vacuous: one hand-written run where an
    unsent match sits below the eviction line (kept), is sent, and is
    then freed by the next sweep — on both implementations."""
    conns = _connections([(PolicyKind.REGL, 2.5, True)])
    [cid] = [c.connection_id for c in conns]
    for state in (RegionExportState("d", conns), _ScanRegionExportState("d", conns)):
        side = _Driven(state)
        for k in range(25):
            side.export(1.6 + k)
        assert side.request(cid, 20.0)[:2] == (MatchKind.MATCH, 19.6)
        assert side.evict() == [1.6 + k for k in range(18)]  # 19.6 protected
        assert state.buffer.oldest() == 19.6 < state.evict_threshold()
        assert side.evict() == []
        assert side.send() == 19.6
        assert side.evict() == [19.6]
        # 17.6 and 18.6 were in-region candidates that lost to 19.6 (Eq. 1).
        assert state.buffer.t_ub() == 2.0 and state.buffer.freed_unsent_count == 18
