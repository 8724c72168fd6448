"""collect_metrics over a finished coupled run — the full catalog."""

from dataclasses import replace

import pytest

import repro
from repro.faults.plan import FaultPlan
from repro.obs.collect import AGGREGATE_CASES, collect_metrics
from repro.obs.metrics import MetricsRegistry
from tests.core.test_shared_steps import CONFIG as LINE
from tests.core.test_shared_steps import LIVE, des_programs, live_programs


@pytest.fixture(scope="module")
def snap(demo_result):
    return collect_metrics(demo_result.simulation).snapshot()


class TestKernelMetrics:
    def test_scheduled_splits_by_lane(self, snap, demo_result):
        heap = snap.value("des.events.scheduled", lane="heap")
        fast = snap.value("des.events.scheduled", lane="fast")
        kc = demo_result.simulation.sim.kernel_counters()
        assert heap == kc["heap_scheduled"]
        assert fast == kc["fast_lane_scheduled"]
        assert heap + fast == kc["scheduled"]

    def test_dispatched_bounded_by_scheduled(self, snap):
        assert 0 < snap.value("des.events.dispatched") <= snap.total(
            "des.events.scheduled"
        )


class TestWireMetrics:
    def test_planes_match_run_counters(self, snap, demo_result):
        assert snap.value("net.messages", plane="ctl") == demo_result.counters[
            "ctl_messages"
        ]
        assert snap.value("net.bytes", plane="data") == demo_result.counters[
            "data_bytes"
        ]


class TestVmpiMetrics:
    def test_kind_split_sums_to_total(self, snap):
        for program in ("F", "U"):
            total = snap.value("vmpi.messages.sent", program=program)
            p2p = snap.value(
                "vmpi.messages.sent.by_kind", program=program, kind="p2p"
            )
            coll = snap.value(
                "vmpi.messages.sent.by_kind", program=program, kind="collective"
            )
            assert p2p + coll == total


class TestRepMetrics:
    def test_requests_and_cases(self, snap):
        assert snap.value("rep.requests", program="F") >= 2
        case_total = sum(
            snap.value("rep.aggregate_cases", program="F", case=c)
            for c in AGGREGATE_CASES
        )
        assert case_total == snap.value("rep.finalized", program="F")

    def test_buddy_flow(self, snap):
        assert snap.value("buddy.helps_sent", program="F") > 0
        assert snap.total("buddy.answers_received") > 0
        assert snap.total("buddy.skips") > 0


class TestProcessAndBufferMetrics:
    def test_export_decisions_cover_all_exports(self, snap):
        decisions = sum(
            s.value for s in snap.samples if s.name == "export.decisions"
        )
        assert decisions == 46 * 2  # 46 exports on each of F's two ranks

    def test_buffer_conservation(self, snap):
        for rank in ("0", "1"):
            buffered = snap.value(
                "buffer.buffered", program="F", rank=rank, region="d"
            )
            sent = snap.value("buffer.sent", program="F", rank=rank, region="d")
            freed = snap.value(
                "buffer.freed_unsent", program="F", rank=rank, region="d"
            )
            assert sent + freed <= buffered

    def test_t_ub_agrees_with_paper_block(self, snap, demo_result):
        assert snap.total("buffer.t_ub") == pytest.approx(
            demo_result.paper_metrics.t_ub_total
        )

    def test_match_evaluations_labelled_by_outcome(self, snap):
        outcomes = {
            s.labels.get("outcome")
            for s in snap.samples
            if s.name == "match.evaluations"
        }
        assert "match" in outcomes
        assert "pending" in outcomes

    def test_import_latency_histogram(self, snap):
        samples = [s for s in snap.samples if s.name == "import.latency"]
        assert samples
        for s in samples:
            assert s.detail["count"] >= 1


class TestCollectIntoExistingRegistry:
    def test_registry_parameter_is_used(self, demo_result):
        reg = MetricsRegistry()
        out = collect_metrics(demo_result.simulation, registry=reg)
        assert out is reg
        assert len(reg) > 0

    def test_facade_metrics_carries_paper_block(self, demo_result):
        assert demo_result.metrics.paper is not None
        assert demo_result.metrics is demo_result.metrics  # cached




class TestLiveCatalog:
    """Both runtimes are one driver, read by attribute: on one fault-free
    two-program line, a live run reports every name a DES run does but
    the kernel's."""

    KERNEL = {"des.events.scheduled", "des.events.dispatched", "des.events.cancelled"}

    @pytest.fixture(scope="class")
    def runs(self):
        return repro.run(LINE, des_programs()), repro.run(LINE, live_programs(), LIVE)

    def test_live_names_are_the_des_names_minus_the_kernel(self, runs):
        des, live = runs
        assert set(des.metrics.names()) >= self.KERNEL
        assert live.metrics.names() == sorted(set(des.metrics.names()) - self.KERNEL)

    def test_the_paper_blocks_have_the_same_keys(self, runs):
        des, live = runs
        assert des.metrics.paper.as_dict().keys() == live.metrics.paper.as_dict().keys()

    def test_faults_come_from_a_des_run_with_a_fault_plan_only(self, runs):
        assert [run.fault_stats for run in runs] == [None, None]
        plan = FaultPlan(seed=1)  # a plan that injects nothing
        des = repro.run(LINE, des_programs(), repro.RunOptions(fault_plan=plan))
        live = repro.run(LINE, live_programs(), replace(LIVE, fault_plan=plan))
        assert des.fault_stats is not None and live.fault_stats is None
        assert des.metrics.value("faults.eligible") == des.fault_stats["eligible"] > 0
        assert not [n for n in live.metrics.names() if n.startswith("faults.")]
