"""Tests for the declarative fault plan (plan.py)."""

import math

import pytest

from repro.faults import FaultPlan, classify_plane
from repro.faults.plan import FRAMEWORK_PLANES
from repro.util.validation import ValidationError


class TestClassifyPlane:
    @pytest.mark.parametrize(
        "address,plane",
        [
            (("ctl", "F", 0), "ctl"),
            (("cpl", "U", 3), "cpl"),
            (("rep", "F"), "rep"),
            (("F", 0), None),      # application plane
            ("dst", None),         # not a framework address at all
            ((), None),
        ],
    )
    def test_classification(self, address, plane):
        assert classify_plane(address) == plane


class TestFaultPlanValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop": -0.1},
            {"drop": 1.5},
            {"dup": 2.0},
            {"reorder": -1.0},
            {"delay_jitter": -1e-3},
            {"planes": frozenset({"ctl", "nope"})},
            {"start": 5.0, "stop": 1.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            FaultPlan(**kwargs)

    def test_default_is_noop(self):
        plan = FaultPlan()
        assert plan.is_noop
        assert plan.planes == FRAMEWORK_PLANES

    def test_any_probability_defeats_noop(self):
        assert not FaultPlan(drop=0.1).is_noop
        assert not FaultPlan(dup=0.1).is_noop
        assert not FaultPlan(delay_jitter=1e-3).is_noop
        assert not FaultPlan(reorder=0.1).is_noop


class TestPlanSemantics:
    def test_eligible_planes(self):
        plan = FaultPlan(drop=0.5, planes=frozenset({"ctl"}))
        assert plan.eligible("ctl")
        assert not plan.eligible("cpl")
        assert not plan.eligible(None)

    def test_active_window(self):
        plan = FaultPlan(drop=0.5, start=1.0, stop=2.0)
        assert not plan.active(0.5)
        assert plan.active(1.0)
        assert plan.active(1.999)
        assert not plan.active(2.0)

    def test_default_window_is_everything(self):
        plan = FaultPlan(drop=0.5)
        assert plan.active(0.0)
        assert plan.active(1e12)
        assert plan.stop == math.inf

    def test_effective_reorder_delay(self):
        plan = FaultPlan(reorder=0.5, delay_jitter=2e-3)
        # Default: a few packet-times beyond latency + jitter.
        assert plan.effective_reorder_delay(1e-3) == pytest.approx(4.0 * 3e-3)
        explicit = FaultPlan(reorder=0.5, reorder_delay=7e-3)
        assert explicit.effective_reorder_delay(1e-3) == 7e-3

    def test_describe_summarizes_the_knobs(self):
        d = FaultPlan(seed=3, drop=0.25, dup=0.5, planes=frozenset({"rep"})).describe()
        assert d["seed"] == 3
        assert d["drop"] == 0.25
        assert d["dup"] == 0.5
        assert d["planes"] == ["rep"]
        assert d["protect_data"] is True


class TestDecide:
    """Both runtimes decide each message's fate through :meth:`FaultPlan.decide`."""

    PLAN = FaultPlan(seed=11, drop=0.3, dup=0.3, delay_jitter=0.5, reorder=0.3)
    CTL = ("ctl", "F", 0)

    @staticmethod
    def payloads():
        from repro.core.wire import DataPiece, FwdRequest
        from repro.data.region import RectRegion

        piece = DataPiece(
            connection_id="c", match_ts=1.0, src_rank=0,
            region=RectRegion((0, 0), (1, 1)), data=None, nbytes=8,
        )
        return [FwdRequest(connection_id="c", request_ts=float(k)) for k in range(40)] + [
            piece
        ] * 20

    def test_draws_five_uniforms_whatever_the_outcome(self):
        from repro.util.rng import RngRegistry

        for plan in (FaultPlan(seed=3), self.PLAN):
            stream, witness = (RngRegistry(seed=3).stream("faults/ctl") for _ in range(2))
            for _ in range(10):
                plan.decide(stream, 1.0, "payload")
            for _ in range(50):
                witness.random()
            assert stream.random() == witness.random()

    def test_both_runtimes_make_the_same_decisions(self, monkeypatch):
        from repro.des import Simulator
        from repro.faults import FaultyNetwork, LiveFaultInjector

        decided = []
        real = FaultPlan.decide

        def spy(plan, *args):
            decided.append(real(plan, *args))
            return decided[-1]

        monkeypatch.setattr(FaultPlan, "decide", spy)
        net = FaultyNetwork(Simulator(), self.PLAN)
        net.register(self.CTL)
        for msg in self.payloads():
            net.send(("ctl", "U", 0), self.CTL, msg)
        des, decided[:] = list(decided), []

        class World:
            def __init__(self):
                self.posted = []

            def mailbox(self, address):
                return self

            def put(self, msg):
                self.posted.append(msg)

        injector = LiveFaultInjector(self.PLAN, delay_scale=1e-9)
        for msg in self.payloads():
            injector(World(), self.CTL, msg)
        assert decided == des
        assert {"drop", "dup", "reordered"} <= {
            key for d in des for key in ("drop", "dup", "reordered") if getattr(d, key)
        }
        assert not any(d.drop for d in des[40:])  # protect_data spares DataPieces
        assert (injector.dropped, injector.duplicated) == (
            net.stats.dropped, net.stats.duplicated
        )
