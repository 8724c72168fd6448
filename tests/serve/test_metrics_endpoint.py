"""``GET /metrics`` and ``GET /fleet`` against a live server: the
scrape surface the fleet watchdog and any OpenMetrics collector sit
on.  Drives a real multi-session fleet — including a crashing session
— purely over the wire."""

from __future__ import annotations

from typing import Iterator

import pytest

from repro.obs import validate_report_payload
from repro.obs.stream import validate_openmetrics
from repro.serve import ServeConfig, SessionServer
from repro.serve.spec import SessionSpec

from tests.serve.conftest import ServerHandle, small_spec, start_server


@pytest.fixture(scope="module")
def fleet_server() -> Iterator[ServerHandle]:
    """A server that has already run a small mixed fleet:
    two clean demo sessions and one crashing one."""
    handle, stop = start_server(
        ServeConfig(workers=2, max_sessions=16, drain_timeout=20.0)
    )
    try:
        for label in ("clean-a", "clean-b"):
            info = handle.client.submit(small_spec(label=label))
            assert handle.client.wait(info["id"], timeout=30)["state"] == "done"
        crash = handle.client.submit(
            small_spec(
                scenario="crash", label="boom", params={"crash_after": 3}
            )
        )
        assert handle.client.wait(crash["id"], timeout=30)["state"] == "failed"
        yield handle
    finally:
        stop()


class TestMetricsEndpoint:
    def test_scrape_validates_as_openmetrics(self, fleet_server):
        text = fleet_server.client.metrics()
        assert validate_openmetrics(text) == []
        assert text.endswith("# EOF\n")

    def test_fleet_series_present(self, fleet_server):
        text = fleet_server.client.metrics()
        assert 'repro_fleet_sessions_total{scenario="demo",state="done"} 2' in text
        assert (
            'repro_fleet_sessions_total{scenario="crash",state="failed"} 1' in text
        )
        assert 'repro_fleet_error_rate{scenario="demo"} 0' in text
        assert 'repro_fleet_error_rate{scenario="crash"} 1' in text
        assert 'repro_fleet_t_ub_seconds{scenario="demo",quantile="0.95"}' in text
        assert 'repro_fleet_t_ub_samples_total{scenario="demo"} 2' in text

    def test_server_internals_present(self, fleet_server):
        text = fleet_server.client.metrics()
        assert 'repro_server_sessions{state="done"}' in text
        assert "repro_server_workers 2" in text
        assert "repro_server_telemetry_published_total" in text

    def test_fleet_endpoint_payload(self, fleet_server):
        payload = fleet_server.client.fleet()
        assert payload["schema"] == "repro.report/v1"
        assert validate_report_payload(payload) == []
        assert payload["draining"] is False
        groups = payload["aggregate"]["groups"]
        demo = groups["demo"]
        assert demo["sessions"]["done"] == 2
        assert demo["errors"] == 0
        assert demo["t_ub"]["summary"]["count"] == 2
        assert demo["t_ub"]["summary"]["p95"] > 0
        crash = groups["crash"]
        assert crash["errors"] == 1
        assert crash["error_rate"] == 1.0
        # The failed session left no latency sample behind.
        assert crash["t_ub"]["summary"]["count"] == 0
        totals = payload["aggregate"]["totals"]
        assert totals["sessions_total"] == 3
        assert totals["errors"] == 1

    def test_rollup_consistent_with_scrape(self, fleet_server):
        # /fleet and /metrics render the same registry aggregate.
        payload = fleet_server.client.fleet()
        rate = payload["aggregate"]["groups"]["crash"]["error_rate"]
        assert (
            f'repro_fleet_error_rate{{scenario="crash"}} {rate:g}'
            in fleet_server.client.metrics()
        )


class TestMetricsWithoutProfile:
    def test_default_server_scrapes_clean_without_profile_series(self, server):
        info = server.client.submit(small_spec())
        server.client.wait(info["id"], timeout=30)
        text = server.client.metrics()
        assert validate_openmetrics(text) == []
        assert "repro_fleet_sessions_total" in text
        # The sampling profiler is a library tool: it publishes no family.
        assert "repro_profile_samples" not in text

    def test_empty_registry_scrapes_clean(self, server):
        assert validate_openmetrics(server.client.metrics()) == []


class TestMetricsGrouping:
    def test_subscriber_families_validate_with_two_attached_sessions(self):
        # Two running sessions with subscribers: the two per-session
        # subscriber families used to come out interleaved.
        server = SessionServer(ServeConfig(workers=1))
        registry = server.registry
        for label in ("a", "b"):
            session = registry.create(SessionSpec.from_dict(small_spec(label=label)))
            registry.mark_started(session.id, 1)
            registry.attach(session.id)
            registry.publish(session.id, [b"{}\n", b"{}\n"])
        text = server.render_metrics()
        assert validate_openmetrics(text) == []
        lines = text.splitlines()
        at = lines.index("# TYPE repro_server_subscribers gauge")
        assert [line.split("{")[0] for line in lines[at + 2:at + 7]] == [
            "repro_server_subscribers", "repro_server_subscribers",
            "# TYPE repro_server_subscriber_queue_depth gauge",
            "# HELP repro_server_subscriber_queue_depth Queued telemetry records per "
            "session, summed over its subscribers",
            "repro_server_subscriber_queue_depth",
        ]
