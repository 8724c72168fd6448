"""Wire-level tests of the session server.

Everything here drives a real server (background thread, real worker
pool, real HTTP) through :class:`repro.serve.ServeClient` — the same
path the CLI takes.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import socket
import threading
import time
from pathlib import Path
from typing import Any

import pytest

from repro.obs.export import validate_report_payload
from repro.serve import ServeConfig, ServeError
from tests.serve.conftest import ServerHandle, small_spec, start_server

SLOW_PARAMS = {"exports": 4000, "imports": [1000.0, 3000.0]}


def local_jsonl_lines(spec: dict[str, Any], path: Path) -> list[str]:
    """What a ``JsonlSink`` file of *spec*'s run holds, a run that raises too."""
    from repro.api.facade import run as run_facade
    from repro.obs.stream import JsonlSink
    from repro.serve.scenarios import build_scenario
    from repro.serve.spec import SessionSpec

    build = build_scenario(SessionSpec.from_dict(spec))
    options = dataclasses.replace(
        build.options, telemetry_sinks=(JsonlSink(str(path)),)
    )
    try:
        run_facade(build.config, list(build.programs), options)
    except RuntimeError:
        assert spec["scenario"] == "crash"
    return path.read_text(encoding="utf-8").splitlines()


def raw_request(handle: ServerHandle, request: bytes) -> bytes:
    """One hand-written HTTP request; the whole response."""
    with socket.create_connection(("127.0.0.1", handle.server.port), timeout=10) as s:
        s.sendall(request)
        chunks = []
        while chunk := s.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestSessions:
    def test_submit_runs_to_done_with_valid_report(self, server):
        info = server.client.submit(small_spec(label="basic"))
        assert info["schema"] == "repro.serve/v1"
        assert info["state"] in ("queued", "running")
        done = server.client.wait(info["id"], timeout=30)
        assert done["state"] == "done"
        assert done["sim_time"] > 0
        report = server.client.report(info["id"])
        assert validate_report_payload(report) == []
        assert report["runs"][0]["name"] == "basic"
        assert report["runs"][0]["scenario"] == "demo"

    def test_list_and_stats(self, server):
        a = server.client.submit(small_spec())
        b = server.client.submit(small_spec())
        ids = {s["id"] for s in server.client.sessions()}
        assert {a["id"], b["id"]} <= ids
        server.client.wait(a["id"], timeout=30)
        server.client.wait(b["id"], timeout=30)
        stats = server.client.stats()
        assert stats["sessions_total"] >= 2
        assert stats["by_state"].get("done", 0) >= 2
        assert stats["workers"] == 2

    def test_unknown_session_is_404(self, server):
        with pytest.raises(ServeError) as err:
            server.client.session("s-99999-nope")
        assert err.value.status == 404

    def test_bad_spec_is_400(self, server):
        with pytest.raises(ServeError) as err:
            server.client.submit({"scenario": "demo", "bogus": 1})
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            server.client.submit({"scenario": "no_such_scenario"})
        assert err.value.status == 400

    def test_non_finite_telemetry_interval_is_400(self, server):
        # The body carries the JSON extension ``Infinity``: a DES run
        # sampled that rarely used to report sim_time = inf.
        with pytest.raises(ServeError, match="telemetry_interval") as err:
            server.client.submit({"scenario": "demo", "telemetry_interval": float("inf")})
        assert err.value.status == 400

    def test_bad_scenario_params_are_400_and_never_queued(self):
        # Its own server: "no session was created" is read off /sessions.
        handle, stop = start_server(ServeConfig(workers=1))
        try:
            for scenario, params, problem in (
                ("demo", {"exprots": 3}, "unknown param 'exprots'"),
                ("demo", {"exports": 0}, "param exports=0 is not int 1..100000"),
                ("demo", {"imports": 5}, "param imports=5 is not numbers"),
                # Sizes are refused before the event loop allocates them.
                ("fig4", {"u_procs": 10**9}, "is not int 1..1024"),
                ("resilience", {"requests": 10**9}, "is not int 1..100000"),
            ):
                with pytest.raises(ServeError) as err:
                    handle.client.submit({"scenario": scenario, "params": params})
                assert err.value.status == 400
                assert problem in str(err.value)
                assert "valid params are" in str(err.value)
            assert handle.client.sessions() == []
            assert handle.client.stats()["sessions_total"] == 0
        finally:
            stop()

    def test_every_registered_figure_is_servable(self, server):
        ids = [
            server.client.submit({"scenario": name, "params": {"exports": 41}})["id"]
            for name in ("fig3a", "fig3b", "fig4", "resilience")
        ]
        for sid in ids:
            assert server.client.wait(sid, timeout=60)["state"] == "done"
            assert validate_report_payload(server.client.report(sid)) == []

    def test_report_before_done_is_409(self, server):
        info = server.client.submit(small_spec())
        try:
            server.client.report(info["id"])
        except ServeError as exc:
            assert exc.status == 409
        else:  # the session may legitimately already be done
            assert server.client.session(info["id"])["state"] == "done"

    def test_fault_plan_session_still_converges(self, server):
        info = server.client.submit(
            small_spec(fault_plan={"drop": 0.2, "seed": 7}, label="chaos")
        )
        done = server.client.wait(info["id"], timeout=30)
        assert done["state"] == "done"
        report = server.client.report(info["id"])
        assert validate_report_payload(report) == []
        # The fault plan really was active: retransmissions happened.
        assert done["counters"]["retransmissions"] > 0


class TestHttpParsing:
    @pytest.mark.parametrize("length", ["abc", "-5", "1e3", "0x10"])
    def test_malformed_content_length_is_400(self, server, length):
        response = raw_request(
            server,
            f"POST /sessions HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{{}}".encode(),
        )
        assert response.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        body = json.loads(response.split(b"\r\n\r\n", 1)[1])
        assert "malformed Content-Length" in body["error"]
        assert server.client.sessions() == []  # and the server still answers


class TestProvenance:
    def test_provenance_session_yields_replayable_log(self, server, tmp_path):
        info = server.client.submit(small_spec(provenance=True, label="prov"))
        done = server.client.wait(info["id"], timeout=30)
        assert done["state"] == "done"
        assert done["provenance_ready"] is True
        text = server.client.provenance(info["id"])
        path = tmp_path / "served.prov"
        path.write_text(text)
        from repro.obs.prov import read_log, validate_provenance_log
        from repro.obs.replay import verify_replay

        log = read_log(path)
        assert validate_provenance_log(log) == []
        # The served log is a portable artifact: bit-exact replay
        # works anywhere, not just inside the worker that recorded it.
        v = verify_replay(log)
        assert v["ok"] and v["report_identical"] and v["causal_identical"]

    def test_provenance_absent_is_409(self, server):
        info = server.client.submit(small_spec(label="noprov"))
        server.client.wait(info["id"], timeout=30)
        with pytest.raises(ServeError) as exc:
            server.client.provenance(info["id"])
        assert exc.value.status == 409
        assert server.client.session(info["id"])["provenance_ready"] is False


class TestCancel:
    def test_cancel_unknown_is_404(self, server):
        with pytest.raises(ServeError) as err:
            server.client.cancel("s-00000-void")
        assert err.value.status == 404

    def test_cancel_finished_session_is_noop(self, server):
        info = server.client.submit(small_spec())
        server.client.wait(info["id"], timeout=30)
        after = server.client.cancel(info["id"], reason="too late")
        assert after["state"] == "done"  # terminal states never regress

    def test_cancel_records_reason(self, server):
        # Saturate both workers with slower sessions, then cancel a
        # queued one before any worker picks it up.
        blockers = [
            server.client.submit(small_spec(params=SLOW_PARAMS)) for _ in range(2)
        ]
        victim = server.client.submit(small_spec(label="victim"))
        cancelled = server.client.cancel(victim["id"], reason="not needed")
        final = server.client.wait(victim["id"], timeout=30)
        assert cancelled["cancel_reason"] == "not needed"
        assert final["state"] == "cancelled"
        for b in blockers:
            assert server.client.wait(b["id"], timeout=60)["state"] == "done"


class TestMaxSessions:
    def test_submissions_past_cap_get_429(self):
        handle, stop = start_server(
            ServeConfig(workers=1, max_sessions=2, drain_timeout=30.0)
        )
        try:
            a = handle.client.submit(small_spec(params=SLOW_PARAMS))
            b = handle.client.submit(small_spec(params=SLOW_PARAMS))
            with pytest.raises(ServeError) as err:
                handle.client.submit(small_spec())
            assert err.value.status == 429
            assert "cap" in err.value.message
            # Capacity frees up as sessions finish.
            handle.client.wait(a["id"], timeout=60)
            handle.client.wait(b["id"], timeout=60)
            c = handle.client.submit(small_spec())
            assert handle.client.wait(c["id"], timeout=30)["state"] == "done"
        finally:
            stop()


class TestCrashIsolation:
    def test_crash_session_fails_while_others_finish(self, server):
        crash = server.client.submit(
            {"scenario": "crash",
             "params": dict(small_spec()["params"], crash_after=5)}
        )
        ok = [server.client.submit(small_spec()) for _ in range(3)]
        failed = server.client.wait(crash["id"], timeout=30)
        assert failed["state"] == "failed"
        assert "injected crash" in failed["error"]
        with pytest.raises(ServeError) as err:
            server.client.report(crash["id"])
        assert err.value.status == 409
        for info in ok:
            done = server.client.wait(info["id"], timeout=30)
            assert done["state"] == "done"
            assert validate_report_payload(server.client.report(info["id"])) == []

    def test_crashed_run_still_streams_aborted_final_snapshot(self, server):
        crash = server.client.submit(
            {"scenario": "crash",
             "params": dict(small_spec()["params"], crash_after=5)}
        )
        lines = list(server.client.telemetry(crash["id"]))
        assert lines, "crashing session emitted no telemetry"
        last = lines[-1]
        assert last["final"] is True and last["aborted"] is True
        assert "injected crash" in last["error"]

    def test_crashed_run_streams_every_line_emitted_before_the_error(
        self, server, tmp_path
    ):
        spec = {
            "scenario": "crash",
            "telemetry_interval": 0.001,
            "params": dict(small_spec()["params"], crash_after=9),
        }
        info = server.client.submit(spec)
        wire = [
            json.dumps(rec, sort_keys=True)
            for rec in server.client.telemetry(info["id"])
        ]
        assert len(wire) > 2  # periodic lines, then the aborted final one
        assert wire == local_jsonl_lines(spec, tmp_path / "crash.jsonl")

    def test_hard_worker_crash_leaves_its_neighbour_running(self, server):
        """One dead worker fails one session, not every session in flight."""
        bystander = server.client.submit(
            small_spec(params=SLOW_PARAMS, label="bystander")
        )
        # Attached across the respawn: the new worker is forked while
        # this connection is open, and the stream must still end.
        stream: list[dict[str, Any]] = []
        reader = threading.Thread(
            target=lambda: stream.extend(server.client.telemetry(bystander["id"]))
        )
        reader.start()
        before = server.client.session(bystander["id"])
        while before["state"] == "queued":
            time.sleep(0.005)
            before = server.client.session(bystander["id"])
        assert before["state"] == "running"
        hard = server.client.submit(
            {"scenario": "crash_hard",
             "params": dict(small_spec()["params"], crash_after=3)}
        )
        failed = server.client.wait(hard["id"], timeout=60)
        assert failed["state"] == "failed" and "pool broken" in failed["error"]
        done = server.client.wait(bystander["id"], timeout=60)
        assert done["state"] == "done", done
        assert done["worker_pid"] == before["worker_pid"] != failed["worker_pid"]
        assert validate_report_payload(server.client.report(bystander["id"])) == []
        reader.join(timeout=30)
        assert not reader.is_alive(), "bystander's stream never ended"
        assert stream[-1]["final"] is True and not stream[-1].get("aborted")
        # The next submission runs on the respawned worker.
        after = server.client.wait(server.client.submit(small_spec())["id"], timeout=60)
        assert after["state"] == "done"
        pids = {p.pid for p in multiprocessing.active_children()}
        assert len(pids) == 2 and failed["worker_pid"] not in pids
        assert after["worker_pid"] in pids

    def test_hard_worker_crash_fails_session_and_pool_recovers(self, server):
        hard = server.client.submit(
            {"scenario": "crash_hard",
             "params": dict(small_spec()["params"], crash_after=3)}
        )
        failed = server.client.wait(hard["id"], timeout=60)
        assert failed["state"] == "failed"
        assert "pool broken" in failed["error"]
        # The pool is rebuilt transparently for the next submission.
        after = server.client.submit(small_spec(label="after-crash"))
        done = server.client.wait(after["id"], timeout=60)
        assert done["state"] == "done"
        assert validate_report_payload(server.client.report(after["id"])) == []


class TestTelemetryWire:
    def test_stream_ends_with_final_snapshot(self, server):
        info = server.client.submit(small_spec(telemetry_interval=0.01))
        lines = list(server.client.telemetry(info["id"]))
        assert len(lines) >= 2  # periodic snapshots plus the final one
        assert all(rec["schema"] == "repro.telemetry/v1" for rec in lines)
        assert lines[-1]["final"] is True
        assert not any(rec.get("final") for rec in lines[:-1])

    def test_wire_telemetry_matches_file_sink_line_for_line(self, server, tmp_path):
        """Same scenario + seed: served stream == local JsonlSink file.

        For one session, then for four at once (not a parametrization:
        the test id is a floor id): four sessions over two workers share
        pipes and queue behind each other, and no stream may carry a
        line of another's.
        """
        for concurrent in (1, 4):
            specs = [
                small_spec(telemetry_interval=0.01, params={"exports": 12 + 5 * n})
                for n in range(concurrent)
            ]
            ids = [server.client.submit(spec)["id"] for spec in specs]
            wires: dict[str, list[str]] = {}

            def attach(sid: str, wires: dict[str, list[str]] = wires) -> None:
                wires[sid] = [
                    json.dumps(rec, sort_keys=True)
                    for rec in server.client.telemetry(sid)
                ]

            threads = [threading.Thread(target=attach, args=(sid,)) for sid in ids]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            locals_ = [
                local_jsonl_lines(spec, tmp_path / f"tele{concurrent}-{n}.jsonl")
                for n, spec in enumerate(specs)
            ]
            assert [wires.get(sid) for sid in ids] == locals_
            assert len({tuple(lines) for lines in locals_}) == concurrent

    def test_late_attach_replays_from_buffer(self, server):
        info = server.client.submit(small_spec(telemetry_interval=0.01))
        server.client.wait(info["id"], timeout=30)
        lines = list(server.client.telemetry(info["id"]))
        assert lines and lines[-1]["final"] is True
        # replay=0 skips the backlog of a finished session entirely.
        assert list(server.client.telemetry(info["id"], replay=False)) == []


class TestStructure:
    """What the serving path is made of, read off the process itself."""

    def test_processes_are_exactly_the_workers(self, server):
        children = multiprocessing.active_children()
        assert len(children) == server.server.config.workers == 2  # no manager
        info = server.client.wait(server.client.submit(small_spec())["id"], timeout=30)
        assert info["worker_pid"] in {child.pid for child in children}

    def test_serving_sessions_starts_no_threads(self, server):
        before = threading.active_count()
        for _ in range(10):
            info = server.client.submit(small_spec(telemetry_interval=0.01))
            lines = list(server.client.telemetry(info["id"]))
            assert lines[-1]["final"] is True
            assert server.client.report(info["id"])["schema"] == "repro.report/v1"
        # No pump, executor-manager or queue-feeder threads come and go.
        assert threading.active_count() == before
        assert {t.name for t in threading.enumerate()} >= {"serve-test"}

    def test_shutdown_leaves_no_children(self):
        handle, stop = start_server(ServeConfig(workers=3))
        assert len(multiprocessing.active_children()) == 3
        handle.client.submit(small_spec())
        stop()
        assert multiprocessing.active_children() == []

    def test_failed_bind_leaves_no_children(self):
        """The workers fork before the bind; a bind that fails reaps them."""
        import asyncio

        from repro.serve import SessionServer

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            server = SessionServer(ServeConfig(host="127.0.0.1", port=port, workers=2))
            with pytest.raises(OSError):
                asyncio.run(server.start())
        assert multiprocessing.active_children() == []


class TestConcurrencyAndDrain:
    def test_concurrent_submit_and_cancel_races_stay_consistent(self, server):
        results: list[dict[str, Any]] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def worker(n: int) -> None:
            try:
                info = server.client.submit(small_spec(label=f"race-{n}"))
                if n % 2:
                    server.client.cancel(info["id"], reason="race test")
                final = server.client.wait(info["id"], timeout=60)
                with lock:
                    results.append(final)
            except BaseException as exc:  # pragma: no cover - surfaced below
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90)
        assert not errors, errors
        assert len(results) == 6
        for final in results:
            assert final["state"] in ("done", "cancelled")
            if final["state"] == "cancelled":
                assert final["cancel_reason"] == "race test"

    def test_graceful_drain_finishes_or_cancels_everything(self):
        handle, stop = start_server(
            ServeConfig(workers=2, max_sessions=32, drain_timeout=30.0)
        )
        ids = [handle.client.submit(small_spec())["id"] for _ in range(6)]
        stop()  # requests shutdown and joins the server thread
        for sid in ids:
            session = handle.server.registry.get(sid)
            assert session is not None and session.terminal
            if session.state == "cancelled":
                assert session.cancel_reason == "server shutdown"
            else:
                assert session.state == "done"


@pytest.mark.slow
class TestAcceptance:
    def test_hundred_concurrent_sessions_over_four_workers(self):
        """The ISSUE acceptance bar: >=100 sessions, >=4 workers, one process."""
        handle, stop = start_server(
            ServeConfig(workers=4, max_sessions=128, drain_timeout=60.0)
        )
        try:
            spec = small_spec(
                params={"exports": 6, "imports": [3.0, 5.0]},
                telemetry_interval=100.0,
            )
            ids = [handle.client.submit(spec)["id"] for _ in range(100)]
            pids = set()
            for sid in ids:
                final = handle.client.wait(sid, timeout=300)
                assert final["state"] == "done", final
                pids.add(final["worker_pid"])
            assert len(pids) >= 4, f"sessions ran on only {len(pids)} workers"
            for sid in (ids[0], ids[49], ids[99]):
                assert validate_report_payload(handle.client.report(sid)) == []
            stats = handle.client.stats()
            assert stats["by_state"]["done"] >= 100
        finally:
            stop()
