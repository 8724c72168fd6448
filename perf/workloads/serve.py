"""The served path: HTTP surface, registry, worker pool, telemetry pump."""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import statistics
import threading
from time import perf_counter
from typing import Any, Sequence

from perf.workloads.base import RepOut, Timed, Workload


def _p95(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[int(0.95 * (len(ordered) - 1))]


class ServeBurst(Workload):
    name = "serve_burst"
    timed_unit = "95th percentile of a session, submit to report received"
    work_unit = "sessions completed"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        from repro.serve import ServeClient, ServeConfig

        self.clients = self.busy_cpus = os.cpu_count() or 1
        self.sessions_per_trial = 2 * self.clients if tiny else 40
        exports = 40 if tiny else 200
        self.params = {
            "exports": exports,
            "imports": [20.0 * (j + 1) for j in range(exports // 20 - 1)],
        }
        self.next_seed = seed * 1_000_000
        #: Submit-to-report latency of every session of every trial.
        self.latencies: list[float] = []
        self._thread: threading.Thread | None = None
        self._box: dict[str, Any] = {}
        self._start(ServeConfig(workers=self.clients, max_sessions=4 * self.clients))
        self.url = f"http://127.0.0.1:{self._box['server'].port}"
        self.client = ServeClient(self.url, timeout=60.0)
        try:
            # Every pool worker forks and runs one session before timing starts.
            warm = self._trial(self.clients)
            if warm.failures:
                raise RuntimeError(f"warm-up sessions failed: {warm.failures}")
            self.latencies.clear()
        except BaseException:
            self.close()
            raise

    # -- server lifetime ---------------------------------------------------
    def _start(self, config: Any) -> None:
        from repro.serve import SessionServer

        started = threading.Event()
        box = self._box

        async def main() -> None:
            server = SessionServer(config)
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            started.set()
            await server.serve_until()

        def run() -> None:
            try:
                asyncio.run(main())
            except BaseException as exc:  # surfaced to the constructor below
                box["crash"] = exc
                started.set()

        self._thread = threading.Thread(target=run, name="perf-serve", daemon=True)
        self._thread.start()
        if not started.wait(timeout=60) or "crash" in box:
            raise RuntimeError(f"server did not start: {box.get('crash')!r}")

    def close(self) -> None:
        """Drain the server and its pool; fails loudly if anything survives."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        if thread.is_alive():
            self._box["loop"].call_soon_threadsafe(
                self._box["server"].shutdown_requested.set
            )
            thread.join(timeout=90)
        leftovers = multiprocessing.active_children()
        for child in leftovers:
            child.kill()
        if thread.is_alive() or leftovers:
            raise RuntimeError(
                f"serve shutdown left thread_alive={thread.is_alive()} "
                f"workers={[c.pid for c in leftovers]}"
            )

    # -- one trial ---------------------------------------------------------
    def _session(self, client: Any, seed: int) -> tuple[str, float, str | None]:
        from repro.serve.spec import SessionSpec

        spec = SessionSpec(scenario="demo", params={**self.params, "seed": seed})
        t0 = perf_counter()
        info = client.submit(spec)
        last: dict[str, Any] = {}
        for last in client.telemetry(info["id"]):
            pass
        report = client.report(info["id"])
        latency = perf_counter() - t0
        problem = None
        if not last.get("final"):
            problem = f"stream_ends_with_final: last record {sorted(last)[:6]}"
        elif report.get("schema") != "repro.report/v1":
            problem = f"report_schema: {report.get('schema')}"
        return info["id"], latency, problem

    def _trial(self, sessions: int) -> RepOut:
        from repro.serve import ServeClient

        seeds = iter(range(self.next_seed, self.next_seed + sessions))
        self.next_seed += sessions
        lock = threading.Lock()
        done: list[tuple[str, float, str | None]] = []
        errors: list[str] = []

        def loop() -> None:
            client = ServeClient(self.url, timeout=60.0)
            while True:
                with lock:
                    seed = next(seeds, None)
                if seed is None:
                    return
                try:
                    outcome = self._session(client, seed)
                except Exception as exc:  # a refused or broken session is a failed one
                    with lock:
                        errors.append(f"session_completes seed={seed}: {exc!r}")
                else:
                    with lock:
                        done.append(outcome)

        threads = [threading.Thread(target=loop) for _ in range(self.clients)]
        with Timed() as timed:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        states = {s["id"]: s["state"] for s in self.client.sessions()}
        for sid, latency, problem in done:
            self.latencies.append(latency)
            if problem is None and states.get(sid) != "done":
                problem = f"session_done {sid}: state {states.get(sid)!r}"
            if problem is not None:
                errors.append(problem)
        failures = [f"{self.name}/{e}" for e in errors]
        return RepOut(
            timed.seconds, len(done), sessions, failures, timed.stolen,
            latencies=[latency for _, latency, _ in done],
        )

    def rep(self) -> RepOut:
        return self._trial(self.sessions_per_trial)

    def wall_s(self, reps: Sequence[RepOut], factors: Sequence[float]) -> float:
        """p95 of every session of the run; a run has >= 200, ten beyond it.

        The median is not reported beside it: with the clients in a closed
        loop, sessions/s (``cal_work_per_s``) is clients / mean latency.
        """
        return _p95([lat * f for rep, f in zip(reps, factors) for lat in rep.latencies])

    # -- per-layer numbers ---------------------------------------------------
    def untraced_extra(self) -> dict[str, float]:
        from repro.serve.spec import SessionSpec
        from repro.serve.worker import run_session

        spec = SessionSpec(scenario="demo", params={**self.params, "seed": self.seed})
        runs, scrapes = [], []
        for i in range(5):
            t0 = perf_counter()
            outcome = run_session(f"perf-inproc-{i}", spec.to_dict())
            runs.append(perf_counter() - t0)
            if not outcome["ok"]:
                raise RuntimeError(f"in-process session failed: {outcome}")
        for _ in range(5):
            t0 = perf_counter()
            self.client.metrics()
            scrapes.append(perf_counter() - t0)
        return {
            "serve.worker_run_s": statistics.median(runs),
            "serve.metrics_scrape_s": statistics.median(scrapes),
        }

    def layer_counts(self) -> dict[str, float]:
        # Over every trial of the run, traced ones too: the three client
        # wrappers add microseconds to a session of tens of milliseconds,
        # and p95 needs the samples.
        lat = sorted(self.latencies)
        return {
            "serve.session_p50_s": statistics.median(lat),
            "serve.session_p95_s": _p95(lat),
            "serve.sessions_sampled": float(len(lat)),
            "serve.telemetry_dropped": float(self.client.stats()["telemetry"]["dropped"]),
        }
