"""The match layer used both ways: one big batch, and exports beside requests."""

from __future__ import annotations

from typing import Any

import numpy as np

from perf.workloads.base import RepOut, Timed, Workload, digest

POLICY = "REGL 0.25"
TOLERANCE = 0.25


def reference_counts(
    exports: np.ndarray, requests: np.ndarray, latest: np.ndarray | float
) -> tuple[int, int, int]:
    """(match, no_match, pending) of REGL requests, straight from the definition.

    A request beyond the newest export known when it is asked (*latest*)
    is pending; otherwise the largest export not above it matches when it
    lies within the tolerance.  *exports* must be increasing.
    """
    pending = requests > latest
    idx = np.searchsorted(exports, requests, side="right") - 1
    best = np.where(idx >= 0, exports[np.maximum(idx, 0)], -np.inf)
    match = ~pending & (best >= requests - TOLERANCE)
    return int(match.sum()), int((~pending & ~match).sum()), int(pending.sum())


def _default_backend() -> str:
    """The production default, by name lookup, so flipping it shows as a gain."""
    import repro

    return repro.RunOptions().match_backend


def _export_stream(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.cumsum(rng.uniform(0.5, 1.5, n))


def _counts(engine: Any) -> tuple[int, int, int]:
    return engine.match_count, engine.no_match_count, engine.pending_count


def _response_digest(responses: list[Any]) -> str:
    from repro.match import MatchKind

    kinds = np.fromiter((r.kind is MatchKind.MATCH for r in responses), bool, len(responses))
    matched = np.fromiter(
        (-1.0 if r.matched_ts is None else r.matched_ts for r in responses),
        float,
        len(responses),
    )
    return digest(kinds.tobytes(), matched.tobytes())


class MatchBatch(Workload):
    name = "match_batch"
    timed_unit = "one repetition: make_backend + evaluate_batch"
    work_unit = "requests resolved"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        from repro.match import ExportHistory, parse_policy

        n_req, n_exp = (500, 1000) if tiny else (125_000, 250_000)
        rng = np.random.default_rng(seed)
        self.exports = _export_stream(rng, n_exp)
        self.requests = np.sort(rng.uniform(0.0, self.exports[-1] * 1.075, n_req))
        self.policy = parse_policy(POLICY)
        self.backend = _default_backend()
        self.history = ExportHistory()
        self.history.replace(self.exports)
        self.expected = reference_counts(self.exports, self.requests, self.exports[-1])

    def _evaluate(self, backend: str) -> tuple[Timed, Any, list[Any]]:
        from repro.match import make_backend

        with Timed() as t:
            engine = make_backend(self.policy, backend, history=self.history, strict_order=False)
            responses = engine.evaluate_batch(self.requests)
        return t, engine, responses

    def rep(self) -> RepOut:
        t, engine, responses = self._evaluate(self.backend)
        failures = []
        if _counts(engine) != self.expected or len(responses) != len(self.requests):
            failures.append(
                f"{self.name}/counts_equal_reference: {_counts(engine)} != {self.expected}"
            )
        self.digests.append(_response_digest(responses))
        self.evaluations = sum(_counts(engine))
        return RepOut(t.seconds, len(self.requests), 1, failures, t.stolen)

    def layer_counts(self) -> dict[str, float]:
        return {"match.evaluations": float(self.evaluations)}

    def traced_extra(self, tracer: Any) -> dict[str, float]:
        """Kernel against engine on the same batch, while ``sorted`` is registered."""
        from repro.match import MATCH_BACKENDS

        if "sorted" not in MATCH_BACKENDS:
            return {}
        before = tracer.totals()
        self._evaluate("sorted")
        after = tracer.totals()

        def spent(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        sweep = spent("SortedMatchEngine.sweep")
        batch = spent("SortedMatchEngine.evaluate_batch")
        if not sweep or not batch:
            return {}
        return {
            "match.sweep_kernel_req_per_s": len(self.requests) / sweep,
            "match.kernel_share": sweep / batch,
        }


class MatchStream(Workload):
    name = "match_stream"
    timed_unit = "one repetition: the whole stream on a fresh backend"
    work_unit = "record_export + evaluate calls"

    EVERY = 4

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        from repro.match import parse_policy

        n_exp = 2000 if tiny else 300_000
        rng = np.random.default_rng(seed)
        exports = _export_stream(rng, n_exp)
        asked_at = np.arange(self.EVERY - 1, n_exp, self.EVERY)
        # Mostly a little behind the newest export; one in five ahead of it.
        requests = exports[asked_at] - rng.uniform(-0.3, 1.2, len(asked_at))
        self.expected = reference_counts(exports, requests, exports[asked_at])
        # Plain floats: the engine is fed what the coupler feeds it.
        self.exports = exports.tolist()
        self.requests = requests.tolist()
        self.policy = parse_policy(POLICY)
        self.backend = _default_backend()

    def rep(self) -> RepOut:
        from repro.match import make_backend

        every = self.EVERY
        responses = []
        requests = iter(self.requests)
        with Timed() as t:
            engine = make_backend(self.policy, self.backend, strict_order=False)
            record, evaluate = engine.record_export, engine.evaluate
            for i, ts in enumerate(self.exports, 1):
                record(ts)
                if i % every == 0:
                    responses.append(evaluate(next(requests), record=True))
        failures = []
        if _counts(engine) != self.expected:
            failures.append(
                f"{self.name}/counts_equal_reference: {_counts(engine)} != {self.expected}"
            )
        self.digests.append(_response_digest(responses))
        self.evaluations = sum(_counts(engine))
        work = len(self.exports) + len(responses)
        return RepOut(t.seconds, work, 1, failures, t.stolen)

    def layer_counts(self) -> dict[str, float]:
        return {"match.evaluations": float(self.evaluations)}
