"""Named, parameterised coupled scenarios the service can run.

Arbitrary ``main`` callables cannot cross the wire, so a session names
a *scenario* — a module-level builder that turns plain-JSON parameters
into ``(config, programs, options)`` — and the worker process rebuilds
the run from that name.  The built-ins cover the service's needs
end-to-end:

``demo``
    The Figure-4 demo shape (program F exports with one slow rank,
    program U imports twice), fully parameterised: export count, seed,
    buddy-help, slow-rank factor and import timestamps.  Deterministic
    on the DES runtime, so two sessions with equal specs produce
    line-for-line identical telemetry — the property the wire-parity
    tests pin down.
``crash``
    ``demo`` with rank 0 of F raising after ``crash_after`` exports —
    a run that *fails*, exercising the failed-session path and the
    flush-on-teardown telemetry contract.
``crash_hard``
    ``demo`` but the worker process fail-stops (``os._exit``) after
    ``crash_after`` exports — kills the pool worker itself, for the
    broken-pool recovery tests.  Never use outside tests.

Downstream projects register their own with :func:`register_scenario`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Callable, Generator, Mapping

from repro.api.facade import Program
from repro.api.options import RunOptions
from repro.core.coupler import RegionDef
from repro.data.decomposition import BlockDecomposition
from repro.faults.plan import FaultPlan
from repro.serve.spec import SessionSpec

__all__ = [
    "ScenarioBuild",
    "register_scenario",
    "scenario_names",
    "build_scenario",
]

#: The demo coupling configuration (Figure-2 format).
_DEMO_CONFIG = "F c0 /bin/F 2\nU c1 /bin/U 2\n#\nF.d U.d REGL 2.5\n"


@dataclass(frozen=True)
class ScenarioBuild:
    """Everything :func:`repro.api.run` needs for one session."""

    config: str
    programs: tuple[Program, ...]
    options: RunOptions


ScenarioFn = Callable[[Mapping[str, Any]], ScenarioBuild]

_SCENARIOS: dict[str, ScenarioFn] = {}


def register_scenario(name: str, fn: ScenarioFn) -> None:
    """Register *fn* under *name* (overwrites an existing entry)."""
    _SCENARIOS[name] = fn


def scenario_names() -> tuple[str, ...]:
    """The registered scenario names, sorted."""
    return tuple(sorted(_SCENARIOS))


def build_scenario(spec: SessionSpec) -> ScenarioBuild:
    """Build the run for *spec*: scenario + fault plan + telemetry knobs."""
    fn = _SCENARIOS.get(spec.scenario)
    if fn is None:
        raise ValueError(
            f"unknown scenario {spec.scenario!r}; "
            f"registered scenarios: {list(scenario_names())}"
        )
    build = fn(spec.params)
    options = replace(
        build.options,
        telemetry_interval=spec.telemetry_interval,
        fault_plan=(
            FaultPlan.from_dict(spec.fault_plan)
            if spec.fault_plan is not None
            else build.options.fault_plan
        ),
    )
    return replace(build, options=options)


def _check_params(params: Mapping[str, Any], allowed: frozenset[str]) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(
            f"unknown scenario params {sorted(unknown)}; "
            f"valid params are {sorted(allowed)}"
        )


_DEMO_PARAMS = frozenset(
    {"exports", "seed", "buddy_help", "slow_factor", "imports", "compute"}
)


def _demo_build(
    params: Mapping[str, Any], *, crash_after: int | None = None, hard: bool = False
) -> ScenarioBuild:
    _check_params(
        params,
        _DEMO_PARAMS | ({"crash_after"} if crash_after is not None else frozenset()),
    )
    exports = int(params.get("exports", 46))
    seed = int(params.get("seed", 2))
    buddy_help = bool(params.get("buddy_help", True))
    slow_factor = float(params.get("slow_factor", 4.0))
    compute = float(params.get("compute", 0.001))
    imports = tuple(float(t) for t in params.get("imports", (20.0, 40.0)))
    if exports < 1:
        raise ValueError("exports must be >= 1")

    def f_main(ctx: Any) -> Generator[Any, Any, None]:
        scale = slow_factor if ctx.rank == 1 else 1.0
        for k in range(exports):
            if crash_after is not None and ctx.rank == 0 and k == crash_after:
                if hard:  # fail-stop the worker process itself
                    os._exit(17)
                raise RuntimeError(f"injected crash after {crash_after} exports")
            yield from ctx.export("d", 1.6 + k)
            yield from ctx.compute(compute * scale)

    def u_main(ctx: Any) -> Generator[Any, Any, None]:
        for want in imports:
            yield from ctx.compute(4 * compute)
            yield from ctx.import_("d", want)

    return ScenarioBuild(
        config=_DEMO_CONFIG,
        programs=(
            Program(
                "F",
                main=f_main,
                regions={"d": RegionDef(BlockDecomposition((16, 16), (2, 1)))},
            ),
            Program(
                "U",
                main=u_main,
                regions={"d": RegionDef(BlockDecomposition((16, 16), (1, 2)))},
            ),
        ),
        options=RunOptions(buddy_help=buddy_help, seed=seed),
    )


def _demo(params: Mapping[str, Any]) -> ScenarioBuild:
    return _demo_build(params)


def _crash(params: Mapping[str, Any]) -> ScenarioBuild:
    return _demo_build(params, crash_after=int(params.get("crash_after", 10)))


def _crash_hard(params: Mapping[str, Any]) -> ScenarioBuild:
    return _demo_build(
        params, crash_after=int(params.get("crash_after", 10)), hard=True
    )


register_scenario("demo", _demo)
register_scenario("crash", _crash)
register_scenario("crash_hard", _crash_hard)
