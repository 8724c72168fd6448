"""Named, parameter-checked coupled scenarios: where a run is described.

Every experiment of the paper has one shape — an exporter program whose
last rank is the slow ``p_s``, an importer program issuing requests
(Section 5, Figures 3–8) — so it is written out once (:func:`_pair`) and
the experiments are registered as parameter sets of it: ``demo`` (and
``crash`` / ``crash_hard``, which fail rank 0 of the exporter — the
latter by killing its process, for the broken-pool tests only),
``fig3a`` / ``fig3b``, ``fig4`` (one run of a :class:`Figure4Spec`),
``fig5`` / ``fig7`` (the event traces of Figures 5, 7 and 8) and
``resilience`` (the chaos sweep's coupling).  ``docs/serving.md``
tabulates them.

A name plus plain-JSON parameters is all a front-end needs — arbitrary
``main`` callables cannot cross the session server's wire — so ``repro
run``, the :mod:`repro.bench` runners and the server all call
:func:`build` and run the :class:`ScenarioBuild` through
:func:`repro.run`.  One run of the paper is fully named by *(scenario,
params, fault plan)*: that triple is a :class:`Cell`, what a ``repro
run`` grid expands into and what a served session is.  Downstream
projects add scenarios with :func:`register_scenario`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from functools import partial
from math import prod
from typing import Any, Callable, Generator, Mapping, Sequence, TypeVar

from repro.api.facade import Program, RunResult, run
from repro.api.options import RunOptions
from repro.core.coupler import RegionDef
from repro.costs import ClusterPreset
from repro.costs.models import ComputeCostModel, MemoryCostModel, NetworkCostModel
from repro.data.decomposition import BlockDecomposition, choose_process_grid
from repro.faults.plan import FaultPlan
from repro.match.backend import DEFAULT_MATCH_BACKEND
from repro.util.validation import require, require_known_keys

__all__ = [
    "Cell",
    "Figure4Spec",
    "Param",
    "ScenarioBuild",
    "build",
    "register_scenario",
    "scenario_names",
    "scenario_params",
]


@dataclass(frozen=True)
class ScenarioBuild:
    """Everything :func:`repro.run` needs for one run."""

    config: str
    programs: tuple[Program, ...]
    options: RunOptions

    def run(self, **overrides: Any) -> RunResult:
        """Run it, with *overrides* replaced into the options."""
        return run(self.config, self.programs, replace(self.options, **overrides))


# -- the registry -------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One scenario parameter: its JSON type, default and bounds.

    ``kind`` is ``"bool"``, ``"int"``, ``"number"`` or ``"numbers"`` (a
    list of numbers); ``minimum`` and ``maximum`` are inclusive and, for
    a list, apply to every element.
    """

    kind: str
    default: Any
    minimum: float | None = None
    maximum: float | None = None

    def describe(self) -> str:
        """``"int >= 1"`` / ``"int 1..1024"``: as error messages and docs print it."""
        if self.maximum is not None:
            return f"{self.kind} {self.minimum:g}..{self.maximum:g}"
        return self.kind if self.minimum is None else f"{self.kind} >= {self.minimum:g}"

    def _number(self, value: Any) -> bool:
        return (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and (self.minimum is None or value >= self.minimum)
            and (self.maximum is None or value <= self.maximum)
        )

    def accepts(self, value: Any) -> bool:
        """Whether *value* has this type and range — checked, never coerced."""
        if self.kind == "bool":
            return isinstance(value, bool)
        if self.kind == "numbers":
            return isinstance(value, (list, tuple)) and all(map(self._number, value))
        return self._number(value) and (self.kind == "number" or isinstance(value, int))

    def normalise(self, value: Any) -> Any:
        """An accepted *value* in the form builders take (numbers as floats)."""
        if self.kind == "numbers":
            return tuple(float(v) for v in value)
        return float(value) if self.kind == "number" else value


ScenarioFn = Callable[..., ScenarioBuild]

_SCENARIOS: dict[str, tuple[ScenarioFn, Mapping[str, Param]]] = {}


def register_scenario(name: str, fn: ScenarioFn, params: Mapping[str, Param]) -> None:
    """Register *fn* under *name* (overwrites an existing entry).

    :func:`build` calls *fn* with one keyword argument per entry of
    *params*, checked and defaulted.
    """
    _SCENARIOS[name] = (fn, dict(params))


def scenario_names() -> tuple[str, ...]:
    """The registered scenario names, sorted."""
    return tuple(sorted(_SCENARIOS))


def _entry(name: str) -> tuple[ScenarioFn, Mapping[str, Param]]:
    entry = _SCENARIOS.get(name)
    if entry is None:
        raise ValueError(
            f"unknown scenario {name!r}; registered scenarios: {list(scenario_names())}"
        )
    return entry


def scenario_params(name: str) -> Mapping[str, Param]:
    """The parameters scenario *name* takes."""
    return _entry(name)[1]


def build(name: str, params: Mapping[str, Any] | None = None) -> ScenarioBuild:
    """Check *params* against scenario *name*'s table and build the run.

    An unknown key, a value of the wrong JSON type or one outside its
    bounds raises :class:`ValueError` naming the valid parameters,
    before any program is built; nothing runs.
    """
    fn, table = _entry(name)
    kwargs = {key: p.default for key, p in table.items()}
    for key, value in (params or {}).items():
        p = table.get(key)
        if p is None or not p.accepts(value):
            problem = (
                f"unknown param {key!r}"
                if p is None
                else f"param {key}={value!r} is not {p.describe()}"
            )
            valid = ", ".join(f"{k} ({q.describe()})" for k, q in sorted(table.items()))
            raise ValueError(f"scenario {name!r}: {problem}; valid params are {valid}")
        kwargs[key] = p.normalise(value)
    return fn(**kwargs)


_C = TypeVar("_C", bound="Cell")


@dataclass(frozen=True)
class Cell:
    """One run: a registered scenario, its params and a fault plan.

    ``repro run`` expands its grid into cells and a served session is one
    (:class:`repro.serve.spec.SessionSpec` adds serve-only fields), so
    both parse, build and head their row here.  :meth:`build` checks the
    params against the scenario's table.
    """

    scenario: str
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Given as a :class:`FaultPlan` or what :meth:`FaultPlan.from_dict` reads.
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        require(isinstance(self.scenario, str) and bool(self.scenario),
                "scenario must be a non-empty string")
        require(isinstance(self.params, Mapping), "params must be a mapping")
        object.__setattr__(self, "params", dict(self.params))
        if not isinstance(self.fault_plan, (FaultPlan, type(None))):
            require(isinstance(self.fault_plan, Mapping),
                    "fault_plan must be a JSON object or null")
            object.__setattr__(self, "fault_plan", FaultPlan.from_dict(self.fault_plan))

    @property
    def name(self) -> str:
        """The row name, ``"demo exports=200 seed=7"`` (values as compact JSON)."""
        words = (f"{k}={json.dumps(v, separators=(',', ':'))}" for k, v in self.params.items())
        return " ".join([self.scenario, *words])

    def build(self) -> ScenarioBuild:
        """:func:`build` of the scenario and params, the fault plan applied."""
        built = build(self.scenario, self.params)
        return replace(built, options=replace(built.options, fault_plan=self.fault_plan))

    def row(self, name: str | None = None) -> dict[str, Any]:
        """The head of the cell's run row: *name* (default :attr:`name`),
        ``scenario``, ``params`` and ``fault_plan`` as plain JSON (the
        plan's ``describe()`` less its infinite values)."""
        plan = self.fault_plan and {
            key: v for key, v in self.fault_plan.describe().items() if v != math.inf
        }
        return {"name": name or self.name, "scenario": self.scenario,
                "params": dict(self.params), "fault_plan": plan}

    def to_dict(self) -> dict[str, Any]:
        """Every field as plain JSON (the fault plan as in :meth:`row`)."""
        head = self.row()
        return {f.name: head.get(f.name, getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls: type[_C], obj: Any) -> _C:
        """Parse a JSON object of this class's fields (``null`` means the
        default); anything else raises :class:`ValueError`."""
        require(isinstance(obj, Mapping), f"{cls.__name__} must be a JSON object")
        require_known_keys(obj, (f.name for f in fields(cls)), f"{cls.__name__} keys")
        return cls(**{key: v for key, v in obj.items() if v is not None})


# -- the one shape --------------------------------------------------------------

#: Flat cost models (no warm-up head, contention or jitter): the
#: buffering counters of Figure 3 and the chaos sweep read directly.
_FLAT = ClusterPreset(
    name="flat",
    memory=MemoryCostModel(
        setup_time=1e-5, bandwidth=1e9, free_time=1e-6,
        init_factor=1.0, init_until=0.0, contention_per_peer=0.0,
    ),
    network=NetworkCostModel(latency=1e-5, bandwidth=1e9, congestion_per_flow=0.0),
    compute=ComputeCostModel(time_per_element=1e-8, fixed_overhead=1e-6, jitter=0.0),
)


def _pair(
    options: RunOptions,
    *,
    exports: int,
    export_work: float,
    slow_factor: float,
    imports: Sequence[float],
    import_work: float = 0.0,
    request_at: Sequence[float] | None = None,
    import_scale: float = 1.0,
    elements: bool = False,
    names: tuple[str, str] = ("E", "I"),
    region: str = "d",
    shape: tuple[int, int] = (64, 64),
    grids: tuple[tuple[int, int], tuple[int, int]] = ((2, 1), (1, 2)),
    tolerance: float = 2.5,
    first_ts: float = 1.6,
    export_dt: float = 1.0,
    crash_after: int | None = None,
    hard: bool = False,
) -> ScenarioBuild:
    """An exporter program coupled to an importer over one ``REGL`` region.

    Every exporter rank exports, then works ``export_work``, *exports*
    times; the last rank is ``p_s`` and works *slow_factor* times as
    long.  Every importer rank works ``import_work``, then imports, once
    per timestamp of *imports* — compute first, so the first request
    goes out one importer period into the run — or, given *request_at*,
    issues request *k* at virtual time ``request_at[k]`` (a time already
    past is an error).  Work is virtual seconds, or with *elements* grid
    points through the preset's compute model.  Rank 0 of the exporter
    fails before export *crash_after*.
    """
    exporter, importer = names
    slow_rank = prod(grids[0]) - 1

    def work(ctx: Any, amount: float, scale: float) -> Generator[Any, Any, float]:
        if elements:
            return ctx.compute_elements(amount, scale=scale)
        return ctx.compute(amount * scale)

    def export_main(ctx: Any) -> Generator[Any, Any, None]:
        scale = slow_factor if ctx.rank == slow_rank else 1.0
        for k in range(exports):
            if k == crash_after and ctx.rank == 0:
                if hard:  # fail-stop the worker process itself
                    os._exit(17)
                raise RuntimeError(f"injected crash after {crash_after} exports")
            yield from ctx.export(region, first_ts + k * export_dt)
            yield from work(ctx, export_work, scale)

    def import_main(ctx: Any) -> Generator[Any, Any, None]:
        for k, want in enumerate(imports):
            if request_at is None:
                yield from work(ctx, import_work, import_scale)
            else:
                wait = request_at[k] - ctx.sim.now
                require(wait >= 0, f"request {want:g} due at {request_at[k]:g} is past")
                yield from ctx.compute(wait)
            yield from ctx.import_(region, want)

    return ScenarioBuild(
        config=(
            f"{exporter} c0 /bin/{exporter} {prod(grids[0])}\n"
            f"{importer} c1 /bin/{importer} {prod(grids[1])}\n"
            "#\n"
            f"{exporter}.{region} {importer}.{region} REGL {tolerance}\n"
        ),
        programs=tuple(
            Program(
                name,
                main=main,
                regions={region: RegionDef(BlockDecomposition(shape, grid))},
            )
            for name, main, grid in zip(names, (export_main, import_main), grids)
        ),
        options=options,
    )


def _periodic(period: float, count: int) -> tuple[float, ...]:
    """Import timestamps ``period, 2·period, …`` (*count* of them)."""
    return tuple(period * j for j in range(1, count + 1))


# -- the parameter sets ---------------------------------------------------------

_BUDDY_HELP = Param("bool", True)
#: Bounds of an export/request count.  Whatever sizes a build (ranks, a
#: timestamp per request) needs a maximum: the server builds at submit.
_STEPS = (1, 100_000)


def _demo(
    exports: int, seed: int, buddy_help: bool, slow_factor: float,
    imports: tuple[float, ...], compute: float,
    crash_after: int | None = None, hard: bool = False,
) -> ScenarioBuild:
    return _pair(
        RunOptions(buddy_help=buddy_help, seed=seed),
        exports=exports, export_work=compute, slow_factor=slow_factor,
        imports=imports, import_work=4 * compute,
        names=("F", "U"), shape=(16, 16), crash_after=crash_after, hard=hard,
    )


_DEMO_PARAMS = {
    "exports": Param("int", 46, *_STEPS),
    "seed": Param("int", 2, 0),
    "buddy_help": _BUDDY_HELP,
    "slow_factor": Param("number", 4.0, 0),
    "imports": Param("numbers", (20.0, 40.0)),
    "compute": Param("number", 0.001, 0),
}
_CRASH_PARAMS = {**_DEMO_PARAMS, "crash_after": Param("int", 10, 0)}
register_scenario("demo", _demo, _DEMO_PARAMS)
register_scenario("crash", _demo, _CRASH_PARAMS)
register_scenario("crash_hard", partial(_demo, hard=True), _CRASH_PARAMS)


def _flat(
    exports: int, seed: int, buddy_help: bool, requests: int | None = None,
    *, export_work: float, import_work: float, period: float,
) -> ScenarioBuild:
    """Figure 3's E(2) → I(2) coupling on flat costs, a request every *period*."""
    if requests is None:  # as many as fall within the export stream's lifetime
        requests = int((1.6 + exports - 1) // period)
    # p_s does twice the per-iteration work: the fast-peer/slow-peer
    # structure (PENDING windows) that buddy-help, and the loss of its
    # messages under a fault plan, act on.
    return _pair(
        RunOptions(preset=_FLAT, buddy_help=buddy_help, seed=seed),
        exports=exports, export_work=export_work, slow_factor=2.0,
        imports=_periodic(period, requests), import_work=import_work,
    )


_FIG3_PARAMS = {
    "exports": Param("int", 200, *_STEPS),
    "seed": Param("int", 42, 0),
    "buddy_help": _BUDDY_HELP,
}
# (a) importer slower: requests arrive long after the exporter has passed
# them.  (b) exporter slower: requests wait inside the export stream.
register_scenario(
    "fig3a",
    partial(_flat, export_work=1.0e-4, import_work=2.0e-2, period=20.0),
    _FIG3_PARAMS,
)
register_scenario(
    "fig3b",
    partial(_flat, export_work=2.0e-3, import_work=1.0e-4, period=20.0),
    _FIG3_PARAMS,
)
register_scenario(
    "resilience",
    partial(_flat, export_work=2e-3, import_work=5e-4, period=2.0),
    {
        "exports": Param("int", 40, *_STEPS),
        "requests": Param("int", 15, *_STEPS),
        "seed": Param("int", 0, 0),
        "buddy_help": _BUDDY_HELP,
    },
)

#: A unit memcpy: ``p_s``'s 1 024-byte block copies in exactly 1.0 and
#: frees for nothing, so a buffered export costs 1, a skip 0, and the
#: Eq. 1 ledger counts wasted memcpys.
_UNIT_MEMCPY = replace(
    _FLAT,
    name="unit-memcpy",
    memory=replace(_FLAT.memory, setup_time=0.0, bandwidth=1024.0, free_time=0.0),
)


def _trace(
    exports: int, seed: int, buddy_help: bool, *,
    tolerance: float, slow_factor: float, imports: tuple[float, ...],
    request_at: tuple[float, ...],
) -> ScenarioBuild:
    """The event traces of Figures 5, 7 and 8: F(2) → U(1) on unit memcpys.

    Rank 0 works 1e-3 per export, ``p_s`` *slow_factor* times that; U
    issues each request at a fixed virtual time, while ``p_s`` is still
    short of it and rank 0 already past it.
    """
    return _pair(
        RunOptions(preset=_UNIT_MEMCPY, buddy_help=buddy_help, seed=seed),
        exports=exports, export_work=1e-3, slow_factor=slow_factor,
        imports=imports, request_at=request_at, names=("F", "U"), region="D",
        shape=(16, 16), grids=((2, 1), (1, 1)), tolerance=tolerance,
    )


# Figure 5: REGL 2.5, requests for 20 and 40 — p_s's skip runs grow 4 → 7.
register_scenario(
    "fig5",
    partial(_trace, tolerance=2.5, slow_factor=1000.0, imports=(20.0, 40.0),
            request_at=(27.5, 57.5)),
    {
        "exports": Param("int", 40, *_STEPS),
        "seed": Param("int", 0, 0),
        "buddy_help": _BUDDY_HELP,
    },
)
# Figure 7: REGL 5.0, a request for 10 — no in-region churn; Figure 8 is
# the same run with buddy_help=false.
register_scenario(
    "fig7",
    partial(_trace, tolerance=5.0, slow_factor=4000.0, imports=(10.0,),
            request_at=(12.0,)),
    {
        "exports": Param("int", 10, *_STEPS),
        "seed": Param("int", 0, 0),
        "buddy_help": _BUDDY_HELP,
    },
)


@dataclass(frozen=True)
class Figure4Spec:
    """Parameters of one Figure-4 configuration.

    Defaults reproduce the paper; ``u_procs`` selects the sub-figure
    (4 → (a), 8 → (b), 16 → (c), 32 → (d)).  The cost-model constants
    are calibrated to 2007 hardware (see ``repro.costs.presets``); the
    derived quantities that matter are the *ratios* between the
    importer's request period and the exporter's window time.
    """

    u_procs: int = 16
    f_procs: int = 4
    exports: int = 1001
    first_ts: float = 1.6
    export_dt: float = 1.0
    request_period: float = 20.0
    tolerance: float = 2.5
    global_shape: tuple[int, int] = (1024, 1024)
    #: Extra-work factor of ``p_s`` (the last F rank).
    slow_factor: float = 1.85
    #: U's per-element compute relative to F's (dimensionless).  Sets
    #: where the Figure-4 crossover falls: U's period per request is
    #: ``(N²/P) · time_per_element · u_compute_scale``.  146 puts the
    #: U=16 catch-up near iteration 400, matching the paper; the value
    #: is deliberately near-critical (the gap between U's period and
    #: p_s's window drives an exponential approach to the optimal
    #: state, so small changes move the crossover a lot — exactly the
    #: sensitivity the paper's Section 5 discussion implies).
    u_compute_scale: float = 146.0
    buddy_help: bool = True
    runs: int = 6
    seed: int = 2007
    jitter: float = 0.01
    #: Iterations counted as the framework warm-up phase (the ~8% head).
    init_iterations: int = 30
    time_per_element: float = 2.0e-8
    memcpy_bandwidth: float = 1.5e9
    contention_per_peer: float = 0.013
    #: Match engine for the F processes (decisions are identical either
    #: way — the seed-replay goldens run this spec under both).
    match_backend: str = DEFAULT_MATCH_BACKEND

    @property
    def n_requests(self) -> int:
        """Requests that fall within the export stream's lifetime."""
        last_ts = self.first_ts + (self.exports - 1) * self.export_dt
        return int(last_ts // self.request_period)

    @property
    def slow_rank(self) -> int:
        """The rank of ``p_s`` (last F rank by convention)."""
        return self.f_procs - 1

    def f_elements(self) -> int:
        """Grid points each F process computes per iteration."""
        return (self.global_shape[0] * self.global_shape[1]) // self.f_procs

    def u_elements(self) -> int:
        """Grid points each U process computes per request period."""
        return (self.global_shape[0] * self.global_shape[1]) // self.u_procs

    def estimated_full_iteration(self) -> float:
        """Rough ``p_s`` iteration time with buffering (calibration aid)."""
        compute = self.f_elements() * self.time_per_element * self.slow_factor
        itemsize = 8
        memcpy = 5.0e-5 + self.f_elements() * itemsize / self.memcpy_bandwidth
        return compute + memcpy

    def preset(self) -> ClusterPreset:
        """The cost-model bundle this spec implies."""
        return ClusterPreset(
            name=f"fig4-u{self.u_procs}",
            memory=MemoryCostModel(
                setup_time=5.0e-5,
                bandwidth=self.memcpy_bandwidth,
                free_time=2.0e-5,
                init_factor=1.08,
                init_until=self.init_iterations * self.estimated_full_iteration(),
                contention_per_peer=self.contention_per_peer,
                jitter=self.jitter,
            ),
            network=NetworkCostModel(
                latency=1.0e-4, bandwidth=1.25e8, congestion_per_flow=0.02
            ),
            compute=ComputeCostModel(
                time_per_element=self.time_per_element,
                fixed_overhead=1.0e-5,
                jitter=self.jitter,
            ),
        )

    def scenario(self, seed: int | None = None) -> ScenarioBuild:
        """One run of this configuration (``spec.seed`` unless *seed*).

        F exports, then computes its block, ``exports`` times (the
        paper's loop); U advances its solution over one request period,
        then imports the next forcing field.
        """
        require(self.u_procs > 0 and self.f_procs > 0, "process counts must be positive")
        return _pair(
            RunOptions(
                preset=self.preset(),
                buddy_help=self.buddy_help,
                seed=self.seed if seed is None else seed,
                match_backend=self.match_backend,
            ),
            exports=self.exports, export_work=self.f_elements(),
            slow_factor=self.slow_factor,
            imports=_periodic(self.request_period, self.n_requests),
            import_work=self.u_elements(), import_scale=self.u_compute_scale,
            elements=True, names=("F", "U"), region="f", shape=self.global_shape,
            grids=(choose_process_grid(self.f_procs, 2), (self.u_procs, 1)),
            tolerance=self.tolerance, first_ts=self.first_ts, export_dt=self.export_dt,
        )


register_scenario(
    "fig4",
    lambda **params: Figure4Spec(**params).scenario(),
    {
        # More U ranks than grid rows would only add empty blocks.
        "u_procs": Param("int", Figure4Spec.u_procs, 1, Figure4Spec.global_shape[0]),
        "exports": Param("int", Figure4Spec.exports, *_STEPS),
        "seed": Param("int", Figure4Spec.seed, 0),
        "buddy_help": _BUDDY_HELP,
    },
)
