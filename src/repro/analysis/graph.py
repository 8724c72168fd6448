"""Static analysis of a coupling configuration (no execution).

The paper's configuration file (Figure 2) is a complete, declarative
description of the coupled system: programs, process counts, and the
export/import connections with their match policies.  That makes a
surprising amount of protocol soundness *statically checkable* — before
any process runs:

* **G101 dangling endpoints** — connections naming unknown programs, or
  analysis directives naming regions no connection touches;
* **G102 schedule incompatibility** — given declared export/import
  timestamp cadences, a policy tolerance that can never (or not always)
  put an export inside the request's acceptable region, so the
  connection resolves to NO_MATCH forever;
* **G103 import-request cycles** — programs whose blocking imports wait
  on each other in a cycle, which can deadlock the DES;
* **G104 dead buddy-help** — connections whose exporting program runs a
  single process, so the mixed PENDING+definitive aggregate cases that
  trigger buddy-help can never occur;
* **G105/G106/G107/G108** — duplicate connections, self-coupling,
  exported regions nobody imports (the legal zero-overhead path), and
  regions imported over more than one connection (unsupported).
  The unknown-program, G105, G106 and G108 errors are
  :data:`repro.core.config.ENDPOINT_RULES`, which
  :meth:`~repro.core.config.CouplingConfig.validate` also raises.

Timestamp cadences are declared with ``#@`` directives inside the
configuration file (ordinary comments to the runtime parser)::

    #@ export P0.r1 period=0.5 start=0.5
    #@ import P1.r1 period=2.0 start=2.0 count=10

meaning P0 exports r1 at t = 0.5, 1.0, 1.5, ... and P1 requests it at
t = 2.0, 4.0, ... (ten requests).  Cadences are optional; checks that
need them are skipped when they are absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.analysis.report import Finding, Report, Severity
from repro.core.config import CouplingConfig, endpoint_errors, parse_config
from repro.core.exceptions import ConfigError
from repro.match.policies import MatchPolicy

#: Relative slack for float grid arithmetic.
_EPS = 1e-9

#: How many import requests the schedule check examines per connection.
_MAX_REQUESTS_CHECKED = 64


@dataclass(frozen=True)
class CadenceSpec:
    """A declared periodic timestamp schedule ``start + k * period``."""

    start: float
    period: float
    count: int | None = None

    def timestamps(self, limit: int) -> list[float]:
        """The first ``min(count, limit)`` grid points."""
        n = limit if self.count is None else min(self.count, limit)
        return [self.start + k * self.period for k in range(n)]


@dataclass
class Cadences:
    """Declared export/import schedules, keyed by ``(program, region)``."""

    exports: dict[tuple[str, str], CadenceSpec]
    imports: dict[tuple[str, str], CadenceSpec]

    @staticmethod
    def empty() -> "Cadences":
        return Cadences(exports={}, imports={})


def parse_directives(text: str, path: str | None, report: Report) -> Cadences:
    """Extract ``#@`` analysis directives from configuration *text*.

    Malformed directives become ``G100`` error findings rather than
    exceptions, so one bad line does not hide the rest of the analysis.
    """
    cadences = Cadences.empty()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line.startswith("#@"):
            continue
        tokens = line[2:].split()
        try:
            role, endpoint, spec = _parse_directive(tokens)
        except ValueError as exc:
            report.add(
                Finding(
                    rule="G100",
                    severity=Severity.ERROR,
                    message=f"malformed analysis directive {line!r}: {exc}",
                    paper="§3 (coupling configuration)",
                    file=path,
                    line=lineno,
                )
            )
            continue
        table = cadences.exports if role == "export" else cadences.imports
        if endpoint in table:
            report.add(
                Finding(
                    rule="G100",
                    severity=Severity.ERROR,
                    message=(
                        f"duplicate {role} cadence for "
                        f"{endpoint[0]}.{endpoint[1]}"
                    ),
                    paper="§3 (coupling configuration)",
                    file=path,
                    line=lineno,
                )
            )
            continue
        table[endpoint] = spec
    return cadences


def _parse_directive(
    tokens: list[str],
) -> tuple[str, tuple[str, str], CadenceSpec]:
    if len(tokens) < 3:
        raise ValueError("expected: (export|import) PROG.REGION period=X [start=Y] [count=N]")
    role = tokens[0].lower()
    if role not in ("export", "import"):
        raise ValueError(f"unknown role {tokens[0]!r} (expected export or import)")
    program, sep, region = tokens[1].partition(".")
    if not sep or not program or not region:
        raise ValueError(f"bad endpoint {tokens[1]!r}: expected PROGRAM.REGION")
    period: float | None = None
    start = 0.0
    start_given = False
    count: int | None = None
    for tok in tokens[2:]:
        key, eq, value = tok.partition("=")
        if not eq:
            raise ValueError(f"bad key=value token {tok!r}")
        try:
            if key == "period":
                period = float(value)
            elif key == "start":
                start = float(value)
                start_given = True
            elif key == "count":
                count = int(value)
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(str(exc)) from None
    if period is None or period <= 0:
        raise ValueError("period must be given and positive")
    if count is not None and count <= 0:
        raise ValueError("count must be positive")
    if not start_given:
        start = period
    return role, (program, region), CadenceSpec(start=start, period=period, count=count)


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------

def analyze_config_text(text: str, path: str | Path | None = None) -> Report:
    """Statically analyze raw configuration *text* (plus directives)."""
    loc = str(path) if path is not None else None
    report = Report(examined=1)
    try:
        config = parse_config(text)
    except ConfigError as exc:
        report.add(
            Finding(
                rule="G101",
                severity=Severity.ERROR,
                message=f"configuration does not parse: {exc}",
                paper="§3 (coupling configuration)",
                file=loc,
            )
        )
        return report
    cadences = parse_directives(text, loc, report)
    # The findings only: this report already counts the file once.
    report.extend(analyze_config(config, cadences=cadences, path=loc).findings)
    return report


def analyze_config(
    config: CouplingConfig,
    cadences: Cadences | None = None,
    path: str | Path | None = None,
) -> Report:
    """Statically analyze a parsed :class:`CouplingConfig`."""
    loc = str(path) if path is not None else None
    report = Report(examined=0 if loc is None else 1)
    cadences = cadences if cadences is not None else Cadences.empty()
    _check_endpoints(config, cadences, loc, report)
    _check_schedules(config, cadences, loc, report)
    _check_cycles(config, loc, report)
    _check_buddy_liveness(config, loc, report)
    return report


# -- G101 / G105 / G106 / G107 / G108 ---------------------------------------

def _check_endpoints(
    config: CouplingConfig, cadences: Cadences, loc: str | None, report: Report
) -> None:
    for error in endpoint_errors(config):
        report.add(
            Finding(
                rule=error.rule,
                severity=Severity.ERROR,
                message=error.message,
                paper="§3 (early detection of incorrect couplings)",
                file=loc,
                program=error.program,
                connection=error.connection,
            )
        )

    # Directive endpoints must exist in the coupling graph; a cadence
    # for a region no connection touches is a dangling region name
    # (usually a typo — the classic silent misconfiguration).
    referenced = {
        (ep.program, ep.region)
        for conn in config.connections
        for ep in (conn.exporter, conn.importer)
    }
    for role, table in (("export", cadences.exports), ("import", cadences.imports)):
        for (prog, region), _spec in sorted(table.items()):
            if (prog, region) not in referenced:
                report.add(
                    Finding(
                        rule="G101",
                        severity=Severity.WARNING,
                        message=(
                            f"{role} cadence declared for {prog}.{region}, but "
                            "no connection references that region — dangling "
                            "region name (typo?)"
                        ),
                        paper="§3 (coupling configuration)",
                        file=loc,
                        program=prog,
                    )
                )

    # Exported regions nobody imports are legal (zero-overhead no-ops)
    # but worth an observation when explicitly declared via a cadence.
    for (prog, region), _spec in sorted(cadences.exports.items()):
        if (prog, region) in referenced and not config.connections_exporting(
            prog, region
        ):
            report.add(
                Finding(
                    rule="G107",
                    severity=Severity.INFO,
                    message=(
                        f"region {prog}.{region} is exported but never "
                        "imported; its exports take the zero-overhead path"
                    ),
                    paper="§3 (unconnected exported regions)",
                    file=loc,
                    program=prog,
                )
            )


# -- G102: schedule/tolerance incompatibility --------------------------------

def _grid_hit(
    low: float, high: float, grid: CadenceSpec
) -> bool:
    """Whether any grid point ``start + k*period`` (k >= 0) lies in
    ``[low, high]``, respecting the grid's optional count bound."""
    slack = _EPS * max(1.0, abs(high), grid.period)
    k_min = math.ceil((low - grid.start - slack) / grid.period)
    k_max = math.floor((high - grid.start + slack) / grid.period)
    k_min = max(k_min, 0)
    if grid.count is not None:
        k_max = min(k_max, grid.count - 1)
    return k_max >= k_min


def _check_schedules(
    config: CouplingConfig, cadences: Cadences, loc: str | None, report: Report
) -> None:
    for conn in config.connections:
        exp_key = (conn.exporter.program, conn.exporter.region)
        imp_key = (conn.importer.program, conn.importer.region)
        exp_cad = cadences.exports.get(exp_key)
        imp_cad = cadences.imports.get(imp_key)
        if exp_cad is None or imp_cad is None:
            continue  # nothing declared: the check does not apply
        policy: MatchPolicy = conn.policy
        requests = imp_cad.timestamps(_MAX_REQUESTS_CHECKED)
        misses = [
            t for t in requests if not _grid_hit(*policy.region(t), exp_cad)
        ]
        if not misses:
            continue
        if len(misses) == len(requests):
            severity = Severity.ERROR
            what = (
                f"no request of the declared import schedule can ever MATCH: "
                f"policy {policy} puts every acceptable region between export "
                f"grid points (export period {exp_cad.period:g}, start "
                f"{exp_cad.start:g})"
            )
        else:
            severity = Severity.WARNING
            shown = ", ".join(f"@{t:g}" for t in misses[:4])
            more = "" if len(misses) <= 4 else f" (+{len(misses) - 4} more)"
            what = (
                f"{len(misses)}/{len(requests)} declared requests can never "
                f"MATCH under policy {policy} given the export cadence "
                f"(period {exp_cad.period:g}): first misses {shown}{more}; "
                "they resolve to NO_MATCH forever"
            )
        report.add(
            Finding(
                rule="G102",
                severity=severity,
                message=what
                + " — widen the tolerance or align the schedules",
                paper="§5 (REGL approximate match, acceptable region)",
                file=loc,
                connection=conn.connection_id,
            )
        )


# -- G103: import-request cycles ---------------------------------------------

def _check_cycles(config: CouplingConfig, loc: str | None, report: Report) -> None:
    # Edge importer -> exporter: the importer's blocking import waits on
    # data only the exporter produces.
    edges: dict[str, set[str]] = {}
    for conn in config.connections:
        edges.setdefault(conn.importer.program, set()).add(conn.exporter.program)
    for cycle in _find_cycles(edges):
        chain = " -> ".join(cycle + [cycle[0]])
        report.add(
            Finding(
                rule="G103",
                severity=Severity.WARNING,
                message=(
                    f"import-request cycle {chain}: if each program issues a "
                    "blocking import before its corresponding export, every "
                    "process waits on data that is never produced and the "
                    "discrete-event simulation deadlocks; phase the "
                    "export/import order explicitly or use non-blocking "
                    "imports (import_begin/import_wait)"
                ),
                paper="§3 (loosely coupled export/import model)",
                file=loc,
            )
        )


def _find_cycles(edges: dict[str, set[str]]) -> list[list[str]]:
    """Elementary-cycle detection, one representative cycle per SCC.

    Tarjan's strongly-connected components, iteratively; SCCs with more
    than one node contain at least one cycle (self-coupling is rejected
    earlier, so single-node SCCs are acyclic).
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    sccs: list[list[str]] = []

    def strongconnect(root: str) -> None:
        work: list[tuple[str, Iterator[str]]] = [
            (root, iter(sorted(edges.get(root, ()))))
        ]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                if len(scc) > 1:
                    sccs.append(sorted(scc))

    nodes = sorted(set(edges) | {m for vs in edges.values() for m in vs})
    for node in nodes:
        if node not in index:
            strongconnect(node)
    return sccs


# -- G104: buddy-help can never fire -----------------------------------------

def _check_buddy_liveness(
    config: CouplingConfig, loc: str | None, report: Report
) -> None:
    for conn in config.connections:
        spec = config.programs.get(conn.exporter.program)
        if spec is None:
            continue  # already a G101 error
        if spec.nprocs == 1:
            report.add(
                Finding(
                    rule="G104",
                    severity=Severity.INFO,
                    message=(
                        f"exporting program {spec.name!r} runs a single "
                        "process, so the mixed PENDING+MATCH / "
                        "PENDING+NO_MATCH aggregate cases cannot occur and "
                        "buddy-help can never fire on this connection — the "
                        "optimization is dead weight here"
                    ),
                    paper="§4 (five legal cases; buddy-help)",
                    file=loc,
                    connection=conn.connection_id,
                )
            )
