"""The framework-level configuration file (paper Figure 2).

The file has two kinds of lines:

* **program lines** — ``NAME CLUSTER EXECUTABLE NPROCS [extra ...]``,
  describing how to deploy each participating program;
* **connection lines** — ``EXP.REGION IMP.REGION POLICY [TOL]``,
  connecting an exported region to an imported region under a match
  policy.

Blank lines and lines starting with ``#`` are ignored (the paper's
example uses a bare ``#`` to separate the two sections).  A line is
recognized as a connection when its first two tokens both contain a
dot; this keeps the parser order-independent and resilient to missing
separators.

Keeping the coupling specification outside the programs is a design
point of the paper: programs can be re-paired without recompilation,
and the framework can detect incorrect couplings at initialization
(e.g. an imported region nobody exports) as well as skip all buffering
work for exported regions nobody imports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.exceptions import ConfigError
from repro.match.policies import MatchPolicy, parse_policy


@dataclass(frozen=True)
class ProgramSpec:
    """One program deployment line.

    Attributes
    ----------
    name:
        Program identifier used in connection endpoints.
    cluster:
        Target cluster/host name (informational in the reproduction).
    executable:
        Path of the binary (informational in the reproduction).
    nprocs:
        Number of processes the program runs with.
    extra:
        Any remaining tokens, preserved verbatim.
    """

    name: str
    cluster: str
    executable: str
    nprocs: int
    extra: tuple[str, ...] = ()


@dataclass(frozen=True)
class Endpoint:
    """A ``program.region`` reference in a connection line."""

    program: str
    region: str

    def __str__(self) -> str:
        return f"{self.program}.{self.region}"

    @staticmethod
    def parse(token: str) -> "Endpoint":
        """Parse ``"P0.r1"``; the region name may itself contain dots."""
        program, sep, region = token.partition(".")
        if not sep or not program or not region:
            raise ConfigError(f"bad endpoint {token!r}: expected PROGRAM.REGION")
        return Endpoint(program=program, region=region)


@dataclass(frozen=True)
class ConnectionSpec:
    """One export/import connection with its match policy.

    ``disjoint_regions`` reflects the paper's (implicit) assumption
    that successive requests' acceptable regions do not overlap
    (Eq. 2); it widens the exporter's skip threshold after a match is
    known.  Set it false per-connection with a trailing
    ``overlapping`` token in the config line for the provably safe
    conservative behaviour.
    """

    exporter: Endpoint
    importer: Endpoint
    policy: MatchPolicy
    disjoint_regions: bool = True

    @property
    def connection_id(self) -> str:
        """Stable identifier, e.g. ``"P0.r1->P1.r1"``."""
        return f"{self.exporter}->{self.importer}"

    def __str__(self) -> str:
        suffix = "" if self.disjoint_regions else " overlapping"
        return f"{self.exporter} {self.importer} {self.policy}{suffix}"


@dataclass
class CouplingConfig:
    """Parsed configuration: programs plus connections."""

    programs: dict[str, ProgramSpec] = field(default_factory=dict)
    connections: list[ConnectionSpec] = field(default_factory=list)

    # -- queries ----------------------------------------------------------
    def connections_exporting(
        self, program: str, region: str | None = None
    ) -> list[ConnectionSpec]:
        """Connections whose exporter side is ``program[.region]``."""
        return [
            c
            for c in self.connections
            if c.exporter.program == program
            and (region is None or c.exporter.region == region)
        ]

    def connections_importing(
        self, program: str, region: str | None = None
    ) -> list[ConnectionSpec]:
        """Connections whose importer side is ``program[.region]``."""
        return [
            c
            for c in self.connections
            if c.importer.program == program
            and (region is None or c.importer.region == region)
        ]

    def is_region_exported(self, program: str, region: str) -> bool:
        """Whether anyone imports this exported region.

        ``False`` enables the paper's low-overhead path: exports of an
        unconnected region never buffer anything.
        """
        return bool(self.connections_exporting(program, region))

    # -- validation --------------------------------------------------------
    def validate(
        self,
        declared_exports: Mapping[str, Iterable[str]] | None = None,
        declared_imports: Mapping[str, Iterable[str]] | None = None,
    ) -> list[str]:
        """Check internal consistency; returns a list of warnings.

        Hard errors (the first break of :data:`ENDPOINT_RULES`, an
        *imported* region with no exporter) raise :class:`ConfigError`;
        soft issues (an exported region nobody imports — legal, just
        zero-overhead) are returned as warnings.

        *declared_exports* / *declared_imports* optionally map program
        name to the region names the program actually registers,
        enabling the early mismatch detection the paper describes.
        """
        errors = endpoint_errors(self)
        if errors:
            raise ConfigError(errors[0].message)
        warnings: list[str] = []
        # The declared-region maps may be partial (cover only some
        # programs); connections touching undeclared programs are
        # checked at runtime registration instead.
        if declared_exports is not None:
            for conn in self.connections:
                ep = conn.exporter
                if ep.program not in declared_exports:
                    continue
                regions = set(declared_exports.get(ep.program, ()))
                if ep.region not in regions:
                    raise ConfigError(
                        f"connection {conn.connection_id}: program {ep.program!r} "
                        f"does not export region {ep.region!r} (exports {sorted(regions)})"
                    )
            for prog, regions in declared_exports.items():
                for region in regions:
                    if not self.is_region_exported(prog, region):
                        warnings.append(
                            f"exported region {prog}.{region} has no importer "
                            "(exports of it will be zero-overhead no-ops)"
                        )
        if declared_imports is not None:
            for conn in self.connections:
                ep = conn.importer
                if ep.program not in declared_imports:
                    continue
                regions = set(declared_imports.get(ep.program, ()))
                if ep.region not in regions:
                    raise ConfigError(
                        f"connection {conn.connection_id}: program {ep.program!r} "
                        f"does not import region {ep.region!r} (imports {sorted(regions)})"
                    )
            for prog, regions in declared_imports.items():
                for region in regions:
                    if not self.connections_importing(prog, region):
                        raise ConfigError(
                            f"imported region {prog}.{region} has no exporter"
                        )
        return warnings


@dataclass(frozen=True)
class EndpointError:
    """One break of a Figure-2 endpoint rule (see :data:`ENDPOINT_RULES`)."""

    #: The rule's ``repro lint`` id.
    rule: str
    message: str
    #: The offending connection's id, or the importing program whose
    #: region is imported twice.
    connection: str | None = None
    program: str | None = None


def _unknown_programs(config: CouplingConfig) -> Iterator[EndpointError]:
    for conn in config.connections:
        for side, ep in (("exporter", conn.exporter), ("importer", conn.importer)):
            if ep.program not in config.programs:
                where = conn.connection_id
                yield EndpointError("G101", f"connection {where}: unknown {side} program "
                                    f"{ep.program!r}", connection=where)


def _duplicate_connections(config: CouplingConfig) -> Iterator[EndpointError]:
    seen: set[str] = set()
    for where in (conn.connection_id for conn in config.connections):
        if where in seen:
            yield EndpointError("G105", f"duplicate connection {where}", connection=where)
        seen.add(where)


def _self_couplings(config: CouplingConfig) -> Iterator[EndpointError]:
    for conn in config.connections:
        if conn.exporter.program == conn.importer.program:
            where = conn.connection_id
            yield EndpointError("G106", f"connection {where} couples a program to itself",
                                connection=where)


def _regions_imported_twice(config: CouplingConfig) -> Iterator[EndpointError]:
    for ep, n in Counter(conn.importer for conn in config.connections).items():
        if n > 1:
            yield EndpointError("G108", f"region {ep} is imported over {n} connections; at "
                                "most one exporter per imported region is supported",
                                program=ep.program)


#: The paper's Figure-2 endpoint rules, the "incorrect couplings" the
#: framework catches at initialization, in the order they are checked.
#: :meth:`CouplingConfig.validate` raises the first break and ``repro
#: lint`` reports every one under the rule's id.
ENDPOINT_RULES: tuple[Callable[[CouplingConfig], Iterator[EndpointError]], ...] = (
    _unknown_programs,
    _duplicate_connections,
    _self_couplings,
    _regions_imported_twice,
)


def endpoint_errors(config: CouplingConfig) -> list[EndpointError]:
    """Every break of :data:`ENDPOINT_RULES` in *config*."""
    return [error for rule in ENDPOINT_RULES for error in rule(config)]


def parse_config(text: str) -> CouplingConfig:
    """Parse configuration *text* (see module docstring for the format)."""
    config = CouplingConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) >= 3 and "." in tokens[0] and "." in tokens[1]:
            config.connections.append(_parse_connection(tokens, lineno))
        else:
            spec = _parse_program(tokens, lineno)
            if spec.name in config.programs:
                raise ConfigError(f"line {lineno}: duplicate program {spec.name!r}")
            config.programs[spec.name] = spec
    return config


def load_config(path: str | Path) -> CouplingConfig:
    """Read and parse a configuration file."""
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _parse_program(tokens: Sequence[str], lineno: int) -> ProgramSpec:
    if len(tokens) < 4:
        raise ConfigError(
            f"line {lineno}: program line needs NAME CLUSTER EXECUTABLE NPROCS, "
            f"got {' '.join(tokens)!r}"
        )
    name, cluster, executable, nprocs_s, *extra = tokens
    try:
        nprocs = int(nprocs_s)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: bad process count {nprocs_s!r} for program {name!r}"
        ) from None
    if nprocs <= 0:
        raise ConfigError(f"line {lineno}: nprocs must be positive, got {nprocs}")
    return ProgramSpec(
        name=name,
        cluster=cluster,
        executable=executable,
        nprocs=nprocs,
        extra=tuple(extra),
    )


def _parse_connection(tokens: Sequence[str], lineno: int) -> ConnectionSpec:
    exporter = Endpoint.parse(tokens[0])
    importer = Endpoint.parse(tokens[1])
    rest = list(tokens[2:])
    disjoint = True
    if rest and rest[-1].lower() == "overlapping":
        disjoint = False
        rest.pop()
    try:
        policy = parse_policy(" ".join(rest))
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from None
    return ConnectionSpec(
        exporter=exporter,
        importer=importer,
        policy=policy,
        disjoint_regions=disjoint,
    )
