"""Streaming telemetry for live coupled runs.

A coupled run configured with ``RunOptions(telemetry_sinks=(...,))``
periodically emits one *snapshot record* (schema
``repro.telemetry/v1``) to every sink: a JSON-able dict with the
current simulation time, per-program progress (latest export
timestamp, pending imports, buddy skips, accumulated ``T_ub``) and
run-wide wire totals.  The final record of a run carries
``final: true``.

Two sink implementations ship in-repo:

* :class:`JsonlSink` appends one JSON line per snapshot — the format
  ``repro monitor`` tails.
* :class:`OpenMetricsSink` rewrites an OpenMetrics text exposition on
  every flush, suitable for a Prometheus file-based scrape.  The
  exposition is checked by :func:`validate_openmetrics` in CI.

Both runtimes call :func:`emit_snapshot` from their periodic flush
hook; streaming is strictly opt-in — with no sinks configured neither
runtime ever imports this module.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from typing import Any, Iterable, Protocol, runtime_checkable

__all__ = [
    "TelemetrySink",
    "JsonlSink",
    "OpenMetricsSink",
    "ExpositionBuilder",
    "build_snapshot",
    "emit_snapshot",
    "escape_label_value",
    "render_openmetrics",
    "validate_openmetrics",
]

#: Schema tag stamped on every snapshot record.
SCHEMA = "repro.telemetry/v1"


@runtime_checkable
class TelemetrySink(Protocol):
    """Anything that can receive telemetry snapshot records."""

    def emit(self, record: dict[str, Any]) -> None:
        """Receive one snapshot record (schema ``repro.telemetry/v1``)."""

    def close(self) -> None:
        """Flush and release resources (called at most once)."""


# ---------------------------------------------------------------------------
# snapshot construction
# ---------------------------------------------------------------------------
def _sim_now(sim: Any) -> float:
    """Current run time of either runtime (virtual or wall seconds)."""
    inner = getattr(sim, "sim", None)
    if inner is not None and hasattr(inner, "now"):
        return float(inner.now)
    clock = getattr(sim, "elapsed", None)
    if callable(clock):
        return float(clock())
    return 0.0


def build_snapshot(sim: Any, final: bool = False) -> dict[str, Any]:
    """One ``repro.telemetry/v1`` record for a running coupled simulation.

    *sim* is a :class:`~repro.core.coupler.CoupledSimulation` or
    :class:`~repro.core.live.LiveCoupledSimulation` (anything with the
    shared ``_programs`` runtime layout works).
    """
    programs: dict[str, Any] = {}
    tot_pending = 0
    tot_skips = 0
    tot_t_ub = 0.0
    for name, prog in getattr(sim, "_programs", {}).items():
        contexts = getattr(prog, "contexts", [])
        last_export: float | None = None
        exports = 0
        pending = 0
        completed = 0
        skips = 0
        t_ub = 0.0
        compute = 0.0
        for ctx in contexts:
            stats = ctx.stats
            exports += len(stats.export_records)
            if stats.export_records:
                ts = stats.export_records[-1].ts
                last_export = ts if last_export is None else max(last_export, ts)
            skips += stats.buddy_skips
            compute += stats.compute_time
            for ist in ctx.import_states.values():
                pending += len(ist.records) - ist.completed
                completed += ist.completed
            for est in ctx.export_states.values():
                t_ub += est.buffer.t_ub()
        programs[name] = {
            "ranks": prog.nprocs,
            "alive": prog.alive,
            "last_export_ts": last_export,
            "exports": exports,
            "pending_imports": pending,
            "imports_completed": completed,
            "buddy_skips": skips,
            "t_ub": t_ub,
            "compute_time": compute,
        }
        tot_pending += pending
        tot_skips += skips
        tot_t_ub += t_ub
    return {
        "schema": SCHEMA,
        "time": _sim_now(sim),
        "final": bool(final),
        "programs": programs,
        "totals": {
            "pending_imports": tot_pending,
            "buddy_skips": tot_skips,
            "t_ub": tot_t_ub,
            "ctl_messages": getattr(sim, "ctl_messages", 0),
            "ctl_bytes": getattr(sim, "ctl_bytes", 0),
            "data_messages": getattr(sim, "data_messages", 0),
            "data_bytes": getattr(sim, "data_bytes", 0),
            "retransmissions": getattr(sim, "retransmissions", 0),
            "dup_discards": getattr(sim, "dup_discards", 0),
        },
    }


def emit_snapshot(
    sim: Any, sinks: Iterable[TelemetrySink], final: bool = False
) -> dict[str, Any]:
    """Build one snapshot and deliver it to every sink."""
    record = build_snapshot(sim, final=final)
    for sink in sinks:
        sink.emit(record)
    return record


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------
class JsonlSink:
    """Append one JSON line per snapshot to *path*.

    Lines are flushed immediately so ``repro monitor --follow`` can
    tail the file while the run is still going.  A ``.gz`` suffix
    gzip-compresses the stream (append mode concatenates gzip members,
    which every conforming reader — including :mod:`gzip` — decodes as
    one stream).
    """

    def __init__(self, path: str) -> None:
        # Shared with the provenance writer so both honor ``.gz``.
        from repro.obs.prov import open_text

        self.path = path
        self._fh = open_text(path, "a")
        self.records = 0

    def emit(self, record: dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        self.records += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class OpenMetricsSink:
    """Rewrite an OpenMetrics text exposition on every snapshot.

    Point a Prometheus file-scrape (or any OpenMetrics consumer) at
    *path*; the latest snapshot fully replaces the previous one, so
    the file always holds one consistent exposition ending in
    ``# EOF``.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.records = 0
        self.last: dict[str, Any] | None = None

    def emit(self, record: dict[str, Any]) -> None:
        text = render_openmetrics(record)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.records += 1
        self.last = record

    def close(self) -> None:  # nothing held open between flushes
        return None


# ---------------------------------------------------------------------------
# OpenMetrics rendering + in-repo validator
# ---------------------------------------------------------------------------
#: ``(family, type, help, totals key or None)`` for run-wide metrics.
_TOTALS_FAMILIES: tuple[tuple[str, str, str, str], ...] = (
    ("repro_pending_imports", "gauge", "Imports issued but not completed", "pending_imports"),
    ("repro_buddy_skips", "counter", "Skips enabled by buddy answers", "buddy_skips"),
    ("repro_t_ub_seconds", "gauge", "Eq. 2 unnecessary buffering time so far", "t_ub"),
    ("repro_ctl_messages", "counter", "Control-plane messages sent", "ctl_messages"),
    ("repro_ctl_bytes", "counter", "Control-plane bytes sent", "ctl_bytes"),
    ("repro_data_messages", "counter", "Data-plane messages sent", "data_messages"),
    ("repro_data_bytes", "counter", "Data-plane bytes sent", "data_bytes"),
    ("repro_retransmissions", "counter", "Importer request retransmissions", "retransmissions"),
    ("repro_dup_discards", "counter", "Duplicate wire messages discarded", "dup_discards"),
)

#: ``(family, type, help, program key)`` for per-program metrics.
_PROGRAM_FAMILIES: tuple[tuple[str, str, str, str], ...] = (
    ("repro_last_export_timestamp", "gauge", "Latest export timestamp per program", "last_export_ts"),
    ("repro_exports", "counter", "Export calls per program", "exports"),
    ("repro_program_pending_imports", "gauge", "Pending imports per program", "pending_imports"),
    ("repro_imports_completed", "counter", "Completed imports per program", "imports_completed"),
    ("repro_program_buddy_skips", "counter", "Buddy-enabled skips per program", "buddy_skips"),
    ("repro_program_t_ub_seconds", "gauge", "Eq. 2 T_ub per program", "t_ub"),
    ("repro_alive_processes", "gauge", "Processes still running per program", "alive"),
)


def _fmt(value: Any) -> str:
    if value is None:
        return "NaN"
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def escape_label_value(value: str) -> str:
    """Escape a label value per the OpenMetrics text format.

    Backslash, double-quote and newline are the three characters the
    format requires escaping inside quoted label values.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class ExpositionBuilder:
    """Accumulates OpenMetrics families and samples, then renders text.

    Shared by the telemetry sink renderer and the fleet ``/metrics``
    endpoint so both produce the same dialect: ``# TYPE``/``# HELP``
    per family, escaped label values, counter samples suffixed
    ``_total``, and a final ``# EOF`` line.  Each family renders as
    its TYPE/HELP lines followed by its own samples, in the order the
    families were opened, whatever order samples arrive in.
    """

    def __init__(self) -> None:
        self._families: dict[str, list[str]] = {}

    def family(self, name: str, mtype: str, help_text: str) -> None:
        """Open a metric family (its TYPE and HELP lines)."""
        self._families[name] = [f"# TYPE {name} {mtype}", f"# HELP {name} {help_text}"]

    def sample(
        self, name: str, mtype: str, labels: dict[str, str], value: Any
    ) -> None:
        """Append one sample line to family *name* (labels escaped,
        counters ``_total``)."""
        sname = f"{name}_total" if mtype == "counter" else name
        if labels:
            body = ",".join(
                f'{k}="{escape_label_value(str(v))}"' for k, v in labels.items()
            )
            self._families[name].append(f"{sname}{{{body}}} {_fmt(value)}")
        else:
            self._families[name].append(f"{sname} {_fmt(value)}")

    def render(self) -> str:
        """The complete exposition, terminated by ``# EOF``."""
        return "\n".join([*chain.from_iterable(self._families.values()), "# EOF"]) + "\n"


def render_openmetrics(record: dict[str, Any]) -> str:
    """Render one telemetry record as an OpenMetrics text exposition."""
    out = ExpositionBuilder()
    out.family("repro_telemetry_time_seconds", "gauge", "Run time of this snapshot")
    out.sample("repro_telemetry_time_seconds", "gauge", {}, record.get("time", 0.0))
    out.family("repro_run_final", "gauge", "1 when this is the run's last snapshot")
    out.sample("repro_run_final", "gauge", {}, 1 if record.get("final") else 0)

    totals = record.get("totals", {})
    for name, mtype, help_text, key in _TOTALS_FAMILIES:
        out.family(name, mtype, help_text)
        out.sample(name, mtype, {}, totals.get(key, 0))

    programs = record.get("programs", {})
    for name, mtype, help_text, key in _PROGRAM_FAMILIES:
        out.family(name, mtype, help_text)
        for pname, pdata in programs.items():
            out.sample(name, mtype, {"program": str(pname)}, pdata.get(key))

    return out.render()


_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
_TYPES = ("gauge", "counter", "info", "unknown")

#: Legal escape sequences inside a quoted label value.
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n"}


def _parse_sample(line: str) -> tuple[str, list[tuple[str, str]], str]:
    """Parse one sample line into ``(name, labels, value)``.

    A character-scanning parser rather than a regex: quoted label
    values may legally contain ``,``, ``}`` and escaped quotes, which
    no single regex over the label block can honor.  Raises
    :class:`ValueError` with a human-readable reason on malformed
    input.
    """
    m = _NAME_RE.match(line)
    if m is None or m.start() != 0:
        raise ValueError("sample must start with a metric name")
    name = m.group(0)
    i = m.end()
    labels: list[tuple[str, str]] = []
    if i < len(line) and line[i] == "{":
        i += 1
        while True:
            if i >= len(line):
                raise ValueError("unterminated label block")
            if line[i] == "}":
                i += 1
                break
            lm = _LABEL_NAME_RE.match(line, i)
            if lm is None:
                raise ValueError(f"bad label name at column {i + 1}")
            lname = lm.group(0)
            i = lm.end()
            if not line.startswith('="', i):
                raise ValueError(f"label {lname!r} must be followed by ='\"'")
            i += 2
            buf: list[str] = []
            while True:
                if i >= len(line):
                    raise ValueError(f"unterminated value for label {lname!r}")
                c = line[i]
                if c == "\\":
                    if i + 1 >= len(line) or line[i + 1] not in _ESCAPES:
                        raise ValueError(
                            f"invalid escape in label {lname!r} at column {i + 1}"
                        )
                    buf.append(_ESCAPES[line[i + 1]])
                    i += 2
                elif c == '"':
                    i += 1
                    break
                else:
                    buf.append(c)
                    i += 1
            labels.append((lname, "".join(buf)))
            if i < len(line) and line[i] == ",":
                i += 1
            elif i < len(line) and line[i] == "}":
                i += 1
                break
            else:
                raise ValueError(f"expected ',' or '}}' after label {lname!r}")
    if i >= len(line) or line[i] != " ":
        raise ValueError("expected a space before the sample value")
    rest = line[i + 1 :].split(" ")
    if len(rest) not in (1, 2) or not rest[0]:
        raise ValueError("expected 'value' or 'value timestamp'")
    return name, labels, rest[0]


def validate_openmetrics(text: str) -> list[str]:
    """Check *text* against the OpenMetrics text-format rules we rely on.

    Returns a list of human-readable problems (empty when valid).
    Enforced: ``# EOF`` terminator on the last line, ``# TYPE`` before
    any sample of a family, known metric types, legal metric/label
    names, correctly escaped label values (``\\\\``, ``\\"``, ``\\n``
    only), parseable float values, the counter ``_total`` sample
    suffix (gauges must use the bare family name), and each sample
    directly under its own family (no interleaving).
    """
    problems: list[str] = []
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        problems.append("exposition must end with a '# EOF' line")
    types: dict[str, str] = {}
    current: str | None = None
    for i, line in enumerate(lines[:-1] if lines and lines[-1] == "# EOF" else lines):
        where = f"line {i + 1}"
        if not line:
            problems.append(f"{where}: empty line inside exposition")
            continue
        if line == "# EOF":
            problems.append(f"{where}: '# EOF' before the last line")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not _NAME_RE.fullmatch(parts[2]):
                problems.append(f"{where}: malformed TYPE line {line!r}")
                continue
            fam, mtype = parts[2], parts[3]
            if mtype not in _TYPES:
                problems.append(f"{where}: unknown metric type {mtype!r}")
            if fam in types:
                problems.append(f"{where}: duplicate TYPE for family {fam!r}")
            types[fam], current = mtype, fam
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _NAME_RE.fullmatch(parts[2]):
                problems.append(f"{where}: malformed HELP line {line!r}")
            continue
        if line.startswith("#"):
            problems.append(f"{where}: unexpected comment {line!r}")
            continue
        try:
            name, labels, value = _parse_sample(line)
        except ValueError as exc:
            problems.append(f"{where}: unparseable sample {line!r} ({exc})")
            continue
        seen_label_names = [k for k, _ in labels]
        if len(set(seen_label_names)) != len(seen_label_names):
            problems.append(f"{where}: duplicate label name in {line!r}")
        try:
            float(value)
        except ValueError:
            problems.append(f"{where}: non-numeric value {value!r}")
        family = name[: -len("_total")] if name.endswith("_total") else name
        if family in types and types[family] == "counter":
            if not name.endswith("_total"):
                problems.append(
                    f"{where}: counter sample {name!r} must end in '_total'"
                )
        elif name in types:
            if types[name] == "counter":
                problems.append(
                    f"{where}: counter sample {name!r} must end in '_total'"
                )
        elif family not in types and name not in types:
            problems.append(f"{where}: sample {name!r} has no preceding TYPE")
            continue
        owner = name if name in types else family
        if owner != current:
            problems.append(
                f"{where}: sample {name!r} of family {owner!r} interleaved "
                f"after family {current!r}"
            )
    return problems
