"""The fleet aggregate: one commutative fold of finished sessions.

A server's registry turns each terminal session into one flat row
(:meth:`repro.serve.registry.SessionRecord.row`); :class:`Aggregate`
folds rows into per-scenario groups, so the fleet-wide shape of the
paper's headline quantities (Eq. 2 ``T_ub``, PENDING-resolution
latency, buddy-help savings) stays visible while traffic flows.  What
a group keeps is listed once, in :data:`FIELDS`: folding, merging,
the payload block and its reader, the ``repro_fleet_*`` OpenMetrics
families and the rule vocabulary of :mod:`repro.obs.watch` all derive
from it.  Rows fold, and aggregates merge, in any order to the same
tallies, counts and reservoirs (float sums agree to rounding); the
``aggregate`` block of a ``repro.report/v1`` payload carries the full
histogram state, so :meth:`Aggregate.from_dict` restores it exactly.
"""

from __future__ import annotations

from functools import reduce
from typing import Any

from repro.obs.export import REPORT_SCHEMA
from repro.obs.metrics import Histogram
from repro.obs.stream import ExpositionBuilder

__all__ = ["FIELDS", "STATS", "Aggregate"]

#: ``(field, reducer, family, help)``: ``dist`` keeps a Histogram, ``sum`` a total.
FIELDS: tuple[tuple[str, str, str, str], ...] = (
    ("t_ub", "dist", "repro_fleet_t_ub_seconds", "Eq. 2 T_ub per successful session"),
    ("resolution", "dist", "repro_fleet_resolution_latency_seconds",
     "Mean PENDING-resolution latency per successful session"),
    ("duration", "dist", "repro_fleet_session_duration_seconds",
     "Wall-clock duration of successful sessions"),
    ("buddy_saved_total", "sum", "repro_fleet_buddy_saved_seconds",
     "Buddy-help memcpy savings summed per scenario"),
    ("buddy_skips", "sum", "repro_fleet_buddy_skips",
     "Buddy-enabled skips summed per scenario"),
    ("telemetry_records", "sum", "repro_fleet_telemetry_records",
     "Telemetry records published per scenario"),
    ("telemetry_dropped", "sum", "repro_fleet_telemetry_dropped",
     "Telemetry records dropped (backpressure) per scenario"),
)

#: What a ``dist`` field answers rules with.
STATS = ("p50", "p95", "p99", "mean", "count")

_QUANTILES = (("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99))
_ERROR_STATES = ("failed", "cancelled")
#: Legacy ``repro.fleet/v1`` scenario keys -> field names.
_LEGACY_KEYS = {"resolution_latency": "resolution", "duration_seconds": "duration"}

Group = dict[str, Any]


def _empty() -> Group:
    return {"sessions": {}, **{f: Histogram() if r == "dist" else 0 for f, r, _, _ in FIELDS}}


def _merge(a: Group, b: Group) -> Group:
    sessions = dict(a["sessions"])
    for state, n in b["sessions"].items():
        sessions[state] = sessions.get(state, 0) + n
    fields = {f: a[f].merge(b[f]) if r == "dist" else a[f] + b[f] for f, r, _, _ in FIELDS}
    return {"sessions": sessions, **fields}


def _block(group: Group) -> dict[str, Any]:
    """A group's payload block: tallies, error rate, every field."""
    total = sum(group["sessions"].values())
    errors = sum(group["sessions"].get(s, 0) for s in _ERROR_STATES)
    out: dict[str, Any] = {
        "sessions": dict(sorted(group["sessions"].items())),
        "sessions_total": total,
        "errors": errors,
        "error_rate": errors / total if total else 0.0,
    }
    for f, r, _, _ in FIELDS:
        h = group[f]
        out[f] = {"summary": h.summary(), "state": h.as_state()} if r == "dist" else h
    return out


def _group(block: dict[str, Any], legacy: bool) -> Group:
    """Inverse of :func:`_block`, also over a legacy scenario dict."""
    if legacy:
        block = {_LEGACY_KEYS.get(k, k): v for k, v in block.items()}
        for k, v in dict(block.pop("telemetry", {})).items():
            block[f"telemetry_{k}"] = v
    out = _empty()
    out["sessions"] = {str(k): int(v) for k, v in dict(block.get("sessions", {})).items()}
    for f, r, _, _ in FIELDS:
        value = block.get(f, {} if r == "dist" else 0)
        if r == "sum" and not isinstance(value, (int, float)):
            raise TypeError(f"{f} must be a number, got {value!r}")
        out[f] = Histogram.from_state(dict(value).get("state", {})) if r == "dist" else value
    return out


class Aggregate:
    """Rows grouped by their ``scenario`` field, each group one fold."""

    def __init__(self) -> None:
        self.groups: dict[str, Group] = {}

    def add(self, row: dict[str, Any]) -> None:
        """Fold one row: its ``state`` tally and every numeric field."""
        group = self.groups.setdefault(str(row["scenario"]), _empty())
        group["sessions"][row["state"]] = group["sessions"].get(row["state"], 0) + 1
        for f, r, _, _ in FIELDS:
            value = row.get(f)
            if not isinstance(value, (int, float)):
                continue
            if r == "dist":
                group[f].observe(float(value))
            else:
                group[f] += value

    def merge(self, other: Aggregate) -> Aggregate:
        """A new aggregate over both row sets (inputs untouched)."""
        out = Aggregate()
        for src in (self, other):
            for key, group in src.groups.items():
                out.groups[key] = _merge(out.groups.get(key) or _empty(), group)
        return out

    def blocks(self) -> dict[str, dict[str, Any]]:
        """Every group's payload block, by sorted name."""
        return {k: _block(self.groups[k]) for k in sorted(self.groups)}

    def as_dict(self) -> dict[str, Any]:
        """A ``repro.report/v1`` payload; totals are every group merged."""
        totals = reduce(_merge, (self.groups[k] for k in sorted(self.groups)), _empty())
        return {
            "schema": REPORT_SCHEMA,
            "aggregate": {"groups": self.blocks(), "totals": _block(totals)},
        }

    @classmethod
    def from_dict(cls, payload: Any) -> Aggregate:
        """The aggregate in an :meth:`as_dict` payload or a legacy
        ``repro.fleet/v1`` one; anything else raises ValueError."""
        schema = payload.get("schema") if isinstance(payload, dict) else None
        legacy = schema == "repro.fleet/v1"
        if legacy:
            groups = payload.get("scenarios")
        elif schema == REPORT_SCHEMA and isinstance(payload.get("aggregate"), dict):
            groups = payload["aggregate"].get("groups")
        else:
            raise ValueError(
                f"not an aggregate payload (schema {schema!r}): want "
                f"{REPORT_SCHEMA!r} with an 'aggregate' block"
            )
        if not isinstance(groups, dict):
            raise ValueError("aggregate payload has no groups object")
        out = cls()
        for name, block in groups.items():
            try:
                out.groups[str(name)] = _group(block, legacy)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ValueError(f"malformed aggregate group {name!r}: {exc!r}") from exc
        return out

    def add_to_exposition(self, out: ExpositionBuilder) -> None:
        """Append the ``repro_fleet_*`` families: a ``dist`` field is a
        gauge per ``quantile`` label plus a ``*_samples`` counter."""
        sessions, rate = "repro_fleet_sessions", "repro_fleet_error_rate"
        out.family(sessions, "counter", "Finished sessions by scenario and terminal state")
        out.family(rate, "gauge", "Failed+cancelled over finished sessions, per scenario")
        for key, block in self.blocks().items():
            for state, n in block["sessions"].items():
                out.sample(sessions, "counter", {"scenario": key, "state": state}, n)
            out.sample(rate, "gauge", {"scenario": key}, block["error_rate"])
        for f, r, fam, help_text in FIELDS:
            count_fam = f"{fam.removesuffix('_seconds')}_samples"
            if r == "sum":
                out.family(fam, "counter", help_text)
            else:
                out.family(fam, "gauge", f"{help_text} (quantiles)")
                out.family(count_fam, "counter", f"{help_text} (sample count)")
            for key, group in sorted(self.groups.items()):
                labels = {"scenario": key}
                if r == "sum":
                    out.sample(fam, "counter", labels, group[f])
                    continue
                for qlabel, q in _QUANTILES:
                    out.sample(fam, "gauge", {**labels, "quantile": qlabel},
                               group[f].quantile(q))
                out.sample(count_fam, "counter", labels, group[f].count)
