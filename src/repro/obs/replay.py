"""Bit-exact replay, time-travel queries, and differential replay.

A ``repro.prov/v1`` log (see :mod:`repro.obs.prov`) carries enough to
reconstruct its run *from the log alone*: the configuration text, the
frozen run options, the cost-model preset, the fault plan, every
region declaration, and the ordered operation stream of every process.
:func:`replay` synthesizes one generator main per program from those
operation rows and re-runs the real DES runtime — determinism (named
RNG streams, a totally ordered kernel, seeded fault draws) does the
rest, and :func:`verify_replay` proves it by comparing SHA-256 digests
of the replayed ``repro.report/v1`` and ``repro.causal/v1`` payloads
against the ones recorded in the log's end record.

On top of plain replay:

* **time travel** — :func:`materialize` replays up to a virtual time
  ``T`` and materializes the buffer ledgers, the PENDING frontier, or
  the match resolutions at that instant;
* **differential replay** — :func:`differential_replay` re-runs the
  log under an edited fault plan or match tolerance and emits a
  structured diff of the two causal DAGs (:func:`diff_causal`):
  exactly which resolutions changed their answer/aggregation case or
  retransmission count, and which buddy-skips appeared or vanished.

Live-runtime logs are audit-only: wall-clock scheduling is not
reproducible, so :func:`replay` refuses them with a clear error.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Callable, Generator

import numpy as np

from repro.faults.plan import FaultPlan
from repro.obs.prov import (
    ProvenanceError,
    ProvenanceLog,
    PROV_SCHEMA,
    causal_payload,
    decomp_from_dict,
    options_from_dict,
    payload_digest,
    preset_from_dict,
    read_log,
    report_payload,
)

__all__ = [
    "diff_causal",
    "differential_replay",
    "materialize",
    "replay",
    "verify_replay",
]

#: Time-travel queries :func:`materialize` understands.
QUERIES = ("ledger", "pending", "matches")


def _load(log: ProvenanceLog | str | Path) -> ProvenanceLog:
    if isinstance(log, ProvenanceLog):
        return log
    return read_log(log)


def _check_replayable(log: ProvenanceLog) -> None:
    if log.runtime != "des":
        raise ProvenanceError(
            f"cannot replay a {log.runtime!r}-runtime log: wall-clock "
            "scheduling is not reproducible (live logs are audit-only)"
        )
    if log.aborted:
        detail = "" if log.end is None else f" ({log.end.get('error')})"
        raise ProvenanceError(
            f"log {log.path} records an aborted run{detail}; "
            "only clean runs replay bit-exactly"
        )
    if log.header["options"].get("batch_control"):
        raise ProvenanceError(
            f"log {log.path} was recorded with the retired option "
            "batch_control=true (control-message framing, removed); "
            "its wire timing cannot be reproduced"
        )


def _make_main(
    ops_by_rank: dict[int, list[dict[str, Any]]]
) -> Callable[[Any], Generator[Any, Any, None]]:
    """One generator main re-driving a program's recorded operations."""

    def main(ctx: Any) -> Generator[Any, Any, None]:
        pending: dict[tuple[str, float], Any] = {}
        for op in ops_by_rank.get(ctx.rank, []):
            kind = op["op"]
            if kind == "compute":
                yield from ctx.compute(op["seconds"])
            elif kind == "compute_elements":
                yield from ctx.compute_elements(
                    int(op["elements"]), scale=float(op["scale"])
                )
            elif kind == "export":
                data = None
                dtype = op.get("dtype")
                if dtype is not None:
                    data = np.zeros(
                        ctx.local_region(op["region"]).shape,
                        dtype=np.dtype(dtype),
                    )
                yield from ctx.export(op["region"], op["ts"], data)
            elif kind == "import_begin":
                key = (op["region"], op["ts"])
                pending[key] = ctx.import_begin(op["region"], op["ts"])
            elif kind == "import_wait":
                handle = pending.pop((op["region"], op["ts"]))
                yield from ctx.import_wait(handle)
            else:  # validated at read time; belt and braces
                raise ProvenanceError(f"unknown recorded op {kind!r}")

    return main


def _rebuild_programs(log: ProvenanceLog) -> list[Any]:
    from repro.api.facade import Program
    from repro.core.coupler import RegionDef
    from repro.data.region import RectRegion

    programs: list[Any] = []
    for name, decl in log.header["programs"].items():
        regions: dict[str, Any] = {}
        for rname, rd in decl["regions"].items():
            section = rd.get("section")
            regions[rname] = RegionDef(
                decomp=decomp_from_dict(rd["decomp"]),
                dtype=np.dtype(rd["dtype"]),
                section=None
                if section is None
                else RectRegion(tuple(section[0]), tuple(section[1])),
            )
        ops_by_rank = log.ops_for(name)
        main = (
            _make_main(ops_by_rank)
            if decl.get("has_main") and ops_by_rank is not None
            else None
        )
        programs.append(
            Program(
                name=name,
                main=main,
                regions=regions,
                nprocs=int(decl["nprocs"]),
            )
        )
    return programs


def _rebuild_config(log: ProvenanceLog, tolerance: float | None) -> Any:
    from repro.core.config import parse_config
    from repro.match.policies import MatchPolicy, PolicyKind

    config = parse_config(log.header["config"])
    if tolerance is None:
        return config
    config.connections = [
        conn
        if conn.policy.kind is PolicyKind.EXACT
        else dataclasses.replace(
            conn, policy=MatchPolicy(conn.policy.kind, float(tolerance))
        )
        for conn in config.connections
    ]
    return config


class _NullSink:
    """Discards telemetry; replays the recorded sampler's schedule only."""

    def emit(self, record: dict[str, Any]) -> None:
        pass

    def close(self) -> None:
        pass


def replay(
    log: ProvenanceLog | str | Path,
    *,
    until: float | None = None,
    match_backend: str | None = None,
    fault_plan: Any | None = None,
    tolerance: float | None = None,
) -> Any:
    """Re-run a recorded run from its log alone; returns a ``RunResult``.

    Defaults reproduce the recorded run bit-exactly.  *match_backend*
    replays under a different match engine (decisions must not change);
    *fault_plan* / *tolerance* are the differential-replay edits.
    *until* stops the replay at a virtual time (time-travel queries).
    """
    from repro.api.facade import run

    log = _load(log)
    _check_replayable(log)
    header = log.header
    preset = (
        preset_from_dict(header["preset"])
        if header.get("preset") is not None
        else None
    )
    plan = fault_plan
    if plan is None and header.get("fault_plan") is not None:
        plan = FaultPlan.from_dict(header["fault_plan"])
    options = options_from_dict(
        header["options"], preset=preset, fault_plan=plan
    )
    if header["options"].get("telemetry_active"):
        # The recorded run had a telemetry sampler: a real DES process
        # whose periodic timers consume seq numbers and hold the clock
        # until the last sampling tick.  Re-create it against a null
        # sink so the replayed event schedule is identical.
        options = dataclasses.replace(options, telemetry_sinks=(_NullSink(),))
    if match_backend is not None:
        options = dataclasses.replace(options, match_backend=match_backend)
    config = _rebuild_config(log, tolerance)
    programs = _rebuild_programs(log)
    return run(config, programs, options, until=until)


def verify_replay(
    log: ProvenanceLog | str | Path,
    *,
    match_backend: str | None = None,
) -> dict[str, Any]:
    """Replay *log* and check bit-exactness against its recorded digests.

    Same-backend replays must reproduce both payload digests exactly.
    Cross-backend replays (an explicit *match_backend* differing from
    the recorded one) are held to the paper's guarantee instead: every
    resolution's answer kind, aggregation case, and retransmission
    count must match (throughput internals may differ).
    """
    log = _load(log)
    # A header without the field predates it, and what recorded such a
    # log was the reference engine — not whatever the default is today.
    # The backend is therefore always passed to replay() by name.
    recorded_backend = str(log.header.get("match_backend", "legacy"))
    backend = recorded_backend if match_backend is None else match_backend
    cross = backend != recorded_backend
    result = replay(log, match_backend=backend)
    report = report_payload(result)
    causal = causal_payload(result)
    end = log.end or {}
    payload: dict[str, Any] = {
        "schema": PROV_SCHEMA,
        "log": log.path,
        "recorded_backend": recorded_backend,
        "replayed_backend": backend,
        "cross_backend": cross,
        "sim_time": result.sim_time,
        "report_sha256": payload_digest(report),
        "causal_sha256": payload_digest(causal),
        "recorded_report_sha256": end.get("report_sha256"),
        "recorded_causal_sha256": end.get("causal_sha256"),
    }
    if cross:
        payload["report_identical"] = None
        payload["causal_identical"] = None
        payload["decisions_match"] = _decisions(causal) == _decisions_from_end(
            log, recorded_backend
        )
        payload["ok"] = bool(payload["decisions_match"])
    else:
        # A header that still carries ``batch_control`` (false: true was
        # refused above) predates the option's removal.  Its report
        # digest covered the two retired frame counters and cannot be
        # recomputed, so such a log verifies on the causal digest alone.
        payload["report_identical"] = (
            None
            if "batch_control" in log.header["options"]
            else payload["report_sha256"] == end.get("report_sha256")
        )
        payload["causal_identical"] = (
            payload["causal_sha256"] == end.get("causal_sha256")
        )
        payload["decisions_match"] = None
        payload["ok"] = bool(
            payload["report_identical"] is not False
            and payload["causal_identical"]
        )
    return payload


def _decisions(causal: dict[str, Any]) -> dict[tuple[Any, ...], tuple[Any, ...]]:
    """``(connection, request, who)`` → the decision triple."""
    out: dict[tuple[Any, ...], tuple[Any, ...]] = {}
    for r in causal.get("resolutions", []):
        key = (r.get("connection"), r.get("request"), r.get("who"))
        out[key] = (r.get("answer_kind"), r.get("case"), r.get("retransmits"))
    return out


def _decisions_from_end(
    log: ProvenanceLog, recorded_backend: str
) -> dict[tuple[Any, ...], tuple[Any, ...]]:
    """The recorded run's decisions, recovered by a same-backend replay.

    The log stores digests, not the full causal payload, so the
    baseline DAG is reconstructed the same way every other derived view
    is: by replaying the log under its own recorded backend.
    """
    baseline = replay(log, match_backend=recorded_backend)
    return _decisions(causal_payload(baseline))


# -- time travel ------------------------------------------------------------


def materialize(
    log: ProvenanceLog | str | Path,
    at: float,
    query: str,
    *,
    match_backend: str | None = None,
) -> dict[str, Any]:
    """Materialize run state at virtual time *at*.

    * ``ledger`` — every buffered entry of every exporter's buffer
      ledger (Eq. 1–2 state): timestamps, sizes, windows, sent flags;
    * ``pending`` — the PENDING frontier: import requests issued but
      not yet resolved at *at*;
    * ``matches`` — the recorded match-engine resolutions with
      ``now <= at`` (straight from the log, no re-run needed).
    """
    log = _load(log)
    if query not in QUERIES:
        raise ProvenanceError(
            f"unknown query {query!r}; expected one of {QUERIES}"
        )
    payload: dict[str, Any] = {
        "schema": PROV_SCHEMA,
        "log": log.path,
        "at": float(at),
        "query": query,
    }
    if query == "matches":
        payload["rows"] = [
            row for row in log.matches if float(row["now"]) <= float(at)
        ]
        return payload
    result = replay(log, until=float(at), match_backend=match_backend)
    rows: list[dict[str, Any]] = []
    sim = result.simulation
    for pname, prog in sorted(sim._programs.items()):
        for ctx in prog.contexts:
            if query == "ledger":
                for region, st in sorted(ctx.export_states.items()):
                    for ts in st.buffer.timestamps():
                        entry = st.buffer.get(ts)
                        rows.append(
                            {
                                "program": pname,
                                "rank": ctx.rank,
                                "region": region,
                                "ts": entry.ts,
                                "nbytes": entry.nbytes,
                                "memcpy_cost": entry.memcpy_cost,
                                "window": entry.window,
                                "sent": entry.sent,
                            }
                        )
            else:  # pending
                for region, ist in sorted(ctx.import_states.items()):
                    for record in ist.records:
                        if record.completed_at is not None:
                            continue
                        rows.append(
                            {
                                "program": pname,
                                "rank": ctx.rank,
                                "region": region,
                                "request_ts": record.request_ts,
                                "issued_at": record.issued_at,
                                "answered": record.answered_at is not None,
                            }
                        )
    payload["rows"] = rows
    return payload


# -- differential replay ----------------------------------------------------


def _res_key(r: dict[str, Any]) -> tuple[Any, ...]:
    return (r.get("connection"), r.get("request"), r.get("who"))


def _skip_key(b: dict[str, Any]) -> tuple[Any, ...]:
    return (b.get("who"), b.get("connection"), b.get("request"), b.get("export_ts"))


def diff_causal(
    before: dict[str, Any], after: dict[str, Any]
) -> dict[str, Any]:
    """A structured diff of two ``repro.causal/v1`` payloads.

    Resolutions are keyed by ``(connection, request_ts, who)`` and
    compared on their decision fields (answer kind, aggregation case,
    retransmission count); buddy-skips are keyed by
    ``(who, connection, request_ts, export_ts)``.  ``identical`` is a
    byte-level payload comparison, so an empty structured diff with
    ``identical: false`` means only latencies/span times moved.
    """
    b_res = {_res_key(r): r for r in before.get("resolutions", [])}
    a_res = {_res_key(r): r for r in after.get("resolutions", [])}
    fields = ("answer_kind", "case", "retransmits")
    changed = []
    for key in sorted(b_res.keys() & a_res.keys(), key=repr):
        b, a = b_res[key], a_res[key]
        delta = {
            f: {"before": b.get(f), "after": a.get(f)}
            for f in fields
            if b.get(f) != a.get(f)
        }
        if delta:
            changed.append(
                {
                    "connection": key[0],
                    "request": key[1],
                    "who": key[2],
                    "changed": delta,
                }
            )
    res_added = [a_res[k] for k in sorted(a_res.keys() - b_res.keys(), key=repr)]
    res_removed = [b_res[k] for k in sorted(b_res.keys() - a_res.keys(), key=repr)]
    b_skips = {_skip_key(s): s for s in before.get("buddy_skips", [])}
    a_skips = {_skip_key(s): s for s in after.get("buddy_skips", [])}
    skips_added = [
        a_skips[k] for k in sorted(a_skips.keys() - b_skips.keys(), key=repr)
    ]
    skips_removed = [
        b_skips[k] for k in sorted(b_skips.keys() - a_skips.keys(), key=repr)
    ]
    empty = not (
        changed or res_added or res_removed or skips_added or skips_removed
    )
    return {
        "schema": PROV_SCHEMA,
        "kind": "causal_diff",
        "identical": payload_digest(before) == payload_digest(after),
        "empty": empty,
        "resolutions": {
            "changed": changed,
            "added": res_added,
            "removed": res_removed,
        },
        "buddy_skips": {"added": skips_added, "removed": skips_removed},
        "spans": {
            "before": len(before.get("spans", [])),
            "after": len(after.get("spans", [])),
        },
    }


def differential_replay(
    log: ProvenanceLog | str | Path,
    *,
    fault_plan: Any | None = None,
    fault_plan_path: str | Path | None = None,
    tolerance: float | None = None,
    match_backend: str | None = None,
) -> dict[str, Any]:
    """Replay twice — recorded vs. edited — and diff the causal DAGs.

    The baseline is the unedited replay of *log* (bit-exact by the
    replay guarantee); the candidate applies an edited fault plan
    (object or JSON file) and/or an edited match tolerance.  The
    returned payload embeds :func:`diff_causal` under ``"diff"``.
    """
    log = _load(log)
    if fault_plan_path is not None:
        if fault_plan is not None:
            raise ProvenanceError("pass fault_plan or fault_plan_path, not both")
        try:
            with open(fault_plan_path, encoding="utf-8") as fh:
                fault_plan = FaultPlan.from_dict(json.load(fh))
        except (OSError, ValueError, TypeError) as exc:
            raise ProvenanceError(f"bad fault plan {fault_plan_path}: {exc}") from exc
    base = replay(log, match_backend=match_backend)
    edited = replay(
        log,
        match_backend=match_backend,
        fault_plan=fault_plan,
        tolerance=tolerance,
    )
    before = causal_payload(base)
    after = causal_payload(edited)
    edits: dict[str, Any] = {}
    if fault_plan is not None:
        edits["fault_plan"] = fault_plan.describe()
    if tolerance is not None:
        edits["tolerance"] = float(tolerance)
    return {
        "schema": PROV_SCHEMA,
        "kind": "differential_replay",
        "log": log.path,
        "edits": edits,
        "base_sim_time": base.sim_time,
        "edited_sim_time": edited.sim_time,
        "diff": diff_causal(before, after),
    }
