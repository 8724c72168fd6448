"""Bit-exact replay, time-travel queries, and differential replay.

A provenance log (see :mod:`repro.obs.prov`) carries enough to
reconstruct its run *from the log alone*: the configuration text, the
frozen run options, the cost-model preset, the fault plan, every
region declaration, and the ordered operation stream of every process.
:func:`replay` synthesizes one generator main per program from those
operation columns and re-runs the real DES runtime — determinism (named
RNG streams, a totally ordered kernel, seeded fault draws) does the
rest, and :func:`verify_replay` proves it by comparing SHA-256 digests
of the replayed ``repro.report/v1`` payload and causal DAG against the
ones recorded in the log's end record.

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
    CAUSAL_DIGEST,
    Block,
    ProvenanceError,
    ProvenanceLog,
    PROV_SCHEMA,
    causal_digest,
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
    ops_by_rank: dict[int, Block]
) -> Callable[[Any], Generator[Any, Any, None]]:
    """One generator main re-driving a program's recorded operations."""

    def main(ctx: Any) -> Generator[Any, Any, None]:
        pending: dict[tuple[str, float], Any] = {}
        block = ops_by_rank.get(ctx.rank)
        for kind, fields in () if block is None else block.items():
            if kind == "export":
                region, ts, dtype = fields
                data = None
                if dtype is not None:
                    data = np.zeros(ctx.local_region(region).shape, dtype=np.dtype(dtype))
                yield from ctx.export(region, ts, data)
            elif kind == "compute":
                yield from ctx.compute(*fields)
            elif kind == "compute_elements":
                elements, scale = fields
                yield from ctx.compute_elements(int(elements), scale=float(scale))
            elif kind == "import_begin":
                pending[fields] = ctx.import_begin(*fields)
            else:  # import_wait: Block.items() raises on an unknown kind
                yield from ctx.import_wait(pending.pop(fields))

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

    Same-backend replays must reproduce both recorded digests exactly,
    the causal one by the rule the end record names (``causal_digest``;
    absent in logs written before it, which digest the payload).
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
    end = log.end or {}
    rule = end.get("causal_digest")
    if rule not in (None, CAUSAL_DIGEST):
        raise ProvenanceError(f"log {log.path}: unknown causal_digest {rule!r}")
    result = replay(log, match_backend=backend)
    report = report_payload(result)
    payload: dict[str, Any] = {
        "schema": PROV_SCHEMA,
        "log": log.path,
        "recorded_backend": recorded_backend,
        "replayed_backend": backend,
        "cross_backend": cross,
        "sim_time": result.sim_time,
        "report_sha256": payload_digest(report),
        "causal_sha256": causal_digest(result.causal)
        if rule
        else payload_digest(causal_payload(result)),
        "recorded_report_sha256": end.get("report_sha256"),
        "recorded_causal_sha256": end.get("causal_sha256"),
    }
    if cross:
        payload["report_identical"] = None
        payload["causal_identical"] = None
        payload["decisions_match"] = _decisions(result) == _decisions(
            replay(log, match_backend=recorded_backend)
        )
        payload["ok"] = bool(payload["decisions_match"])
    else:
        # A header that still carries ``batch_control`` (false: true was
        # refused above) predates the option's removal, and one with
        # ``telemetry_active: true`` predates telemetry ticking between
        # events.  Their report digests covered the two retired frame
        # counters, or the old sampler's events and clock hold, and
        # cannot be recomputed, so such a log verifies on the causal
        # digest alone.
        options = log.header["options"]
        payload["report_identical"] = (
            None
            if "batch_control" in options or options.get("telemetry_active")
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


def _decisions(result: Any) -> dict[tuple[Any, ...], tuple[Any, ...]]:
    """``(connection, request, who)`` → the decision triple of a run.

    The log stores digests, not the causal DAG, so a recorded run's
    decisions come from replaying it under its own recorded backend.
    """
    return {
        (r.connection_id, r.request_ts, r.who): (r.answer_kind, r.case, r.retransmits)
        for r in result.causal.resolutions
    }


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
