"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Run a registered scenario (:mod:`repro.scenarios`) over the
    cartesian product of its ``-p KEY=V[,V…]`` lists and repeated
    ``--fault`` plans; one ``repro.report/v1`` row per cell, with
    ``p_s``'s export path and the importer's answers.  Answers must not
    change across fault plans; two cells that differ only in
    ``buddy_help`` add the buddy-help ``comparison`` that
    ``--baseline`` gates.  ``--trace`` adds ``p_s``'s event trace to each
    row (``run fig5 --trace`` is Figure 5, ``run fig7 -p
    buddy_help=true,false --trace`` Figures 7 and 8); ``--provenance``,
    ``--chrome`` and ``--causal`` record a one-cell run as a
    ``repro.prov/v2`` log, a Chrome ``trace_event`` timeline and a
    ``repro.causal/v1`` report (with ``--chrome``, the timeline gains
    flow arrows along each import's resolution chain).
``monitor``
    Render streaming telemetry (``repro.telemetry/v1`` JSONL written
    by a :class:`repro.obs.JsonlSink`); ``--follow`` tails the file
    until the run's final snapshot; ``--attach URL`` streams the same
    records live from a ``repro serve`` session over the wire.
``serve``
    Coupling as a service: a long-running asyncio session server
    multiplexing many concurrent coupled runs over a worker pool (see
    ``docs/serving.md``); drains gracefully on SIGINT/SIGTERM.
``sessions``
    Client for a running server: ``submit``, ``list``, ``cancel``,
    ``report`` and ``wait`` against ``--url``.
``watch``
    SLO watchdog over a server's fleet aggregate (``GET /fleet``): evaluate
    declarative rules (``error_rate < 0.01``, ``t_ub_p95 < 1.2 *
    baseline``) and exit 1 when any trips — the same contract as
    ``run --baseline`` (see ``docs/observability.md``).
``replay``
    Reconstruct a recorded run from its provenance log alone and
    verify bit-exactness against the log's digests; ``--at T --query
    ledger|pending|matches`` time-travels to any virtual instant, and
    ``--edit PLAN.json`` / ``--edit-tolerance`` re-runs with an edited
    fault plan or match tolerance and diffs the two causal DAGs.
``lint``
    Static analysis: coupling-graph checks over configuration files
    (including every rule ``CouplingConfig.validate`` enforces at
    initialization) and Property-1 AST lint over coupling programs
    (see ``docs/static_analysis.md``).
``verify``
    Exhaustive control-plane model checking (``repro.verify/v1``):
    explore every bounded message interleaving and fault action of a
    2-program world through the real protocol code, checking the M2xx
    invariants; ``--mutate`` checks a deliberately broken protocol,
    ``--replay`` re-executes a counterexample schedule with causal
    tracing on as a causal DAG, and ``--races`` runs the live runtime
    under the vector-clock race detector (R2xx rules).
``experiments``
    Run every figure experiment and emit the markdown report
    (``--out PATH`` writes it to a file).
``version``
    Print the package version.

Conventions (see ``docs/cli.md``): every subcommand accepts ``--json``
for machine-readable output on stdout, and exit codes are shared —
:data:`EXIT_OK` (0) success, :data:`EXIT_FINDINGS` (1) findings (failed
cells, divergent answers, lint errors, verify violations),
:data:`EXIT_USAGE` (2) usage or internal errors (argparse's own
convention).  :func:`main` enforces the last: an unreadable or
unwritable path is ``error: …`` on stderr and exit 2, any other
uncaught exception a traceback and exit 2 — 1 always means findings.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from typing import Any, Sequence

from repro import __version__
from repro.match.backend import DEFAULT_MATCH_BACKEND, MATCH_BACKENDS


def _emit(args: argparse.Namespace, payload: dict[str, Any]) -> bool:
    """Print *payload* as JSON when ``--json`` was passed.

    Returns True when JSON mode consumed the output (the caller skips
    its human-readable rendering).
    """
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
        return True
    return False


#: Shared exit-code contract of every finding-producing subcommand.
EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _finding_exit(report: Any) -> int:
    """Map a :class:`repro.analysis.report.Report` to an exit code."""
    return EXIT_FINDINGS if report.has_errors() else EXIT_OK


#: Comparison keys diffed by ``run --baseline`` and their polarity.
_DIFF_KEYS = (
    ("t_ub_with_help", "lower"),
    ("t_ub_without_help", "lower"),
    ("t_ub_saving", "higher"),
    ("t_ub_no_help_estimate", "info"),
)


def _diff_comparison(
    base: dict[str, Any], current: dict[str, Any], threshold: float
) -> tuple[list[dict[str, Any]], list[str]]:
    """Per-key baseline diff rows plus the regressed key names.

    A ``lower``-is-better key regresses when the current value exceeds
    the baseline by more than *threshold* (relative); ``higher`` keys
    regress on the symmetric drop; ``info`` keys never regress.
    """
    rows: list[dict[str, Any]] = []
    regressions: list[str] = []
    for key, direction in _DIFF_KEYS:
        b, c = base.get(key), current.get(key)
        if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
            continue
        delta = float(c) - float(b)
        allowance = threshold * abs(float(b)) + 1e-12
        regressed = (direction == "lower" and delta > allowance) or (
            direction == "higher" and -delta > allowance
        )
        rows.append({
            "key": key,
            "baseline": float(b),
            "current": float(c),
            "delta": delta,
            "direction": direction,
            "regressed": regressed,
        })
        if regressed:
            regressions.append(key)
    return rows, regressions


def _json_value(raw: str) -> Any:
    """*raw* parsed as JSON; a bare string stays a string."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _parse_grid(pairs: Sequence[str]) -> dict[str, list[Any]]:
    """``KEY=V[,V…]`` pairs → each key's list of values.

    A value that parses as JSON as a whole is one value
    (``imports=[20.0,40.0]``, ``buddy_help=true``); otherwise it is
    split on commas and each piece parsed as JSON (``u_procs=4,8,16`` is
    three values).  Bare strings stay strings, for the scenario's check
    to refuse.
    """
    grid: dict[str, list[Any]] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"expected KEY=VALUE, got {pair!r}")
        if key in grid:
            raise ValueError(f"param {key!r} given twice")
        try:
            grid[key] = [json.loads(raw)]
        except json.JSONDecodeError:
            grid[key] = [_json_value(piece) for piece in raw.split(",")]
    return grid


def _cells(name: str, grid: dict[str, list[Any]], faults: Sequence[str]) -> list[Any]:
    """The :class:`~repro.scenarios.Cell` of every params × ``--fault``
    (JSON object or ``null``) combination, the fault plan varying fastest."""
    from itertools import product

    from repro.scenarios import Cell

    plans = [json.loads(raw) for raw in faults]
    return [Cell(name, dict(zip(grid, values)), plan)
            for values in product(*grid.values()) for plan in plans]


def _buddy_pair(cells: list[Any]) -> tuple[int, int] | None:
    """``(with-help, without-help)`` cell indices, when the grid is two
    cells that differ only in ``buddy_help``; else ``None``."""
    if len(cells) != 2:
        return None
    a, b = (cell.params for cell in cells)
    if {k for k in a if a[k] != b[k]} != {"buddy_help"}:
        return None
    return (0, 1) if a["buddy_help"] else (1, 0)


def _run_table(rows: list[dict[str, Any]]) -> str:
    from repro.bench.reporting import format_table

    table = []
    for row in rows:
        if "error" in row:
            table.append([row["name"], "FAILED", *["-"] * 7])
            continue
        ps = row["p_s"]
        opt = ps["optimal_iteration"]
        table.append([
            row["name"], f"{row['sim_time']:.4f}", f"{ps['skip_fraction']:.0%}",
            f"{ps['buffered_fraction']:.0%}", f"{ps['t_ub'] * 1e3:.3f}",
            f"{ps['export_time'] * 1e3:.3f}", "-" if opt is None else opt,
            f"{row['mean_answer_latency'] * 1e3:.3f}",
            row["counters"].get("retransmissions", 0),
        ])
    return format_table(
        ["cell", "sim t", "skip", "buffered", "T_ub ms", "export ms", "opt iter",
         "latency ms", "retrans"],
        table,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    """Run every cell of a scenario's parameter × fault-plan grid."""
    from repro.bench.rows import memcpy_count, run_row
    from repro.obs.export import REPORT_SCHEMA, validate_report_payload
    from repro.util.tracing import Tracer

    faults = args.fault or ["null"]
    try:
        if args.name == "crash_hard":
            raise ValueError(
                "scenario 'crash_hard' kills the process that runs it; "
                "submit it to repro serve instead"
            )
        cells = _cells(args.name, _parse_grid(args.param or []), faults)
        builds = [cell.build() for cell in cells]
        one_run = [flag for flag in ("provenance", "chrome", "causal") if getattr(args, flag)]
        if one_run and len(cells) > 1:
            raise ValueError(f"--{one_run[0]} records one run; the grid has {len(cells)} cells")
        pair = _buddy_pair(cells)
        base_payload = None
        if args.baseline:
            if pair is None:
                raise ValueError(
                    "--baseline needs exactly two cells that differ only in buddy_help"
                )
            base_payload = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
            problems = validate_report_payload(base_payload)
            if not problems and not isinstance(base_payload.get("comparison"), dict):
                problems = ["no comparison block (record it with a buddy_help=true,false run)"]
            if problems:
                raise ValueError(f"baseline {args.baseline}: {'; '.join(problems)}")
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    watch = {"causal_trace": bool(args.causal), "tracer": Tracer() if args.chrome else None}
    kept: list[Any] = []  # the one-cell run's result, for --chrome/--causal
    rows: list[dict[str, Any]] = []
    for k, (cell, built) in enumerate(zip(cells, builds)):
        suffix = f" fault={k % len(faults)}" if len(faults) > 1 else ""
        row = cell.row(cell.name + suffix)
        try:
            row.update(run_row(
                row["name"], built, trace=args.trace, provenance=args.provenance,
                keep=kept.append if one_run else None, **watch,
            ))
        except OSError:
            raise
        except Exception as exc:  # noqa: BLE001 - a failed cell is a row
            row["error"] = f"{type(exc).__name__}: {exc}"
            print(f"FAIL: {row['name']}: {row['error']}", file=sys.stderr)
        rows.append(row)
    views = _write_views(args, kept[0], rows[0]) if one_run and kept else []

    payload: dict[str, Any] = {"schema": REPORT_SCHEMA, "runs": rows}
    failed = any("error" in row for row in rows)
    if len(faults) > 1:
        for k, row in enumerate(rows):
            first = rows[k - k % len(faults)]
            row["answers_match"] = "answers" in row and row["answers"] == first.get("answers")
        payload["answers_consistent"] = all(row["answers_match"] for row in rows)
        failed = failed or not payload["answers_consistent"]
    comparison: dict[str, float] | None = None
    if pair is not None and not any("error" in rows[i] for i in pair):
        on, off = (rows[i]["metrics"]["paper"] for i in pair)
        comparison = payload["comparison"] = {
            "t_ub_with_help": on["t_ub_total"],
            "t_ub_without_help": off["t_ub_total"],
            "t_ub_saving": off["t_ub_total"] - on["t_ub_total"],
            "t_ub_no_help_estimate": on["t_ub_no_help_estimate"],
        }
    diff_rows: list[dict[str, Any]] = []
    regressions: list[str] = []
    if base_payload is not None and comparison is not None:
        diff_rows, regressions = _diff_comparison(
            base_payload.get("comparison") or {}, comparison, args.threshold
        )
        payload["baseline"] = {
            "path": args.baseline,
            "threshold": args.threshold,
            "diff": diff_rows,
            "regressions": regressions,
        }
    code = EXIT_FINDINGS if failed or regressions else EXIT_OK
    if _emit(args, payload):
        return code

    print(_run_table(rows))
    for row in rows:
        ps = row.get("p_s", {})
        if "trace" in ps:
            print(f"\n== {row['name']}\n\n" + "\n".join(ps["trace"]))
            print(
                f"\n  {ps['decisions'].get('skip', 0)} skips, "
                f"{memcpy_count(ps['decisions'])} memcpys, T_ub = {ps['t_ub']:.6g}"
            )
    if args.provenance:
        print(f"recorded -> {args.provenance}")
    if views:
        print("\n".join(views))
    if comparison is not None:
        print(
            f"\nT_ub with buddy-help    = {comparison['t_ub_with_help']:.6g} s"
            f"\nT_ub without buddy-help = {comparison['t_ub_without_help']:.6g} s"
            f"\nmeasured saving         = {comparison['t_ub_saving']:.6g} s"
            f"\ncounterfactual estimate = {comparison['t_ub_no_help_estimate']:.6g} s"
            " (with-help run, no-help estimate)"
        )
    if base_payload is not None:
        print(f"\nbaseline diff vs {args.baseline} (threshold {args.threshold:.0%}):")
    for row in diff_rows:
        status = "REGRESSED" if row["regressed"] else (
            "info" if row["direction"] == "info" else "ok"
        )
        print(
            f"  {row['key']:<22} base {row['baseline']:>12.6g}  "
            f"now {row['current']:>12.6g}  delta {row['delta']:>+12.6g}  {status}"
        )
    if regressions:
        print(
            f"FAIL: regression beyond threshold: {', '.join(regressions)}",
            file=sys.stderr,
        )
    if "answers_consistent" in payload:
        if payload["answers_consistent"]:
            print("OK: every faulted cell reproduced its fault-free answers")
        else:
            print("FAIL: answers diverged under faults", file=sys.stderr)
    return code


def _write_views(args: argparse.Namespace, result: Any, row: dict[str, Any]) -> list[str]:
    """Write a one-cell run's ``--causal``/``--chrome`` files from its
    *result*; their summaries go into *row*, the human lines are returned."""
    from repro.obs.export import write_chrome_trace

    causal = result.causal if args.causal else None
    lines: list[str] = []
    if causal is not None:
        parts = {"spans": causal.spans, "imports": causal.trace_ids,
                 "resolutions": causal.resolutions, "buddy_skips": causal.buddy_skips}
        summary = row["causal"] = {key: len(part) for key, part in parts.items()}
        if args.causal == "-":
            summary["report"] = causal.as_dict()
            lines.append(causal.render())
        else:
            Path(args.causal).write_text(causal.to_json() + "\n", encoding="utf-8")
            summary["path"] = args.causal
            lines.append(
                f"wrote {args.causal} ({summary['spans']} causal spans, "
                f"{summary['resolutions']} resolutions, {summary['buddy_skips']} buddy skips)"
            )
    if args.chrome:
        timeline = result.timeline
        path = write_chrome_trace(args.chrome, timeline, causal=causal)
        chrome = row["chrome"] = {
            "path": str(path), "spans": timeline.span_count(),
            "instants": timeline.event_count(), "threads": timeline.whos(),
        }
        flows = " + causal flow arrows" if causal is not None else ""
        lines.append(
            f"wrote {path} ({chrome['spans']} spans, {chrome['instants']} instants{flows}; "
            "load in chrome://tracing or https://ui.perfetto.dev)"
        )
    return lines


def _cmd_experiments(args: argparse.Namespace) -> int:
    import io

    from repro.bench.experiments_report import generate_report
    from repro.scenarios import scenario_params

    # Refused before any run: the Figure-4 runs take fig4's exports range.
    exports = scenario_params("fig4")["exports"]
    if args.runs < 1:
        print(f"error: --runs {args.runs} is not >= 1", file=sys.stderr)
        return EXIT_USAGE
    if not exports.accepts(args.exports):
        print(
            f"error: --exports {args.exports} is not {exports.describe()}", file=sys.stderr
        )
        return EXIT_USAGE
    buf = io.StringIO()
    generate_report(buf, exports=args.exports, runs=args.runs)
    if args.out:
        Path(args.out).write_text(buf.getvalue(), encoding="utf-8")
    if not _emit(args, {"report_markdown": buf.getvalue()}):
        sys.stdout.write(f"wrote {args.out}\n" if args.out else buf.getvalue())
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Verify, time-travel, or differentially replay a provenance log."""
    from repro.obs.prov import ProvenanceError, read_log, validate_provenance_log
    from repro.obs.replay import differential_replay, materialize, verify_replay

    try:
        log = read_log(args.log)
    except (ProvenanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    problems = validate_provenance_log(log)
    if problems:
        for problem in problems:
            print(f"error: {args.log}: {problem}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.at is not None:
            payload = materialize(
                log, args.at, args.query, match_backend=args.match_backend
            )
            if _emit(args, payload):
                return EXIT_OK
            print(f"{args.query} @ t={args.at:g}: {len(payload['rows'])} rows")
            for row in payload["rows"]:
                print("  " + json.dumps(row, sort_keys=True))
            return EXIT_OK
        if args.edit is not None or args.edit_tolerance is not None:
            payload = differential_replay(
                log,
                fault_plan_path=args.edit,
                tolerance=args.edit_tolerance,
                match_backend=args.match_backend,
            )
            if _emit(args, payload):
                return EXIT_OK
            diff = payload["diff"]
            res, skips = diff["resolutions"], diff["buddy_skips"]
            print(
                f"differential replay of {args.log} "
                f"(edits: {', '.join(sorted(payload['edits'])) or 'none'})"
            )
            print(
                f"  resolutions: {len(res['changed'])} changed, "
                f"{len(res['added'])} added, {len(res['removed'])} removed"
            )
            print(
                f"  buddy_skips: {len(skips['added'])} added, "
                f"{len(skips['removed'])} removed"
            )
            for c in res["changed"]:
                fields = ", ".join(
                    f"{k}: {v['before']!r} -> {v['after']!r}"
                    for k, v in sorted(c["changed"].items())
                )
                print(f"    {c['connection']} @{c['request']:g} {c['who']}: {fields}")
            print("  diff: " + ("empty" if diff["empty"] else "NON-EMPTY"))
            return EXIT_OK
        payload = verify_replay(log, match_backend=args.match_backend)
    except ProvenanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    code = EXIT_OK if payload["ok"] else EXIT_FINDINGS
    if _emit(args, payload):
        return code
    mode = "cross-backend" if payload["cross_backend"] else "bit-exact"
    print(
        f"replay of {args.log} ({payload['recorded_backend']} -> "
        f"{payload['replayed_backend']}, {mode})"
    )
    if payload["cross_backend"]:
        print(f"  decisions_match: {payload['decisions_match']}")
    else:
        print(f"  report identical: {payload['report_identical']}")
        print(f"  causal identical: {payload['causal_identical']}")
    print("  OK" if payload["ok"] else "  MISMATCH")
    return code


def _render_snapshot(rec: dict[str, Any]) -> str:
    """One human-readable block per ``repro.telemetry/v1`` record."""
    totals = rec.get("totals", {})
    head = (
        f"{'FINAL ' if rec.get('final') else ''}t={rec.get('time', 0.0):.3f}  "
        f"pending={totals.get('pending_imports', 0)}  "
        f"buddy_skips={totals.get('buddy_skips', 0)}  "
        f"T_ub={totals.get('t_ub', 0.0):.6g}  "
        f"ctl={totals.get('ctl_messages', 0)}msg/"
        f"{totals.get('ctl_bytes', 0)}B  "
        f"data={totals.get('data_messages', 0)}msg"
    )
    parts = [head]
    for name, p in sorted(rec.get("programs", {}).items()):
        last = p.get("last_export_ts")
        parts.append(
            f"    {name}: alive={p.get('alive', 0)}/{p.get('ranks', 0)}  "
            f"exports={p.get('exports', 0)}  "
            f"pending={p.get('pending_imports', 0)}  "
            f"done={p.get('imports_completed', 0)}  "
            f"last_export={'-' if last is None else f'{last:g}'}"
        )
    return "\n".join(parts)


def _monitor_show(args: argparse.Namespace, rec: dict[str, Any]) -> None:
    if args.json:
        print(json.dumps(rec, sort_keys=True))
    else:
        print(_render_snapshot(rec))


#: First reconnect delay for ``monitor --attach`` (doubles per retry).
_ATTACH_BACKOFF = 0.25
#: Reconnect delay ceiling.
_ATTACH_BACKOFF_CAP = 2.0


def _monitor_attach(args: argparse.Namespace) -> int:
    """Stream a served session's telemetry over the wire.

    Exit contract: :data:`EXIT_OK` when the stream ends on a ``final``
    snapshot, :data:`EXIT_FINDINGS` when it ends without one (the
    session failed or was cancelled), :data:`EXIT_USAGE` on connection
    errors and timeouts.

    Transient connection loss mid-stream is not terminal: the stream
    reconnects with bounded exponential backoff (``--retries``
    attempts, delays doubling from 0.25s up to 2s), deduplicating the
    server's replayed records by snapshot time.  A silent-session
    timeout and exhausted retries still exit :data:`EXIT_USAGE`.
    """
    import time as _time

    from repro.serve.client import ServeClient, ServeError, split_attach_url

    base, session_id = split_attach_url(args.attach)
    if args.session:
        session_id = args.session
    client = ServeClient(base, timeout=args.timeout)
    if session_id is None:
        # No session in the URL: attach to the most recent one.
        try:
            sessions = client.sessions()
        except (ServeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not sessions:
            print(f"no sessions on {base}", file=sys.stderr)
            return EXIT_USAGE
        session_id = str(sessions[-1]["id"])
    saw_final = False
    last_time: float | None = None
    attempts = 0
    delay = _ATTACH_BACKOFF
    while True:
        try:
            for rec in client.telemetry(session_id, timeout=args.timeout):
                t = rec.get("time")
                if rec.get("final"):
                    if saw_final:
                        continue  # replayed final after a reconnect
                elif (
                    last_time is not None
                    and isinstance(t, (int, float))
                    and float(t) <= last_time
                ):
                    continue  # replayed on reconnect; already shown
                if isinstance(t, (int, float)):
                    last_time = float(t)
                attempts = 0  # a live record proves the link is healthy
                delay = _ATTACH_BACKOFF
                _monitor_show(args, rec)
                if rec.get("final"):
                    saw_final = True
            break  # server closed the stream cleanly
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except TimeoutError as exc:
            # Silence past --timeout is the session stalling, not the
            # link dropping: give up immediately, as before.
            print(
                f"timeout streaming {session_id} from {base}: {exc}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        except OSError as exc:
            attempts += 1
            if attempts > args.retries:
                print(
                    f"connection error streaming {session_id} from {base} "
                    f"after {args.retries} reconnect attempt(s): {exc}",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            print(
                f"connection lost streaming {session_id} from {base} "
                f"(reconnect {attempts}/{args.retries} in {delay:g}s): {exc}",
                file=sys.stderr,
            )
            _time.sleep(delay)
            delay = min(delay * 2.0, _ATTACH_BACKOFF_CAP)
    if saw_final:
        return EXIT_OK
    print(
        f"stream of {session_id} ended without a final snapshot "
        "(session failed or was cancelled)",
        file=sys.stderr,
    )
    return EXIT_FINDINGS


def _cmd_monitor(args: argparse.Namespace) -> int:
    try:
        return _monitor_run(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_USAGE


def _monitor_run(args: argparse.Namespace) -> int:
    import time as _time

    if args.attach:
        return _monitor_attach(args)
    if not args.path:
        print("error: monitor needs a PATH or --attach URL", file=sys.stderr)
        return EXIT_USAGE

    from repro.obs.stream import JsonlTail

    tail = JsonlTail(args.path)
    try:
        if not args.follow:
            records = tail.poll(final=True)
            if not records:
                print(f"no telemetry records in {args.path}", file=sys.stderr)
                return EXIT_USAGE
            _monitor_show(args, records[-1])
            return EXIT_OK

        deadline = _time.monotonic() + args.timeout
        while True:
            for rec in tail.poll():
                _monitor_show(args, rec)
                if rec.get("final"):
                    return EXIT_OK
            if _time.monotonic() >= deadline:
                print(
                    f"timeout: no final snapshot in {args.path} "
                    f"after {args.timeout:g}s",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            _time.sleep(args.interval)
    finally:
        tail.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the coupling service until a drain is requested."""
    import asyncio
    import signal

    from repro.serve import ServeConfig, SessionServer

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_sessions=args.max_sessions,
        drain_timeout=args.drain_timeout,
    )

    async def _serve() -> dict[str, Any]:
        server = SessionServer(config)
        await server.start()
        announce = {
            "schema": "repro.serve/v1",
            "listening": f"http://{config.host}:{server.port}",
            "host": config.host,
            "port": server.port,
            "workers": config.workers,
            "max_sessions": config.max_sessions,
        }
        if getattr(args, "json", False):
            print(json.dumps(announce), flush=True)
        else:
            print(
                f"repro serve: listening on {announce['listening']} "
                f"({config.workers} workers, max {config.max_sessions} "
                "sessions); Ctrl-C drains gracefully",
                flush=True,
            )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.shutdown_requested.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platforms without loop signal handlers
        return await server.serve_until()

    try:
        summary = asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        print("interrupted", file=sys.stderr)
        return EXIT_OK
    if not _emit(args, summary):
        print(
            f"drained: {summary['drained']} session(s) finished, "
            f"{len(summary['cancelled'])} cancelled"
        )
    return EXIT_OK


def _cmd_sessions(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.url, timeout=args.timeout)
    try:
        if args.action == "submit":
            try:
                grid = _parse_grid(args.param or [])
                for key, values in grid.items():
                    if len(values) > 1:
                        raise ValueError(f"--param {key} takes one value, got {len(values)}")
                (cell,) = _cells(args.scenario, grid, [args.fault or "null"])
            except ValueError as exc:  # incl. json.JSONDecodeError
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
            # A null field is the spec's default.
            info = client.submit({**cell.to_dict(), "telemetry_interval": args.interval,
                                  "label": args.label or None, "provenance": args.provenance})
            if args.wait is not None:
                info = client.wait(info["id"], timeout=args.wait)
            if not _emit(args, info):
                print(f"{info['id']}  {info['state']}")
            if args.wait is not None and info.get("state") != "done":
                return EXIT_FINDINGS
            return EXIT_OK
        if args.action == "list":
            sessions = client.sessions()
            if _emit(args, {"sessions": sessions}):
                return EXIT_OK
            if not sessions:
                print("no sessions")
                return EXIT_OK
            for s in sessions:
                label = f"  [{s['label']}]" if s.get("label") else ""
                error = f"  error: {s['error']}" if s.get("error") else ""
                print(
                    f"{s['id']}  {s['state']:<9}  {s['scenario']}"
                    f"{label}{error}"
                )
            return EXIT_OK
        if args.action == "cancel":
            info = client.cancel(args.id, reason=args.reason)
            if not _emit(args, info):
                print(f"{info['id']}  {info['state']}")
            return EXIT_OK
        if args.action == "report":
            report = client.report(args.id)
            print(json.dumps(report, indent=None if args.json else 2))
            return EXIT_OK
        if args.action == "provenance":
            text = client.provenance(args.id)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
                print(f"wrote {args.out} ({len(text)} bytes)")
            else:
                sys.stdout.write(text)
            return EXIT_OK
        if args.action == "wait":
            info = client.wait(args.id, timeout=args.timeout)
            if not _emit(args, info):
                print(f"{info['id']}  {info['state']}")
            return EXIT_OK if info.get("state") == "done" else EXIT_FINDINGS
        raise AssertionError(args.action)  # pragma: no cover
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # A missing report on a failed session is a finding, not misuse.
        return EXIT_FINDINGS if exc.status == 409 else EXIT_USAGE
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    except OSError as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _cmd_watch(args: argparse.Namespace) -> int:
    """Evaluate SLO rules against a server's fleet aggregate.

    Exit contract mirrors ``run --baseline``: :data:`EXIT_FINDINGS`
    when any rule trips, :data:`EXIT_OK` on a clean fleet,
    :data:`EXIT_USAGE` on malformed rules or baselines, bad pass
    counts or connection errors.
    """
    import time

    from repro.obs.export import REPORT_SCHEMA
    from repro.obs.fleet import Aggregate
    from repro.obs.stream import JsonlSink
    from repro.obs.watch import evaluate_rules, parse_rules
    from repro.serve.client import ServeClient, ServeError

    if args.iterations < 1 or args.interval < 0:
        print("error: watch needs --iterations >= 1 and --interval >= 0", file=sys.stderr)
        return EXIT_USAGE
    texts: list[str] = list(args.rule or [])
    if args.rules_file:
        try:
            texts.extend(
                Path(args.rules_file).read_text(encoding="utf-8").splitlines()
            )
        except OSError as exc:
            print(f"error: cannot read {args.rules_file}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        rules = parse_rules(texts)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not rules:
        print("error: watch needs at least one --rule or --rules-file",
              file=sys.stderr)
        return EXIT_USAGE
    baseline: Aggregate | None = None
    if args.baseline:
        try:
            text = Path(args.baseline).read_text(encoding="utf-8")
            baseline = Aggregate.from_dict(json.loads(text))
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
    client = ServeClient(args.url, timeout=args.timeout)
    sinks = [JsonlSink(args.alerts)] if args.alerts else []
    alerts: list[dict[str, Any]] = []
    try:
        for i in range(args.iterations):
            found = evaluate_rules(Aggregate.from_dict(client.fleet()), rules, baseline)
            for alert in found:
                for sink in sinks:
                    sink.emit({"schema": REPORT_SCHEMA, "alerts": [alert]})
            alerts.extend(found)
            if i + 1 < args.iterations:
                time.sleep(args.interval)
    except (ValueError, ServeError) as exc:  # incl. a baseline rule without --baseline
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        for sink in sinks:
            sink.close()
    payload = {
        "schema": REPORT_SCHEMA,
        "url": args.url,
        "rules": [r.text for r in rules],
        "evaluations": args.iterations,
        "alerts": alerts,
    }
    if _emit(args, payload):
        return EXIT_FINDINGS if alerts else EXIT_OK
    print(
        f"watch: {len(rules)} rule(s), {args.iterations} evaluation(s), "
        f"{len(alerts)} alert(s)"
    )
    for alert in alerts:
        scen = alert.get("scenario") or "*"
        print(f"  ALERT [{scen}] {alert['rule']}: {alert['message']}")
    if alerts:
        print("FAIL: SLO rule(s) violated", file=sys.stderr)
        return EXIT_FINDINGS
    print("  fleet healthy")
    return EXIT_OK


#: File suffixes treated as coupling configuration files by ``lint``.
_CONFIG_SUFFIXES = (".cfg", ".conf", ".cpl")


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_config_text, lint_path
    from repro.analysis.report import Report

    report = Report()
    for raw in args.paths:
        p = Path(raw)
        if not p.exists():
            print(f"error: no such path: {raw}", file=sys.stderr)
            return EXIT_USAGE
        if p.is_dir():
            report.extend(lint_path(p))
            for suffix in _CONFIG_SUFFIXES:
                for cfg in sorted(p.rglob(f"*{suffix}")):
                    report.extend(
                        analyze_config_text(
                            cfg.read_text(encoding="utf-8"), path=str(cfg)
                        )
                    )
        elif p.suffix == ".py":
            report.extend(lint_path(p))
        else:
            report.extend(
                analyze_config_text(p.read_text(encoding="utf-8"), path=str(p))
            )
    if args.json:
        print(report.render_json())
    else:
        print(report.render_text())
    return _finding_exit(report)


def _verify_races(args: argparse.Namespace) -> int:
    """Run the live runtime under the happens-before race detector."""
    import numpy as np

    from repro.analysis.model import SCHEMA
    from repro.analysis.races import RaceMonitor
    from repro.api import Program, RunOptions, build
    from repro.core.coupler import RegionDef
    from repro.data import BlockDecomposition

    def f_main(ctx: Any) -> None:
        shape = ctx.local_region("d").shape
        for k in range(16):
            ts = 1.6 + k
            ctx.export("d", ts, data=np.full(shape, ts))
            ctx.compute(0.001)

    def u_main(ctx: Any) -> None:
        for want in (8.0, 14.0):
            ctx.compute(0.002)
            ctx.import_("d", want)

    monitor = RaceMonitor()
    sim = build(
        "F c0 /bin/F 2\nU c1 /bin/U 2\n#\nF.d U.d REGL 2.5\n",
        [
            Program(
                "F", main=f_main,
                regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))},
            ),
            Program(
                "U", main=u_main,
                regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))},
            ),
        ],
        RunOptions(runtime="live", race_monitor=monitor, default_timeout=20.0),
    )
    sim.run(join_timeout=60.0)
    report = monitor.report()
    payload = {
        "schema": SCHEMA,
        "mode": "races",
        "stats": {"accesses": report.examined},
        "report": report.to_dict(),
    }
    if not _emit(args, payload):
        print(f"monitored {report.examined} shared-state accesses")
        print(report.render_text())
    return _finding_exit(report)


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.model import (
        check_suite,
        mutation_config,
        replay_schedule,
    )
    from repro.util.validation import ValidationError

    if args.replay:
        path = Path(args.replay)
        if not path.exists():
            print(f"error: no such schedule: {args.replay}", file=sys.stderr)
            return EXIT_USAGE
        try:
            schedule = json.loads(path.read_text(encoding="utf-8"))
            result = replay_schedule(schedule)
        except (ValidationError, ValueError, KeyError, TypeError) as exc:
            print(f"error: bad schedule: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not _emit(args, result.to_payload()):
            print(
                f"replayed {result.executed} actions"
                + (f" (rule {result.rule})" if result.rule else "")
            )
            if result.error:
                print(f"violation reproduced: {result.error}")
            print(result.report.render())
        return EXIT_OK

    if args.races:
        return _verify_races(args)

    base = mutation_config(args.mutate) if args.mutate else None
    backend = getattr(args, "match_backend", DEFAULT_MATCH_BACKEND)
    if backend != DEFAULT_MATCH_BACKEND:
        from dataclasses import replace as _replace

        from repro.analysis.model import ModelConfig

        base = _replace(
            base if base is not None else ModelConfig(), match_backend=backend
        )
    suite = check_suite(base, max_states=args.max_states, por=not args.no_por)
    if args.cex:
        Path(args.cex).write_text(
            json.dumps(suite.counterexamples, indent=2), encoding="utf-8"
        )
    payload = suite.to_payload()
    payload["match_backend"] = backend
    if not _emit(args, payload):
        for name, result in suite.worlds:
            s = result.stats
            flag = "complete" if s["complete"] else "TRUNCATED"
            print(
                f"{name:>10}: {s['states']:>8} states "
                f"{s['transitions']:>9} transitions "
                f"{s['elapsed_sec']:6.1f}s  {flag}"
            )
        print(
            f"{'total':>10}: {suite.total_states:>8} states across "
            f"{len(suite.worlds)} worlds"
        )
        print(suite.report.render_text())
        if args.cex:
            print(f"counterexample schedules written to {args.cex}")
    return _finding_exit(suite.report)


def _cmd_version(args: argparse.Namespace) -> int:
    if not _emit(args, {"version": __version__}):
        print(__version__)
    return 0


def _add_json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--json", action="store_true", help="machine-readable JSON on stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Buddy-help coupling framework (Wu & Sussman, IPDPS 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prun = sub.add_parser(
        "run", help="run a registered scenario over a parameter x fault-plan grid"
    )
    prun.add_argument("name", metavar="NAME", help="registered scenario name")
    prun.add_argument(
        "-p", "--param", action="append", metavar="KEY=V[,V...]",
        help="scenario param: a JSON value, or a comma list of them to sweep "
        "(repeatable; cells are the cartesian product)",
    )
    prun.add_argument(
        "--fault", action="append", metavar="JSON",
        help="fault plan object, or null for none (repeatable: every plan's "
        "answers must equal the first plan's)",
    )
    prun.add_argument(
        "--provenance", metavar="PATH",
        help="record the (single) cell into a repro.prov/v2 log (.gz compresses)",
    )
    prun.add_argument(
        "--trace", action="store_true",
        help="add p_s's event trace, in the paper's Figure-5/7/8 notation, to each row",
    )
    prun.add_argument(
        "--chrome", metavar="PATH",
        help="write the (single) cell's Chrome trace_event JSON timeline to PATH "
        "(chrome://tracing / Perfetto)",
    )
    prun.add_argument(
        "--causal", metavar="PATH", nargs="?", const="-",
        help="write the (single) cell's repro.causal/v1 report to PATH (print it "
        "with no PATH); with --chrome, adds happens-before flow arrows",
    )
    prun.add_argument(
        "--baseline", metavar="PATH",
        help="diff the buddy-help comparison against a saved repro.report/v1 "
        "payload; exit 1 on regression beyond --threshold",
    )
    prun.add_argument(
        "--threshold", type=float, default=0.10, metavar="FRAC",
        help="relative regression allowance for --baseline (default 0.10)",
    )
    _add_json_flag(prun)
    prun.set_defaults(fn=_cmd_run)

    prep = sub.add_parser(
        "replay",
        help="bit-exact replay of a provenance log: verify, time-travel, diff",
    )
    prep.add_argument("log", help="repro.prov/v2 or v1 log file (.gz supported)")
    prep.add_argument(
        "--at", type=float, default=None, metavar="T",
        help="time-travel: materialize run state at virtual time T",
    )
    prep.add_argument(
        "--query", choices=["ledger", "pending", "matches"], default="ledger",
        help="what --at materializes: buffer ledgers, the PENDING "
        "frontier, or recorded match resolutions (default ledger)",
    )
    prep.add_argument(
        "--edit", metavar="PLAN.json", default=None,
        help="differential replay: re-run under this edited fault plan "
        "and diff the two causal DAGs",
    )
    prep.add_argument(
        "--edit-tolerance", type=float, default=None, metavar="TOL",
        help="differential replay: re-run with every non-EXACT match "
        "policy's tolerance replaced by TOL",
    )
    prep.add_argument(
        "--match-backend", choices=MATCH_BACKENDS, default=None,
        help="replay under this match engine instead of the recorded one "
        "(cross-backend verification compares decisions, not digests)",
    )
    _add_json_flag(prep)
    prep.set_defaults(fn=_cmd_replay)

    pm = sub.add_parser(
        "monitor",
        help="render streaming telemetry (JSONL sink file or served session)",
    )
    pm.add_argument(
        "path", nargs="?", default=None,
        help="JsonlSink output file (repro.telemetry/v1 lines)",
    )
    pm.add_argument(
        "--follow", action="store_true",
        help="poll for new snapshots until the final one arrives",
    )
    pm.add_argument(
        "--attach", metavar="URL",
        help="stream live from a repro serve session instead of a file "
        "(server URL or .../sessions/ID URL)",
    )
    pm.add_argument(
        "--session", metavar="ID",
        help="session id for --attach (overrides one embedded in the URL; "
        "defaults to the server's most recent session)",
    )
    pm.add_argument(
        "--interval", type=float, default=0.2, metavar="S",
        help="poll interval for --follow (default 0.2s)",
    )
    pm.add_argument(
        "--timeout", type=float, default=30.0, metavar="S",
        help="give up on --follow after this long (default 30s)",
    )
    pm.add_argument(
        "--retries", type=int, default=5, metavar="N",
        help="--attach reconnect attempts after transient connection "
        "loss, with exponential backoff (default 5; 0 disables)",
    )
    _add_json_flag(pm)
    pm.set_defaults(fn=_cmd_monitor)

    psv = sub.add_parser(
        "serve",
        help="coupling as a service: host many concurrent coupled sessions",
    )
    psv.add_argument("--host", default="127.0.0.1", help="bind address")
    psv.add_argument(
        "--port", type=int, default=8642,
        help="bind port (0 picks an ephemeral one; default 8642)",
    )
    psv.add_argument(
        "--workers", type=int, default=4,
        help="worker processes executing sessions (default 4)",
    )
    psv.add_argument(
        "--max-sessions", type=int, default=256,
        help="active-session cap; more submissions get HTTP 429 "
        "(default 256)",
    )
    psv.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="S",
        help="seconds in-flight sessions get to finish on shutdown "
        "(default 30)",
    )
    _add_json_flag(psv)
    psv.set_defaults(fn=_cmd_serve)

    pss = sub.add_parser(
        "sessions", help="client for a running repro serve process"
    )
    pss_sub = pss.add_subparsers(dest="action", required=True)

    def _sessions_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--url", default="http://127.0.0.1:8642",
            help="server URL (default http://127.0.0.1:8642)",
        )
        p.add_argument(
            "--timeout", type=float, default=60.0, metavar="S",
            help="request/wait timeout (default 60s)",
        )
        _add_json_flag(p)
        p.set_defaults(fn=_cmd_sessions)

    pss_submit = pss_sub.add_parser("submit", help="submit a new session")
    pss_submit.add_argument(
        "--scenario", default="demo",
        help="registered scenario name (default demo)",
    )
    pss_submit.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="scenario parameter (JSON value; repeatable)",
    )
    pss_submit.add_argument(
        "--fault", metavar="JSON",
        help='fault plan for the session, e.g. \'{"drop": 0.2, "seed": 7}\'',
    )
    pss_submit.add_argument(
        "--interval", type=float, metavar="S",
        help="telemetry snapshot interval (sim seconds)",
    )
    pss_submit.add_argument("--label", help="human-readable session label")
    pss_submit.add_argument(
        "--provenance", action="store_true",
        help="record the session into a repro.prov/v2 provenance log, "
        "retrievable at /sessions/ID/provenance",
    )
    pss_submit.add_argument(
        "--wait", type=float, nargs="?", const=60.0, metavar="S",
        help="block until the session finishes (exit 1 unless it is done)",
    )
    _sessions_common(pss_submit)

    pss_list = pss_sub.add_parser("list", help="list the server's sessions")
    _sessions_common(pss_list)

    pss_cancel = pss_sub.add_parser("cancel", help="cancel a session")
    pss_cancel.add_argument("id", help="session id")
    pss_cancel.add_argument("--reason", help="recorded cancellation reason")
    _sessions_common(pss_cancel)

    pss_report = pss_sub.add_parser(
        "report", help="fetch a finished session's repro.report/v1 payload"
    )
    pss_report.add_argument("id", help="session id")
    _sessions_common(pss_report)

    pss_prov = pss_sub.add_parser(
        "provenance",
        help="fetch a finished session's repro.prov/v2 log "
        "(submit with --provenance first)",
    )
    pss_prov.add_argument("id", help="session id")
    pss_prov.add_argument(
        "--out", metavar="PATH",
        help="write the log to PATH (replayable with repro replay) "
        "instead of stdout",
    )
    _sessions_common(pss_prov)

    pss_wait = pss_sub.add_parser(
        "wait", help="block until a session reaches a terminal state"
    )
    pss_wait.add_argument("id", help="session id")
    _sessions_common(pss_wait)

    pw = sub.add_parser(
        "watch",
        help="SLO watchdog: evaluate rules against a server's fleet aggregate",
    )
    pw.add_argument(
        "url", nargs="?", default="http://127.0.0.1:8642",
        help="server URL (default http://127.0.0.1:8642)",
    )
    pw.add_argument(
        "--rule", action="append", metavar="RULE",
        help="SLO rule, e.g. 'error_rate < 0.01' or "
        "'demo:t_ub_p95 < 1.2 * baseline' (repeatable)",
    )
    pw.add_argument(
        "--rules-file", metavar="PATH",
        help="file of rules, one per line (# comments and blanks skipped)",
    )
    pw.add_argument(
        "--baseline", metavar="PATH",
        help="saved GET /fleet payload (repro.report/v1 aggregate block, "
        "or legacy repro.fleet/v1) baseline-relative rules compare against",
    )
    pw.add_argument(
        "--iterations", type=int, default=1, metavar="N",
        help="evaluation passes, >= 1 (default 1)",
    )
    pw.add_argument(
        "--interval", type=float, default=5.0, metavar="S",
        help="seconds between passes, >= 0 (default 5)",
    )
    pw.add_argument(
        "--alerts", metavar="PATH",
        help="append one repro.report/v1 line per alert to this JSONL "
        "file (.gz compresses)",
    )
    pw.add_argument(
        "--timeout", type=float, default=30.0, metavar="S",
        help="request timeout (default 30s)",
    )
    _add_json_flag(pw)
    pw.set_defaults(fn=_cmd_watch)

    pl = sub.add_parser(
        "lint",
        help="static analysis: config graph checks + Property-1 AST lint",
    )
    pl.add_argument(
        "paths",
        nargs="+",
        help="Python files/directories to lint and/or config files to analyze",
    )
    _add_json_flag(pl)
    pl.set_defaults(fn=_cmd_lint)

    pvf = sub.add_parser(
        "verify",
        help="exhaustive control-plane model checking + race detection",
    )
    pvf.add_argument(
        "--mutate",
        # Mirrors repro.analysis.model.MUTATIONS (kept literal so parser
        # construction stays import-light; asserted equal in the tests).
        choices=["no_dedup", "no_answer_cache", "no_must_send"],
        help="check a deliberately broken protocol (expects a violation)",
    )
    pvf.add_argument(
        "--max-states",
        type=int,
        default=500_000,
        help="per-world distinct-state cap (default 500000)",
    )
    pvf.add_argument(
        "--no-por",
        action="store_true",
        help="disable sleep-set partial-order reduction",
    )
    pvf.add_argument(
        "--cex",
        metavar="PATH",
        help="write counterexample schedules (JSON) to PATH",
    )
    pvf.add_argument(
        "--replay",
        metavar="PATH",
        help="replay one counterexample schedule as a causal DAG",
    )
    pvf.add_argument(
        "--races",
        action="store_true",
        help="run the live runtime under the vector-clock race detector",
    )
    pvf.add_argument(
        "--match-backend", choices=MATCH_BACKENDS, default=DEFAULT_MATCH_BACKEND,
        help="match engine of every world (recorded in the JSON payload; "
        "default: %(default)s, 'legacy' is the reference engine)",
    )
    _add_json_flag(pvf)
    pvf.set_defaults(fn=_cmd_verify)

    pe = sub.add_parser(
        "experiments", help="run all experiments; emit a markdown report"
    )
    pe.add_argument("--out", metavar="PATH", help="write to a file (default stdout)")
    pe.add_argument("--exports", type=int, default=1001)
    pe.add_argument("--runs", type=int, default=6)
    _add_json_flag(pe)
    pe.set_defaults(fn=_cmd_experiments)

    pver = sub.add_parser("version", help="print the package version")
    _add_json_flag(pver)
    pver.set_defaults(fn=_cmd_version)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # noqa: BLE001 - a crash must not read as findings
        traceback.print_exc()
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
