"""AST lint for Property-1 hazards in user coupling programs.

Property 1 (paper Section 4) requires every process of a program to
issue the *same* collective export/import sequence with the *same*
timestamps.  The five-legal-cases aggregation rule and the buddy-help
optimization are sound only under that discipline — and its violations
are exactly the bugs that surface as confusing
``CollectiveViolationError`` crashes deep inside a run.  This module
finds the *static shadow* of those violations in the program source,
before anything executes:

* **P101** — an ``export`` / ``import_`` / ``import_begin`` call inside
  a branch whose condition depends on the process rank: some ranks
  issue the operation, others do not;
* **P102** — a collective call inside a loop whose trip count depends
  on per-rank data: ranks issue different numbers of operations;
* **P103** — a timestamp expression that mixes the rank into the
  value: ranks issue the same operations with different timestamps;
* **P104** — a rank-conditioned early exit (``return`` / ``break`` /
  ``continue``) in a scope that issues collectives: some ranks cut the
  sequence short.

Rank-dependence is tracked with a light intra-function taint analysis:
any read of a name or attribute called ``rank`` is rank-dependent, and
so is any variable assigned from a rank-dependent expression
(``slow = 2.0 if ctx.rank == 3 else 1.0`` taints ``slow``).  Attribute
reads are a taint barrier — ``solver.time`` stays clean even when
``solver`` was constructed from the rank.  Rank-
dependent *computation* (load imbalance, per-rank data contents, rank-
guarded printing) is perfectly legal — only the collective call
structure and timestamps are checked, mirroring what the runtime's
five-legal-cases rule can and cannot tolerate.

Each rule is one small class; adding a rule means adding one class to
:data:`DEFAULT_RULES`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Sequence

from repro.analysis.report import Finding, Report, Severity

#: Methods treated as collective coupling operations.
COLLECTIVE_METHODS = frozenset({"export", "import_", "import_begin"})

#: Attribute / bare names whose read is rank-dependent.
RANK_NAMES = frozenset({"rank"})


# ---------------------------------------------------------------------------
# taint
# ---------------------------------------------------------------------------

def _mentions_rank(node: ast.AST, tainted: frozenset[str]) -> bool:
    """Whether *node* reads the rank or a rank-tainted variable.

    Attribute access is a taint *barrier* unless the attribute itself
    is named ``rank``: every SPMD program hands the rank to its solver
    constructor (``HeatSolver2D(decomp, ctx.rank)``), yet reads like
    ``solver.time`` are rank-independent — flagging them would make
    the lint useless on correct programs.  Reading a tainted variable
    *directly* still taints.
    """
    if isinstance(node, ast.Attribute):
        return node.attr in RANK_NAMES
    if isinstance(node, ast.Name):
        return node.id in RANK_NAMES or node.id in tainted
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return False  # nested scopes are linted separately
    return any(_mentions_rank(c, tainted) for c in ast.iter_child_nodes(node))


def _assigned_names(target: ast.expr) -> list[str]:
    """Plain names bound by an assignment target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Starred):
        return _assigned_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_assigned_names(elt))
        return out
    return []  # subscripts/attributes do not bind a local name


def _expand_assignment(
    target: ast.expr, value: ast.expr
) -> list[tuple[list[str], ast.expr]]:
    """Pair assignment targets with the sub-expressions feeding them.

    Tuple unpacking is matched element-wise when both sides have the
    same fixed shape: ``a, b = ctx.rank, 0`` taints only ``a`` and
    keeps ``b`` clean.  Any shape mismatch — a starred target, a
    non-literal right-hand side, differing lengths — falls back to
    binding every unpacked name (starred ones included) to the whole
    value, which errs toward reporting and loses no taint.
    """
    if (
        isinstance(target, (ast.Tuple, ast.List))
        and isinstance(value, (ast.Tuple, ast.List))
        and len(target.elts) == len(value.elts)
        and not any(isinstance(e, ast.Starred) for e in target.elts)
        and not any(isinstance(e, ast.Starred) for e in value.elts)
    ):
        out: list[tuple[list[str], ast.expr]] = []
        for t, v in zip(target.elts, value.elts):
            out.extend(_expand_assignment(t, v))
        return out
    names = _assigned_names(target)
    return [(names, value)] if names else []


def _compute_taint(body: Sequence[ast.stmt]) -> frozenset[str]:
    """Fixpoint of rank taint over a scope's assignments.

    Flow-insensitive on purpose: a variable ever assigned from a
    rank-dependent expression is treated as rank-dependent everywhere
    in the scope.  That errs toward reporting (the collective sequence
    must be rank-independent on *every* path), and keeps the analysis
    trivially sound for the generator-style mains the framework runs.
    """
    assignments: list[tuple[list[str], ast.expr]] = []

    class Collect(ast.NodeVisitor):
        def visit_Assign(self, node: ast.Assign) -> None:
            for target in node.targets:
                assignments.extend(_expand_assignment(target, node.value))
            self.generic_visit(node)

        def visit_AugAssign(self, node: ast.AugAssign) -> None:
            names = _assigned_names(node.target)
            if names:
                assignments.append((names, node.value))
                # x += expr also keeps x's own taint; model via self-read.
                assignments.append((names, node.target))
            self.generic_visit(node)

        def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
            if node.value is not None:
                assignments.extend(_expand_assignment(node.target, node.value))
            self.generic_visit(node)

        def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
            assignments.append(([node.target.id], node.value))
            self.generic_visit(node)

        # For-loop targets are deliberately NOT tainted by the iterable:
        # ``for k in range(ctx.rank + 5)`` gives every rank the same
        # ``k`` sequence prefix (only the trip count differs, which is
        # P102's job); tainting ``k`` would double-report every
        # timestamp derived from it.

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            pass  # nested scopes are linted separately

        def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
            pass

        def visit_Lambda(self, node: ast.Lambda) -> None:
            pass

    collector = Collect()
    for stmt in body:
        collector.visit(stmt)

    tainted: set[str] = set()
    changed = True
    while changed:
        changed = False
        for names, value in assignments:
            if _mentions_rank(value, frozenset(tainted)):
                for name in names:
                    if name not in tainted:
                        tainted.add(name)
                        changed = True
    return frozenset(tainted)


# ---------------------------------------------------------------------------
# scope model shared by the rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollectiveCall:
    """One export/import call site with its enclosing control context."""

    node: ast.Call
    method: str
    ts_arg: ast.expr | None
    #: Line numbers of enclosing if/while/ternary tests that are
    #: rank-dependent (innermost last).
    rank_branches: tuple[int, ...]
    #: Line numbers of enclosing loops whose trip count is
    #: rank-dependent (innermost last).
    rank_loops: tuple[int, ...]

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass(frozen=True)
class RankExit:
    """A rank-conditioned ``return``/``break``/``continue``."""

    kind: str
    line: int
    branch_line: int
    #: Whether the scope the exit cuts short issues collective calls.
    scope_has_collectives: bool


@dataclass
class ScopeState:
    """Everything the rules may inspect about one linted scope."""

    name: str
    tainted: frozenset[str]
    calls: list[CollectiveCall] = field(default_factory=list)
    exits: list[RankExit] = field(default_factory=list)


# ---------------------------------------------------------------------------
# rules — one class each
# ---------------------------------------------------------------------------

class LintRule:
    """Base class: a rule inspects a fully-collected :class:`ScopeState`."""

    code: ClassVar[str]
    severity: ClassVar[Severity] = Severity.ERROR
    paper: ClassVar[str] = "§4 (Property 1)"

    def check(self, scope: ScopeState, file: str | None) -> Iterable[Finding]:
        """The rule's findings in *scope*, a scope of *file*."""
        raise NotImplementedError

    def _finding(self, message: str, file: str | None, line: int) -> Finding:
        return Finding(
            rule=self.code,
            severity=self.severity,
            message=message,
            paper=self.paper,
            file=file,
            line=line,
        )


class RankConditionalCollective(LintRule):
    """P101: collective call under a rank-dependent branch."""

    code = "P101"

    def check(self, scope: ScopeState, file: str | None) -> Iterable[Finding]:
        """See :meth:`LintRule.check`."""
        for call in scope.calls:
            if call.rank_branches:
                yield self._finding(
                    f"collective {call.method}() is issued inside a branch "
                    f"conditioned on the process rank (test at line "
                    f"{call.rank_branches[-1]}); ranks taking different "
                    "branches issue different operation sequences, which "
                    "breaks the five-legal-cases aggregation",
                    file,
                    call.line,
                )


class RankDependentTripCount(LintRule):
    """P102: collective call in a loop whose trip count is per-rank."""

    code = "P102"

    def check(self, scope: ScopeState, file: str | None) -> Iterable[Finding]:
        """See :meth:`LintRule.check`."""
        for call in scope.calls:
            if call.rank_loops and not call.rank_branches:
                yield self._finding(
                    f"collective {call.method}() sits in a loop whose trip "
                    f"count depends on the process rank (loop at line "
                    f"{call.rank_loops[-1]}); ranks would issue different "
                    "numbers of operations",
                    file,
                    call.line,
                )


class RankTaintedTimestamp(LintRule):
    """P103: timestamp argument mixes the rank into the value."""

    code = "P103"

    def check(self, scope: ScopeState, file: str | None) -> Iterable[Finding]:
        """See :meth:`LintRule.check`."""
        for call in scope.calls:
            if call.ts_arg is not None and _mentions_rank(
                call.ts_arg, scope.tainted
            ):
                yield self._finding(
                    f"the timestamp passed to {call.method}() depends on the "
                    "process rank; every process must transfer the same "
                    "timestamps in the same order (per-rank data *contents* "
                    "are fine — timestamps are not)",
                    file,
                    call.line,
                )


class RankDependentEarlyExit(LintRule):
    """P104: rank-conditioned early exit from a collective-issuing scope."""

    code = "P104"

    def check(self, scope: ScopeState, file: str | None) -> Iterable[Finding]:
        """See :meth:`LintRule.check`."""
        for ex in scope.exits:
            if ex.scope_has_collectives:
                yield self._finding(
                    f"rank-conditioned {ex.kind!r} (branch at line "
                    f"{ex.branch_line}) cuts short a scope that issues "
                    "collective operations; slower-rank prefixes are legal, "
                    "but a rank-*dependent* cut-off diverges the sequences",
                    file,
                    ex.line,
                )


DEFAULT_RULES: tuple[LintRule, ...] = (
    RankConditionalCollective(),
    RankDependentTripCount(),
    RankTaintedTimestamp(),
    RankDependentEarlyExit(),
)


# ---------------------------------------------------------------------------
# the visitor framework
# ---------------------------------------------------------------------------

class _ScopeVisitor(ast.NodeVisitor):
    """Walks one function (or the module top level) collecting state."""

    def __init__(self, scope: ScopeState) -> None:
        self.scope = scope
        self._branch_stack: list[int] = []
        self._loop_stack: list[int] = []
        #: One flag per *currently open* loop: does it issue collectives?
        self._loop_flags: list[bool] = []
        #: break/continue exits pending their loop's final flag, keyed
        #: by the loop's depth in ``_loop_flags`` at record time.
        self._pending_loop_exits: list[tuple[int, RankExit]] = []
        #: return exits pending the function's final flag.
        self._pending_returns: list[RankExit] = []
        self._function_has_collectives = False

    # -- control context ---------------------------------------------------
    def _tainted_test(self, test: ast.expr) -> bool:
        return _mentions_rank(test, self.scope.tainted)

    def visit_If(self, node: ast.If) -> None:
        tainted = self._tainted_test(node.test)
        if tainted:
            self._branch_stack.append(node.lineno)
        for stmt in node.body + node.orelse:
            self.visit(stmt)
        if tainted:
            self._branch_stack.pop()

    def visit_IfExp(self, node: ast.IfExp) -> None:
        tainted = self._tainted_test(node.test)
        self.visit(node.test)
        if tainted:
            self._branch_stack.append(node.lineno)
        self.visit(node.body)
        self.visit(node.orelse)
        if tainted:
            self._branch_stack.pop()

    def visit_While(self, node: ast.While) -> None:
        tainted = self._tainted_test(node.test)
        if tainted:
            self._loop_stack.append(node.lineno)
        self._enter_loop()
        for stmt in node.body + node.orelse:
            self.visit(stmt)
        self._leave_loop()
        if tainted:
            self._loop_stack.pop()

    def visit_For(self, node: ast.For) -> None:
        tainted = _mentions_rank(node.iter, self.scope.tainted)
        self.visit(node.iter)
        if tainted:
            self._loop_stack.append(node.lineno)
        self._enter_loop()
        for stmt in node.body + node.orelse:
            self.visit(stmt)
        self._leave_loop()
        if tainted:
            self._loop_stack.pop()

    def _enter_loop(self) -> None:
        self._loop_flags.append(False)

    def _leave_loop(self) -> None:
        # The loop's collective flag is now final: resolve the break/
        # continue exits recorded at this depth (a break *before* a
        # collective later in the same loop body still counts).
        depth = len(self._loop_flags) - 1
        flag = self._loop_flags.pop()
        remaining: list[tuple[int, RankExit]] = []
        for d, ex in self._pending_loop_exits:
            if d == depth:
                self.scope.exits.append(
                    RankExit(
                        kind=ex.kind,
                        line=ex.line,
                        branch_line=ex.branch_line,
                        scope_has_collectives=flag,
                    )
                )
            else:
                remaining.append((d, ex))
        self._pending_loop_exits = remaining

    # -- exits -------------------------------------------------------------
    def _make_exit(self, kind: str, node: ast.stmt) -> RankExit | None:
        if not self._branch_stack:
            return None
        return RankExit(
            kind=kind,
            line=node.lineno,
            branch_line=self._branch_stack[-1],
            scope_has_collectives=False,  # resolved later
        )

    def visit_Return(self, node: ast.Return) -> None:
        ex = self._make_exit("return", node)
        if ex is not None:
            self._pending_returns.append(ex)
        self.generic_visit(node)

    def visit_Break(self, node: ast.Break) -> None:
        ex = self._make_exit("break", node)
        if ex is not None and self._loop_flags:
            self._pending_loop_exits.append((len(self._loop_flags) - 1, ex))

    def visit_Continue(self, node: ast.Continue) -> None:
        ex = self._make_exit("continue", node)
        if ex is not None and self._loop_flags:
            self._pending_loop_exits.append((len(self._loop_flags) - 1, ex))

    # -- collective calls --------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        method = self._collective_method(node)
        if method is not None:
            self.scope.calls.append(
                CollectiveCall(
                    node=node,
                    method=method,
                    ts_arg=self._ts_arg(node, method),
                    rank_branches=tuple(self._branch_stack),
                    rank_loops=tuple(self._loop_stack),
                )
            )
            self._function_has_collectives = True
            for i in range(len(self._loop_flags)):
                self._loop_flags[i] = True
        self.generic_visit(node)

    @staticmethod
    def _collective_method(node: ast.Call) -> str | None:
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in COLLECTIVE_METHODS:
            return fn.attr
        if isinstance(fn, ast.Name) and fn.id in COLLECTIVE_METHODS:
            return fn.id
        return None

    @staticmethod
    def _ts_arg(node: ast.Call, method: str) -> ast.expr | None:
        # Signature of all three: (region, ts, ...).
        for kw in node.keywords:
            if kw.arg == "ts":
                return kw.value
        if len(node.args) >= 2:
            return node.args[1]
        return None

    # -- nested scopes are linted independently ---------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    # -- finalize ----------------------------------------------------------
    def finalize(self) -> None:
        """Resolve ``return`` exits against the whole-function picture.

        A ``return`` cuts the entire remaining sequence short, so it
        matters iff the function issues collectives anywhere; ``break``
        and ``continue`` were already resolved against their own loop
        when that loop closed.
        """
        for ex in self._pending_returns:
            self.scope.exits.append(
                RankExit(
                    kind=ex.kind,
                    line=ex.line,
                    branch_line=ex.branch_line,
                    scope_has_collectives=self._function_has_collectives,
                )
            )
        self._pending_returns = []


def _iter_scopes(tree: ast.Module) -> Iterable[tuple[str, Sequence[ast.stmt]]]:
    """The module top level plus every (async) function, at any depth."""
    yield "<module>", tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.body


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def lint_source(
    source: str,
    filename: str | None = None,
    rules: Sequence[LintRule] = DEFAULT_RULES,
) -> Report:
    """Lint one Python source text; returns the merged findings."""
    report = Report(examined=1)
    try:
        tree = ast.parse(source, filename=filename or "<string>")
    except SyntaxError as exc:
        report.add(
            Finding(
                rule="P100",
                severity=Severity.ERROR,
                message=f"source does not parse: {exc.msg}",
                paper="§4 (Property 1)",
                file=filename,
                line=exc.lineno,
            )
        )
        return report
    for name, body in _iter_scopes(tree):
        scope = ScopeState(name=name, tainted=_compute_taint(body))
        visitor = _ScopeVisitor(scope)
        for stmt in body:
            visitor.visit(stmt)
        visitor.finalize()
        for rule in rules:
            for finding in rule.check(scope, filename):
                report.add(finding)
    return report


def lint_file(path: str | Path, rules: Sequence[LintRule] = DEFAULT_RULES) -> Report:
    """Lint one Python file."""
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), filename=str(p), rules=rules)


def lint_path(path: str | Path, rules: Sequence[LintRule] = DEFAULT_RULES) -> Report:
    """Lint a Python file, or every ``*.py`` under a directory."""
    p = Path(path)
    if p.is_dir():
        report = Report()
        for file in sorted(p.rglob("*.py")):
            if any(part.startswith(".") for part in file.parts):
                continue
            report.extend(lint_file(file, rules=rules))
        return report
    return lint_file(p, rules=rules)
