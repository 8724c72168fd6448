"""Package-level meta-tests: public surface, docstrings, __all__ health.

These enforce the documentation deliverable structurally: every public
module, class and function in ``repro`` carries a docstring, and every
``__all__`` name actually resolves.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent

PACKAGES = [
    "repro",
    *(info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg),
]

#: Where a name is read through its package path: code, and the prose
#: and CI steps that tell a user what to import.
CODE_DIRS = ("src", "tests", "perf", "benchmarks", "examples", "scripts")
DOC_FILES = [
    *sorted((REPO / "docs").glob("*.md")),
    *(REPO / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")),
]
CI_FILES = sorted((REPO / ".github").rglob("*.yml"))

#: A backticked dotted name (not a schema such as ``repro.report/v1``).
DOC_NAME = re.compile(r"`(repro(?:\.\w+)+)(?![/\w])")
#: ``from PKG import a, b`` or ``from PKG import (a, b)`` in prose.
DOC_IMPORT = re.compile(r"from (repro(?:\.\w+)*) import (\([^)]*\)|[^\n]*)")


def repro_modules_added(code: str, setup: str = "") -> list[str]:
    """The ``repro`` modules *code* adds to ``sys.modules`` after *setup*,
    both run in a fresh interpreter (no online sanitizer)."""
    script = (
        "import json, sys\n"
        f"{setup}\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "added = set(sys.modules) - before\n"
        "print(json.dumps(sorted(m for m in added if m.split('.')[0] == 'repro')))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SANITIZE"}
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def lazy_surface(pkg_name: str) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """A package ``__init__``'s ``if TYPE_CHECKING:`` imports and its
    ``lazy_exports`` table, each as ``(module, name)`` pairs."""
    path = Path(importlib.import_module(pkg_name).__file__)
    typed: set[tuple[str, str]] = set()
    table: set[tuple[str, str]] = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            typed |= {(imp.module, a.name) for imp in node.body for a in imp.names}
        elif isinstance(node, ast.Assign) and ast.unparse(node.value).startswith(
            "lazy_exports("
        ):
            literal = ast.literal_eval(node.value.args[1])
            table |= {(module, name) for module, names in literal.items() for name in names}
    return typed, table


def dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def package_path_reads(packages: set[str]) -> set[tuple[str, str]]:
    """Every ``(package, name)`` of *packages* that something reads
    through the package path: ``from PKG import NAME`` or ``PKG.NAME``
    in code outside the package ``__init__``s, and a backticked
    ``PKG.NAME`` or ``from PKG import NAME`` in the docs and CI steps."""
    reads: set[tuple[str, str]] = set()
    for top in CODE_DIRS:
        for path in sorted((REPO / top).rglob("*.py")):
            if top == "src" and path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    if node.module in packages:
                        reads |= {(node.module, alias.name) for alias in node.names}
                elif isinstance(node, ast.Attribute) and dotted(node.value) in packages:
                    reads.add((dotted(node.value), node.attr))
    for path in DOC_FILES + CI_FILES:
        text = path.read_text()
        for name in DOC_NAME.findall(text):
            parts = name.split(".")
            reads |= {
                (".".join(parts[:i]), parts[i])
                for i in range(1, len(parts))
                if ".".join(parts[:i]) in packages
            }
        for module, names in DOC_IMPORT.findall(text):
            if module in packages:
                parts = names.strip("()").split(",")
                imported = [part.split()[0] for part in parts if part.strip()]
                reads |= {(module, name) for name in imported}
    return reads


def resolves(name: str) -> bool:
    """Whether dotted *name* is a module, or an attribute path under one."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def iter_modules():
    seen = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        seen.append(pkg)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                if info.name == "__main__":
                    continue  # importing it runs the CLI
                mod = importlib.import_module(f"{pkg_name}.{info.name}")
                seen.append(mod)
    return seen


class TestVersion:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_top_level_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


class TestAllIntegrity:
    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_every_all_name_exists(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        for name in getattr(pkg, "__all__", []):
            assert hasattr(pkg, name), f"{pkg_name}.__all__ lists missing {name!r}"


class TestLazySurface:
    """Every package ``__init__`` re-exports lazily through
    :func:`repro._lazy.lazy_exports`: a name's submodule is imported on
    first access, and the surface is listed twice, in the table (which
    ``__all__`` derives from) and in the ``TYPE_CHECKING`` imports, and
    the two must agree.  A package with nothing to re-export is its
    docstring alone."""

    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_table_typing_imports_and_all_name_the_same_set(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        typed, table = lazy_surface(pkg_name)
        if not table:
            assert len(ast.parse(Path(pkg.__file__).read_text()).body) == 1
            assert not typed and not hasattr(pkg, "__all__")
            return
        names = {name for _, name in table}
        assert typed == table
        # ruff's F401 is off in package ``__init__``s (it cannot see the
        # ``__all__`` the table sets), so an import beyond these is caught here.
        body = ast.parse(Path(pkg.__file__).read_text()).body
        imports = [
            alias.name
            for node in body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        assert imports == ["TYPE_CHECKING", "lazy_exports"]
        assert names == set(pkg.__all__) - {"__version__"}
        # Loading a submodule binds it onto the package, which would
        # hide an export spelled like it.
        assert names.isdisjoint(info.name for info in pkgutil.iter_modules(pkg.__path__))

    def test_every_export_has_a_caller(self):
        """A subpackage re-exports exactly the names something reads
        through its package path; ``repro`` itself is the documented
        surface and exempt."""
        subpackages = set(PACKAGES) - {"repro"}
        exported = {(pkg, name) for pkg in subpackages for _, name in lazy_surface(pkg)[1]}
        reads = package_path_reads(subpackages)
        assert sorted(f"{pkg}.{name}" for pkg, name in exported - reads) == []
        # Anything else read through a package path is a submodule of it.
        others = {f"{pkg}.{name}" for pkg, name in reads - exported}
        assert sorted(name for name in others if importlib.util.find_spec(name) is None) == []

    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_names_resolve_to_their_home_and_are_cached(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        for module, name in sorted(lazy_surface(pkg_name)[1]):
            assert getattr(pkg, name) is getattr(importlib.import_module(module), name)
            assert name in vars(pkg), f"{pkg_name}.{name} was not cached"

    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_dir_lists_all(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        assert set(getattr(pkg, "__all__", ())) <= set(dir(pkg))

    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_unknown_name_raises_attribute_error_naming_the_module(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        message = f"module {pkg_name!r} has no attribute 'no_such_name'"
        with pytest.raises(AttributeError, match=re.escape(message)):
            pkg.no_such_name  # noqa: B018

    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_star_import_binds_all(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        namespace: dict = {}
        exec(f"from {pkg_name} import *", namespace)
        del namespace["__builtins__"]
        if hasattr(pkg, "__all__"):
            assert set(namespace) == set(pkg.__all__)
        else:  # a docstring-only package: only the submodules loaded so far
            assert all(inspect.ismodule(value) for value in namespace.values())

    def test_star_import_of_repro_binds_the_public_surface(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted([
            "__version__", "run", "build", "Program", "RunOptions", "RunResult",
            "CouplingConfig", "load_config", "parse_config", "CoupledSimulation",
            "LiveCoupledSimulation", "RegionDef", "BlockDecomposition", "CommSchedule",
            "DistributedArray", "RectRegion", "MatchPolicy", "PolicyKind",
            "MetricsSnapshot", "PaperMetrics", "SpanRecorder", "TimelineSet",
            "FaultPlan", "Tracer", "NullTracer",
        ])


class TestColdStart:
    """What an import or a run loads, each in a fresh interpreter: a
    caller pays only for the layers it uses."""

    def test_import_repro_loads_only_the_package(self):
        assert repro_modules_added("import repro") == ["repro", "repro._lazy"]

    def test_match_layer_loads_no_higher_layer(self):
        loaded = repro_modules_added("from repro.match import *")
        assert [m for m in loaded if m.startswith(
            ("repro.core", "repro.des", "repro.obs", "repro.api")
        )] == []

    def test_des_run_loads_no_opt_in_layer(self):
        loaded = repro_modules_added(
            "from repro.scenarios import build\nbuild('demo', {}).run()"
        )
        opt_in = (
            "repro.serve", "repro.analysis", "repro.core.live",
            "repro.vmpi.thread_backend", "repro.obs.prov", "repro.obs.replay",
            "repro.obs.fleet", "repro.obs.watch",
        )
        assert "repro.core.coupler" in loaded
        assert [m for m in loaded if m.startswith(opt_in)] == []

    def test_worker_forks_warm(self):
        """A served session imports nothing the worker did not import
        before the fork: not the first one, nor one with provenance and
        a fault plan."""
        params = {"exports": 12, "imports": [4.0, 8.0], "seed": 3}
        plain = {"scenario": "demo", "params": params}
        opt_in = {**plain, "provenance": True, "fault_plan": {"seed": 5, "drop": 0.1}}
        loaded = repro_modules_added(
            f"assert run_session('a', {plain!r})['ok']\n"
            f"assert run_session('b', {opt_in!r})['ok']",
            setup="from repro.serve.worker import run_session",
        )
        assert loaded == []


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        undocumented = [
            m.__name__
            for m in iter_modules()
            if not (m.__doc__ or "").strip() and m.__name__ != "repro.__main__"
        ]
        assert undocumented == []

    def test_every_public_class_and_function_documented(self):
        missing = []
        for mod in iter_modules():
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # re-export; documented at its home
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{mod.__name__}.{name}")
                if inspect.isclass(obj):
                    for mname, meth in vars(obj).items():
                        if mname.startswith("_"):
                            continue
                        if not inspect.isfunction(meth):
                            continue
                        if meth.__name__ == "<lambda>":
                            continue  # dataclass field defaults
                        if not (meth.__doc__ or "").strip():
                            missing.append(f"{mod.__name__}.{name}.{mname}")
        assert missing == [], f"undocumented public items: {missing}"


class TestNoUnusedImports:
    """Keep the source free of dead imports (no linter in this env)."""

    def test_no_unused_imports_in_src(self):
        import ast
        from pathlib import Path

        root = Path(repro.__file__).resolve().parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path.name == "__init__.py":
                continue  # re-export surface
            tree = ast.parse(path.read_text())
            imported: dict[str, int] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for a in node.names:
                        imported[(a.asname or a.name).split(".")[0]] = node.lineno
                elif isinstance(node, ast.ImportFrom):
                    if node.module == "__future__":
                        continue
                    for a in node.names:
                        if a.name != "*":
                            imported[a.asname or a.name] = node.lineno
            used = {
                n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            }
            for name, lineno in imported.items():
                if name not in used:
                    offenders.append(f"{path.relative_to(root)}:{lineno} {name}")
        assert offenders == []


class TestLayering:
    """The architecture's dependency direction must hold: lower layers
    never import higher ones."""

    FORBIDDEN = {
        "repro.des": ["repro.vmpi", "repro.data", "repro.match", "repro.core",
                      "repro.apps", "repro.bench", "repro.costs"],
        "repro.vmpi": ["repro.core", "repro.apps", "repro.bench", "repro.match",
                       "repro.data", "repro.costs"],
        "repro.data": ["repro.core", "repro.apps", "repro.bench"],
        "repro.match": ["repro.core", "repro.apps", "repro.bench"],
        "repro.costs": ["repro.core", "repro.apps", "repro.bench"],
        "repro.core": ["repro.apps", "repro.bench"],
        "repro.apps": ["repro.bench"],
        # The registry sits under every front-end that builds through it.
        "repro.scenarios": ["repro.serve", "repro.cli", "repro.bench"],
    }

    @pytest.mark.parametrize("lower", sorted(FORBIDDEN))
    def test_no_upward_imports(self, lower):
        # No module of the lower layer names a forbidden one in its source.
        pkg = importlib.import_module(lower)
        sources = []
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                sources.append(importlib.import_module(f"{lower}.{info.name}"))
        sources.append(pkg)
        for mod in sources:
            src = inspect.getsource(mod)
            for banned in self.FORBIDDEN[lower]:
                assert f"from {banned}" not in src and f"import {banned}" not in src, (
                    f"{mod.__name__} imports {banned} (layering violation)"
                )

    @pytest.mark.parametrize("lower", sorted(FORBIDDEN))
    def test_no_upward_imports_at_runtime(self, lower):
        """Importing the lower layer and every submodule of it in a fresh
        interpreter lands none of its forbidden layers in sys.modules."""
        loaded = repro_modules_added(
            "import importlib, pkgutil\n"
            f"pkg = importlib.import_module({lower!r})\n"
            "for info in pkgutil.walk_packages(getattr(pkg, '__path__', []), pkg.__name__ + '.'):\n"
            "    importlib.import_module(info.name)"
        )
        banned = tuple(self.FORBIDDEN[lower])
        assert [m for m in loaded if m in banned or m.startswith(tuple(b + "." for b in banned))] == []

    def test_only_the_facade_constructs_a_runtime(self):
        """A coupled run is described in ``repro.scenarios`` and built by
        ``repro.api.build``: nothing else in ``src/`` calls a runtime
        constructor."""
        import ast
        from pathlib import Path

        root = Path(repro.__file__).resolve().parent
        callers = set()
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    fn = node.func
                    name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", "")
                    if name in ("CoupledSimulation", "LiveCoupledSimulation"):
                        callers.add(str(path.relative_to(root)))
        assert callers == {"api/facade.py"}


class TestNoEagerMessages:
    """``require(cond, f"...")`` formats its message on every call, even
    when the check passes; in the DES kernel, the coupling core, the
    match layer, the data plane and vMPI that is paid per event, per
    response or per message.  A check there is ``if not cond: raise ...``."""

    def test_no_fstring_message_in_require(self):
        import ast
        from pathlib import Path

        root = Path(repro.__file__).resolve().parent
        sites = []
        for package in ("des", "core", "match", "data", "vmpi"):
            for path in sorted((root / package).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "require"
                        and any(
                            isinstance(a, ast.JoinedStr)
                            for a in node.args[1:] + [k.value for k in node.keywords]
                        )
                    ):
                        sites.append(f"{path.relative_to(root)}:{node.lineno}")
        assert sites == [], f"eager require() messages: {sites}"


class TestAnnouncedOnce:
    """A protocol decision is announced once, as a ``ProtocolEvent`` to
    the event spine; the paper trace, causal DAG, provenance rows and
    Property-1 log are folds over it (``repro/core/spine.py``).  No
    other code in ``repro.core`` feeds one of them directly."""

    CONSUMER_CALLS = (
        "tracer.record",
        "causal.record",
        "_causal_child",
        "_prov.on_match",
        "_prov.on_op",
        "operation_log.log",
    )

    def test_only_the_spine_feeds_the_consumers(self):
        import ast
        from pathlib import Path

        core = Path(repro.__file__).resolve().parent / "core"
        sites = []
        for path in sorted(core.rglob("*.py")):
            if path.name == "spine.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
                    self.CONSUMER_CALLS
                ):
                    sites.append(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}")
        assert sites == [], f"decisions announced outside the spine: {sites}"

    def test_only_core_announces(self):
        """Outside ``repro/core/`` nothing builds a ``ProtocolEvent`` or
        drives a fold's ``handlers()``: every trace line is the runtime's."""
        import ast
        from pathlib import Path

        root = Path(repro.__file__).resolve().parent
        sites = []
        for path in sorted(root.rglob("*.py")):
            if path.relative_to(root).parts[0] == "core":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
                    ("ProtocolEvent", ".handlers")
                ):
                    sites.append(f"{path.relative_to(root)}:{node.lineno}")
        assert sites == [], f"protocol events built outside repro.core: {sites}"


class TestDocsNames:
    """The docs name only what exists: every backticked ``repro.…`` name
    in ``docs/*.md``, ``README.md``, ``DESIGN.md`` and ``EXPERIMENTS.md``
    is a module or an attribute path under one."""

    def test_every_dotted_name_in_the_docs_resolves(self):
        unresolved = [
            f"{path.relative_to(REPO)}:{lineno}: {name}"
            for path in DOC_FILES
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            for name in DOC_NAME.findall(line)
            if not resolves(name)
        ]
        assert unresolved == []
