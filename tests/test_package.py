"""Package-level meta-tests: public surface, docstrings, __all__ health.

These enforce the documentation deliverable structurally: every public
module, class and function in ``repro`` carries a docstring, and every
``__all__`` name actually resolves.
"""

import ast
import importlib
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

PACKAGES = [
    "repro",
    "repro.util",
    "repro.des",
    "repro.vmpi",
    "repro.data",
    "repro.match",
    "repro.costs",
    "repro.core",
    "repro.apps",
    "repro.bench",
    "repro.api",
    "repro.obs",
    "repro.faults",
    "repro.analysis",
    "repro.analysis.model",
    "repro.serve",
]


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
    first access, and the surface is listed three ways that must agree."""

    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_table_typing_imports_and_all_name_the_same_set(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        typed, table = lazy_surface(pkg_name)
        assert table, f"{pkg_name} has no lazy_exports table"
        assert typed == table
        assert {name for _, name in table} == set(pkg.__all__) - {"__version__"}

    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_names_resolve_to_their_home_and_are_cached(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        for module, name in sorted(lazy_surface(pkg_name)[1]):
            assert getattr(pkg, name) is getattr(importlib.import_module(module), name)
            assert name in vars(pkg), f"{pkg_name}.{name} was not cached"

    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_dir_lists_all(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        assert set(pkg.__all__) <= set(dir(pkg))

    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_unknown_name_raises_attribute_error_naming_the_module(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        message = f"module {pkg_name!r} has no attribute 'no_such_name'"
        with pytest.raises(AttributeError, match=re.escape(message)):
            pkg.no_such_name  # noqa: B018

    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_star_import_binds_all(self, pkg_name):
        namespace: dict = {}
        exec(f"from {pkg_name} import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(importlib.import_module(pkg_name).__all__)

    def test_an_export_outranks_its_same_named_submodule(self):
        """Importing ``repro.obs.replay`` binds the submodule onto the
        package; ``repro.obs.replay`` the export is still the function."""
        repro_modules_added(
            "import inspect\n"
            "import repro.obs.replay\n"
            "from repro.obs import replay\n"
            "assert inspect.isfunction(replay), replay"
        )

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
