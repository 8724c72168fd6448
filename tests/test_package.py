"""Package-level meta-tests: public surface, docstrings, __all__ health.

These enforce the documentation deliverable structurally: every public
module, class and function in ``repro`` carries a docstring, and every
``__all__`` name actually resolves.
"""

import importlib
import inspect
import pkgutil

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
]


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
        import sys

        # Import the lower layer fresh and inspect what lands in
        # sys.modules as its dependencies.
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
        del sys

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
