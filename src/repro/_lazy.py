"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package of :mod:`repro` that re-exports names lists each one twice:
in the table handed to :func:`lazy_exports`, which the interpreter
reads, and in an ``if TYPE_CHECKING:`` block of real imports, which
type checkers read.  The table is the one list: ``__all__`` (what
``from pkg import *`` and ``dir()`` see) is derived from it.  Importing
a package imports none of its submodules; a name's submodule is
imported the first time the name is read, and the value is cached into
the package's globals, so each name resolves once.  A package with no
re-exports is its docstring alone.  ``tests/test_package.py`` checks
that the two lists agree and that every name has a caller.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    namespace: dict[str, Any], table: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a package.

    *namespace* is the package's ``globals()``; *table* maps each
    submodule to the names it provides.  Sets the package's ``__all__``
    to the table's names, after its ``__version__`` if it has one.
    """
    package = namespace["__name__"]
    homes = {name: module for module, names in table.items() for name in names}
    version = ["__version__"] if "__version__" in namespace else []
    namespace["__all__"] = version + list(homes)

    def __getattr__(name: str) -> Any:
        try:
            home = homes[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        # The import statement's own path, not ``importlib.import_module``,
        # so ``python -X importtime`` reports lazily loaded modules too.
        __import__(home)
        value = getattr(sys.modules[home], name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return list(namespace["__all__"])

    return __getattr__, __dir__
