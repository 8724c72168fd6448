"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

Every package of :mod:`repro` names its public surface three times,
once per reader: ``__all__`` for ``from pkg import *`` and the docs, an
``if TYPE_CHECKING:`` block of real imports for type checkers, and the
table handed to :func:`lazy_exports` for the interpreter.  Importing a
package imports none of its submodules; a name's submodule is imported
the first time the name is read, and the value is cached into the
package's globals, so each name resolves once.  ``tests/test_package.py``
checks that the three lists agree.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Any, Callable, Mapping


class _Package(ModuleType):
    """A package whose exports outrank its submodules.

    Loading a submodule binds it onto its package, which would hide an
    export spelled like it (``repro.obs.replay`` the function, from the
    submodule of that name); the export is kept, as an eager
    ``from repro.obs.replay import replay`` in ``__init__`` kept it.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if not (isinstance(value, ModuleType) and name in self.__all__):
            super().__setattr__(name, value)


def lazy_exports(
    namespace: dict[str, Any], table: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a package.

    *namespace* is the package's ``globals()`` (its ``__all__`` already
    bound); *table* maps each submodule to the names it provides.
    """
    package = namespace["__name__"]
    homes = {name: module for module, names in table.items() for name in names}
    sys.modules[package].__class__ = _Package

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
