"""Stable high-level API: ``repro.api.run(config, programs, options)``.

See :mod:`repro.api.facade` for the facade and
:mod:`repro.api.options` for the frozen options record.  Everything
here is also re-exported at the package top level (``repro.run`` …).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.api.facade import Program, RunResult, build, run
    from repro.api.options import RunOptions

__all__ = ["Program", "RunOptions", "RunResult", "build", "run"]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.api.facade": ("Program", "RunResult", "build", "run"),
        "repro.api.options": ("RunOptions",),
    },
)
