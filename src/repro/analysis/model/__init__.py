"""Explicit-state model checking of the coupled control plane.

The package wraps the *real* protocol implementations from
:mod:`repro.core` in a bounded world (:mod:`.machine`), exhaustively
explores every message interleaving and fault action with state hashing
and sleep-set partial-order reduction (:mod:`.checker`), and replays
counterexample schedules as ``repro.causal/v1`` DAGs (:mod:`.replay`).
Findings carry M2xx rule codes in the shared :mod:`repro.analysis.report`
model; see ``docs/static_analysis.md``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.model.checker import SCHEMA, check, check_suite, directed_worlds
    from repro.analysis.model.machine import (
        MUTATIONS,
        ModelConfig,
        ModelMachine,
        mutation_config,
        plane_of_channel,
    )
    from repro.analysis.model.replay import replay_schedule

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.analysis.model.checker": ("SCHEMA", "check", "check_suite", "directed_worlds"),
        "repro.analysis.model.machine": (
            "MUTATIONS",
            "ModelConfig",
            "ModelMachine",
            "mutation_config",
            "plane_of_channel",
        ),
        "repro.analysis.model.replay": ("replay_schedule",),
    },
)
