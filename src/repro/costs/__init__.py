"""Cost models: how much virtual time framework actions take.

The paper measures wall-clock seconds on a Pentium-4/GigE cluster; the
reproduction charges virtual time from three models instead:

* :class:`~repro.costs.models.MemoryCostModel` -- buffering
  (``memcpy``) and freeing data objects, including the init-phase surcharge and the shared-memory
  contention relief the paper observes in Figure 4(a) (~8% higher early,
  ~4% lower after peer processes finish).
* :class:`~repro.costs.models.NetworkCostModel` --
  latency/bandwidth/congestion for message delivery (plugs into
  :class:`repro.des.Network`).
* :class:`~repro.costs.models.ComputeCostModel` -- per-iteration solver
  compute time with optional multiplicative jitter.

:data:`repro.costs.presets.PAPER_CLUSTER` calibrates all three to
2007-era hardware so absolute magnitudes land in the same regime as the
paper's figures.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.costs.presets import FAST_TEST, PAPER_CLUSTER, ClusterPreset

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.costs.presets": ("FAST_TEST", "PAPER_CLUSTER", "ClusterPreset"),
    },
)
