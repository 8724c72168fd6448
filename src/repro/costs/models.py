"""The three cost models charged to the virtual clock."""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.rng import RngStream
from repro.util.validation import require, require_non_negative, require_positive


def _require_jitter(jitter: float) -> None:
    """A jitter half-width in ``[0, 1]``: every scale factor stays >= 0.

    Draws lie in ``[1 - jitter, 1 + jitter)``; past 1 a cost could come
    out negative and fail far from its cause (in ``Simulator.timeout``).
    """
    require_non_negative(jitter, "jitter")
    require(jitter <= 1.0, f"jitter must be <= 1, got {jitter!r}")


@dataclass(frozen=True)
class MemoryCostModel:
    """Cost of buffering (memcpy), freeing and packing data objects.

    ``memcpy_time`` reproduces the two second-order effects the paper
    reports for Figure 4(a):

    * *init surcharge*: operations before ``init_until`` virtual
      seconds pay ``init_factor`` (framework/data-structure warm-up,
      the ~8% elevated head of the series);
    * *contention*: each concurrently active peer process on the node
      adds ``contention_per_peer`` (the ~4% drop after the faster
      exporter processes finish and stop touching memory/network).

    Parameters
    ----------
    setup_time:
        Fixed per-operation overhead (allocation, bookkeeping).
    bandwidth:
        Copy bandwidth in bytes per virtual second.
    free_time:
        Cost of releasing one buffer.
    init_factor, init_until:
        Multiplier applied while ``now < init_until``.
    contention_per_peer:
        Fractional surcharge per concurrently active peer.
    """

    setup_time: float = 5.0e-5
    bandwidth: float = 1.5e9
    free_time: float = 2.0e-5
    init_factor: float = 1.08
    init_until: float = 0.0
    contention_per_peer: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        require_non_negative(self.setup_time, "setup_time")
        require_positive(self.bandwidth, "bandwidth")
        require_non_negative(self.free_time, "free_time")
        require_positive(self.init_factor, "init_factor")
        require_non_negative(self.init_until, "init_until")
        require_non_negative(self.contention_per_peer, "contention_per_peer")
        _require_jitter(self.jitter)

    def memcpy_base(self, nbytes: int) -> float:
        """The part of :meth:`memcpy_time` that depends on *nbytes* alone."""
        require_non_negative(nbytes, "nbytes")
        return self.setup_time + nbytes / self.bandwidth

    def memcpy_time(
        self,
        nbytes: int,
        now: float = 0.0,
        active_peers: int = 0,
        rng: RngStream | None = None,
        base: float | None = None,
    ) -> float:
        """Time to buffer *nbytes* at virtual time *now*.

        With a *jitter* half-width and an *rng* stream, the time is
        scaled by a uniform draw from ``[1 - jitter, 1 + jitter]`` —
        the run-to-run noise visible in the paper's measured series.
        A caller that buffers the same size over and over passes its
        precomputed ``base=memcpy_base(nbytes)``.
        """
        if base is None:
            base = self.memcpy_base(nbytes)
        factor = 1.0
        if active_peers > 0:
            factor += self.contention_per_peer * active_peers
        if now < self.init_until:
            factor *= self.init_factor
        if self.jitter > 0.0 and rng is not None:
            factor *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return base * factor

    def skip_time(self) -> float:
        """Time charged for an export whose buffering is skipped.

        Only the bookkeeping remains: the framework still records the
        timestamp and consults the match window.
        """
        return self.setup_time

    def free_buffers_time(self, count: int) -> float:
        """Time to release *count* buffers."""
        require_non_negative(count, "count")
        return self.free_time * count


@dataclass(frozen=True)
class NetworkCostModel:
    """Latency/bandwidth/congestion of the interconnect.

    ``congestion(active)`` multiplies a transfer's delay by
    ``1 + congestion_per_flow * active`` where *active* counts other
    in-flight messages (see :class:`repro.des.Network`).
    """

    latency: float = 1.0e-4
    bandwidth: float = 1.25e8
    congestion_per_flow: float = 0.05

    def __post_init__(self) -> None:
        require_non_negative(self.latency, "latency")
        require_positive(self.bandwidth, "bandwidth")
        require_non_negative(self.congestion_per_flow, "congestion_per_flow")

    def transfer_time(self, nbytes: int, active_flows: int = 0) -> float:
        """Delay for an *nbytes* message with *active_flows* others in flight."""
        require_non_negative(nbytes, "nbytes")
        base = self.latency + nbytes / self.bandwidth
        return base * self.congestion(active_flows)

    def congestion(self, active_flows: int) -> float:
        """The multiplicative congestion factor (>= 1)."""
        if active_flows <= 0:
            return 1.0
        return 1.0 + self.congestion_per_flow * active_flows


@dataclass(frozen=True)
class ComputeCostModel:
    """Per-iteration compute time of a solver process.

    ``time_per_element`` is seconds per grid point per iteration; the
    optional *jitter* is a multiplicative half-width: each iteration's
    time is scaled by a value drawn uniformly from
    ``[1 - jitter, 1 + jitter]`` using the caller-supplied RNG stream
    (so determinism is preserved across runs with equal seeds).
    """

    time_per_element: float = 2.0e-8
    fixed_overhead: float = 1.0e-5
    jitter: float = 0.0

    def __post_init__(self) -> None:
        require_non_negative(self.time_per_element, "time_per_element")
        require_non_negative(self.fixed_overhead, "fixed_overhead")
        _require_jitter(self.jitter)

    def iteration_time(
        self,
        elements: int,
        rng: RngStream | None = None,
        scale: float = 1.0,
    ) -> float:
        """Time for one solver iteration over *elements* grid points.

        *scale* injects deliberate load imbalance (the paper slows one
        exporter process, ``p_s``, with "extra computational work").
        """
        if type(elements) is not int or elements < 0:
            # Only a float or a bad value pays for the full check.
            require_non_negative(elements, "elements")
        base = (self.fixed_overhead + elements * self.time_per_element) * scale
        if self.jitter > 0.0 and rng is not None:
            base *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return base
