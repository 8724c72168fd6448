"""Message delivery with latency, bandwidth and congestion.

The paper's cluster is Pentium-4 nodes on Gigabit Ethernet; transfer
cost there is latency plus size over bandwidth, inflated when the link
is shared.  :class:`Network` models exactly that: every in-flight
message contributes to a congestion level that scales the delay of
concurrent messages (a simple but adequate model for reproducing the
~4% late-run drop the paper reports in Figure 4(a) once the fast
exporter processes finish and stop loading the network).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, NamedTuple

from repro.des.core import Event, Simulator
from repro.des.store import FilterStore
from repro.util.validation import (
    ValidationError, require, require_non_negative, require_positive,
)

_INF = float("inf")


class Delivery(NamedTuple):
    """Envelope handed to a receiving mailbox (one per message: a tuple).

    Attributes
    ----------
    src, dst:
        Endpoint addresses (opaque hashables, e.g. ``("F", 3)``).
    payload:
        The message body.
    nbytes:
        Modelled wire size used for bandwidth accounting.
    sent_at, delivered_at:
        Virtual send/delivery times.
    """

    src: Hashable
    dst: Hashable
    payload: Any
    nbytes: int
    sent_at: float
    delivered_at: float


class Network:
    """A shared interconnect connecting named endpoints.

    Parameters
    ----------
    sim:
        Owning simulator.
    latency:
        Fixed per-message latency (seconds of virtual time).
    bandwidth:
        Bytes per virtual second; ``inf`` disables the size term.
    congestion:
        Optional callable ``f(active_transfers) -> factor`` multiplying
        the delay of a message that starts while ``active_transfers``
        other messages are in flight.  Defaults to no congestion.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: float = 0.0,
        bandwidth: float = float("inf"),
        congestion: Callable[[int], float] | None = None,
    ) -> None:
        require_non_negative(latency, "latency")
        require_positive(bandwidth, "bandwidth")
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self._congestion = congestion
        self._mailboxes: dict[Hashable, FilterStore] = {}
        self._in_flight = 0
        # MPI-style non-overtaking: a message between a (src, dst) pair
        # never arrives before an earlier message of the same pair,
        # even when it is smaller/faster.
        self._last_delivery: dict[tuple[Hashable, Hashable], float] = {}
        self.messages_sent = 0
        self.bytes_sent = 0

    # -- endpoints -----------------------------------------------------
    def register(self, address: Hashable) -> FilterStore:
        """Create (or fetch) the mailbox for *address*."""
        box = self._mailboxes.get(address)
        if box is None:
            box = FilterStore(self.sim)
            self._mailboxes[address] = box
        return box

    def mailbox(self, address: Hashable) -> FilterStore:
        """Fetch an existing mailbox; raises ``KeyError`` if unknown."""
        return self._mailboxes[address]

    @property
    def in_flight(self) -> int:
        """Number of messages currently traversing the network."""
        return self._in_flight

    # -- transfer ------------------------------------------------------
    def transfer_delay(self, nbytes: int) -> float:
        """Delay for an *nbytes* message at current congestion."""
        require_non_negative(nbytes, "nbytes")
        bandwidth = self.bandwidth
        base = self.latency + (nbytes / bandwidth if bandwidth != _INF else 0.0)
        if self._congestion is not None:
            base *= self._congestion(self._in_flight)
        return base

    def send(self, src: Hashable, dst: Hashable, payload: Any, nbytes: int = 0) -> Event:
        """Send *payload* from *src* to *dst*.

        Returns an event that fires at delivery time with the
        :class:`Delivery` envelope (senders normally do not wait on it —
        sends are asynchronous, matching the paper's non-blocking
        transfer discussion in Section 5).
        """
        mailbox = self._mailboxes.get(dst)
        if mailbox is None:
            raise ValidationError(f"unknown destination {dst!r}")
        # transfer_delay(nbytes), inlined: one call less per message.
        if type(nbytes) is not int or nbytes < 0:
            require_non_negative(nbytes, "nbytes")
        bandwidth = self.bandwidth
        delay = self.latency + (nbytes / bandwidth if bandwidth != _INF else 0.0)
        if self._congestion is not None:
            delay *= self._congestion(self._in_flight)
        sim = self.sim
        sent_at = sim._now
        # Non-overtaking (MPI point-to-point semantics): clamp this
        # message's delivery to be no earlier than the pair's previous
        # delivery.
        pair = (src, dst)
        deliver_at = sent_at + delay
        previous = self._last_delivery.get(pair, 0.0)
        if previous > deliver_at:
            deliver_at = previous
        self._last_delivery[pair] = deliver_at
        self.messages_sent += 1
        self.bytes_sent += nbytes
        self._in_flight += 1
        done = Event(sim)
        timer = sim.timeout(deliver_at - sent_at)

        def _deliver(_ev: Event) -> None:
            self._in_flight -= 1
            env = Delivery(src, dst, payload, nbytes, sent_at, sim._now)
            mailbox.put_nowait(env)
            done.succeed(env)

        timer.callbacks.append(_deliver)
        return done


class Channel:
    """A convenience point-to-point pipe between two fixed endpoints.

    Wraps a :class:`Network` pair of mailboxes with ``send``/``recv``
    generator helpers for simple two-party tests and examples.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: float = 0.0,
        bandwidth: float = float("inf"),
    ) -> None:
        self.sim = sim
        self._net = Network(sim, latency=latency, bandwidth=bandwidth)
        self._net.register("a")
        self._net.register("b")

    def send(self, side: str, payload: Any, nbytes: int = 0) -> Event:
        """Send from *side* (``"a"`` or ``"b"``) to the opposite side."""
        require(side in ("a", "b"), "side must be 'a' or 'b'")
        other = "b" if side == "a" else "a"
        return self._net.send(side, other, payload, nbytes)

    def recv(self, side: str) -> Event:
        """Event carrying the next :class:`Delivery` for *side*."""
        require(side in ("a", "b"), "side must be 'a' or 'b'")
        return self._net.mailbox(side).get()
