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

from repro.des.core import Event, Simulator, _new_event
from repro.des.store import Store
from repro.util.validation import ValidationError, require_non_negative, require_positive

_INF = float("inf")
#: Builds a :class:`Delivery` from one tuple in a single call (the
#: class's own ``__new__`` is a Python frame more).
_tuple_new = tuple.__new__


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
        self._mailboxes: dict[Hashable, Store] = {}
        self._in_flight = 0
        # MPI-style non-overtaking: a message between a (src, dst) pair
        # never arrives before an earlier message of the same pair,
        # even when it is smaller/faster.
        self._last_delivery: dict[tuple[Hashable, Hashable], float] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        #: :meth:`_deliver`, bound once: every send's timer calls it.
        self._on_delivery = self._deliver

    # -- endpoints -----------------------------------------------------
    def register(self, address: Hashable) -> Store:
        """Create (or fetch) the mailbox for *address*."""
        box = self._mailboxes.get(address)
        if box is None:
            box = Store(self.sim)
            self._mailboxes[address] = box
        return box

    def mailbox(self, address: Hashable) -> Store:
        """Fetch an existing mailbox; raises ``KeyError`` if unknown."""
        return self._mailboxes[address]

    @property
    def in_flight(self) -> int:
        """Number of messages currently traversing the network."""
        return self._in_flight

    # -- transfer ------------------------------------------------------
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
        # The delay is latency plus size over bandwidth, scaled by the
        # congestion factor at the current number of messages in flight.
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
        # ``Event(sim)`` inline, as ``Simulator.timeout`` builds its own.
        done = _new_event(Event)
        done.sim = sim
        done.callbacks = []
        done._value = None
        done._ok = True
        done._triggered = done._processed = done._defused = False
        timer = sim.timeout(
            deliver_at - sent_at, (mailbox, done, (src, dst, payload, nbytes, sent_at))
        )
        timer.callbacks.append(self._on_delivery)
        return done

    def _deliver(self, timer: Event) -> None:
        """The transfer delay has passed: the envelope goes into the
        mailbox, and the send's ``done`` event fires with it."""
        mailbox, done, head = timer._value
        self._in_flight -= 1
        sim = self.sim
        env = _tuple_new(Delivery, head + (sim._now,))
        mailbox.put_nowait(env)
        # ``done.succeed(env)`` inline: a fresh event, never triggered.
        done._triggered = True
        done._value = env
        sim._seq = seq = sim._seq + 1
        sim._lanes[1].append((seq, done))
