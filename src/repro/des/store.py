"""FIFO stores: the mailbox primitive used by the message layer.

A :class:`Store` decouples producers and consumers running as DES
processes.  It is unbounded: ``put_nowait`` never blocks, and ``get``
returns an event; a ``get`` on an empty store blocks the caller until
an item arrives.  Items are delivered in FIFO order and each item is
delivered to exactly one getter.

:meth:`Store.get_matching` is a *matched* receive, which is how the
message layer implements MPI-style ``(source, tag)`` matching.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.des.core import Event, Simulator, _new_event

#: A parked getter: the event to trigger plus an optional predicate the
#: item must satisfy (``None`` accepts anything).
_Getter = tuple[Event, Optional[Callable[[Any], bool]]]


class Store:
    """An unbounded ordered buffer with blocking get semantics."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[_Getter] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        """True when no items are buffered."""
        return not self._items

    def peek_all(self) -> list[Any]:
        """Snapshot of buffered items (oldest first); does not consume."""
        return list(self._items)

    def put_nowait(self, item: Any) -> None:
        """Hand *item* to the first parked getter willing to take it, or
        buffer it."""
        for idx, (getter, predicate) in enumerate(self._getters):
            if predicate is None or predicate(item):
                del self._getters[idx]
                # ``getter.succeed(item)`` inline: a parked getter is
                # pending, and its ``_ok`` was set when it was built.
                getter._triggered = True
                getter._value = item
                sim = self.sim
                sim._seq = seq = sim._seq + 1
                sim._lanes[1].append((seq, getter))
                return
        self._items.append(item)

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        """Take the oldest item, or with *predicate* the oldest item it
        accepts; returns an event carrying the item.

        A non-matching item is left in place for other getters.  If no
        buffered item matches, the caller blocks until a matching item
        is put.  Getters are served in arrival order.
        """
        # ``Event(sim)`` inline, as ``Simulator.timeout`` builds its own
        # (one Python frame fewer per receive); a buffered item triggers
        # it at once, as ``succeed`` would.
        sim = self.sim
        ev = _new_event(Event)
        ev.sim = sim
        ev.callbacks = []
        ev._value = None
        ev._ok = True
        ev._triggered = ev._processed = ev._defused = False
        items = self._items
        for i, item in enumerate(items):
            if predicate is None or predicate(item):
                del items[i]
                ev._value = item
                ev._triggered = True
                sim._seq = seq = sim._seq + 1
                sim._lanes[1].append((seq, ev))
                return ev
        self._getters.append((ev, predicate))
        return ev

    #: A *matched* receive: :meth:`get` with a predicate.
    get_matching = get
