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

from repro.des.core import Event, Simulator

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
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """Take the oldest item; returns an event carrying the item."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append((ev, None))
        return ev

    def get_matching(self, predicate: Callable[[Any], bool]) -> Event:
        """Take the oldest item satisfying *predicate*.

        Unlike :meth:`get`, a non-matching item is left in place for
        other getters.  If no buffered item matches, the caller blocks
        until a matching item is put.  Matching getters are served in
        arrival order.
        """
        ev = Event(self.sim)
        for i, item in enumerate(self._items):
            if predicate(item):
                del self._items[i]
                ev.succeed(item)
                return ev
        self._getters.append((ev, predicate))
        return ev
