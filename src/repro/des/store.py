"""FIFO stores: the mailbox primitive used by the message layer.

A :class:`Store` decouples producers and consumers running as DES
processes.  ``put`` and ``get`` both return events; a ``get`` on an
empty store blocks the caller until an item arrives, and a ``put`` on a
full bounded store blocks until space frees up.  Items are delivered in
FIFO order and each item is delivered to exactly one getter.

:class:`FilterStore` additionally supports *matched* receives
(:meth:`Store.get_matching`), which is how the message layer implements
MPI-style ``(source, tag)`` matching.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.des.core import Event, Simulator
from repro.util.validation import require_positive

#: A parked getter: the event to trigger plus an optional predicate the
#: item must satisfy (``None`` accepts anything).
_Getter = tuple[Event, Optional[Callable[[Any], bool]]]


class StoreFullError(RuntimeError):
    """Raised by :meth:`Store.put_nowait` when a bounded store is full."""


class Store:
    """An ordered buffer with blocking get/put semantics.

    Parameters
    ----------
    sim:
        The owning simulator.
    capacity:
        Maximum number of buffered items; ``None`` means unbounded.
    """

    def __init__(self, sim: Simulator, capacity: int | None = None) -> None:
        if capacity is not None:
            require_positive(capacity, "capacity")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[_Getter] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    # -- inspection ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        """True when no items are buffered."""
        return not self._items

    @property
    def is_full(self) -> bool:
        """True when a bounded store is at capacity."""
        return self.capacity is not None and len(self._items) >= self.capacity

    @property
    def waiting_getters(self) -> int:
        """Number of parked (blocked) receivers."""
        return len(self._getters)

    def peek_all(self) -> list[Any]:
        """Snapshot of buffered items (oldest first); does not consume."""
        return list(self._items)

    # -- operations ----------------------------------------------------
    def put(self, item: Any) -> Event:
        """Deposit *item*; returns an event firing once it is accepted."""
        ev = Event(self.sim)
        getter = self._claim_getter(item)
        if getter is not None:
            getter.succeed(item)
            ev.succeed(None)
        elif not self.is_full:
            self._items.append(item)
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    def put_nowait(self, item: Any) -> None:
        """Deposit *item* without blocking; raise if that is impossible."""
        # _claim_getter(item), inlined: one put per delivered message.
        for idx, (getter, predicate) in enumerate(self._getters):
            if predicate is None or predicate(item):
                del self._getters[idx]
                getter.succeed(item)
                return
        if self.is_full:
            raise StoreFullError(f"store at capacity ({self.capacity})")
        self._items.append(item)

    def get(self) -> Event:
        """Take the oldest item; returns an event carrying the item."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append((ev, None))
        return ev

    def get_nowait(self) -> Any:
        """Take the oldest item immediately; raise ``IndexError`` if empty."""
        item = self._items.popleft()
        self._admit_putter()
        return item

    def get_matching(self, predicate: Callable[[Any], bool]) -> Event:
        """Take the oldest item satisfying *predicate*.

        Unlike :meth:`get`, a non-matching item is left in place for
        other getters.  If no buffered item matches, the caller blocks
        until a matching item is ``put``.  Matching getters are served
        in arrival order.
        """
        ev = Event(self.sim)
        for i, item in enumerate(self._items):
            if predicate(item):
                del self._items[i]
                ev.succeed(item)
                self._admit_putter()
                return ev
        self._getters.append((ev, predicate))
        return ev

    # -- internals -----------------------------------------------------
    def _claim_getter(self, item: Any) -> Event | None:
        """Pop and return the first parked getter willing to take *item*."""
        for idx, (ev, predicate) in enumerate(self._getters):
            if predicate is None or predicate(item):
                del self._getters[idx]
                return ev
        return None

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            put_ev, item = self._putters.popleft()
            self._items.append(item)
            put_ev.succeed(None)


class FilterStore(Store):
    """Alias of :class:`Store` kept for API clarity.

    Historically a separate class; predicate routing now lives in the
    base store (every ``put`` consults parked getters' predicates), so
    this subclass only documents intent at construction sites that rely
    on matched receives.
    """
