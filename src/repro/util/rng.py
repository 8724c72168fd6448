"""Named, reproducible random-number streams.

Every stochastic element of the framework (compute-time jitter, network
jitter, workload generators) draws from a *named* stream derived from a
single root seed.  Two runs with the same root seed produce identical
event orderings regardless of how many streams each subsystem opens or
in which order subsystems are constructed — the stream name, not call
order, determines the substream.

A stream is an :class:`RngStream`: it serves scalar draws from a block
of :data:`BLOCK_SIZE` doubles pre-drawn with one ``Generator.random``
call, so the hot paths that draw once per event (cost-model jitter,
fault decisions) pay an index into a list instead of a NumPy call.
The values are bit-identical to drawing one by one from the bare
generator: ``Generator.random(n)`` is *n* successive ``next_double``
results, and ``Generator.uniform(lo, hi)`` is ``lo + (hi - lo) *
next_double``, the expression :meth:`RngStream.uniform` evaluates.
"""

from __future__ import annotations

import hashlib
from typing import Callable, overload

import numpy as np

from repro.util.validation import require_type

#: Doubles pre-drawn per refill.  Small on purpose: a Figure-4 run opens
#: ≈300 streams and each holds one block of Python floats (64 cost
#: ≈0.8 MB of peak RSS there, 512 cost 4.7 MB).
BLOCK_SIZE = 64

#: ``(stream_name, method_name, value)``, once per scalar draw.
Recorder = Callable[[str, str, float], None]


def _substream_seed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for *name* from *root_seed*.

    Uses BLAKE2b over ``"{root_seed}/{name}"`` so the mapping is stable
    across Python processes and versions (unlike :func:`hash`).
    """
    digest = hashlib.blake2b(
        f"{root_seed}/{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


class RngStream:
    """One named stream, its scalar draws served from a pre-drawn block.

    Offers the three draws the framework makes: ``random()``,
    ``random(n)`` and ``uniform(lo, hi)``; each returns exactly what
    the same call on the bare generator would, in the same order.  With
    a *record* callback every scalar draw is reported in place as
    ``(name, method, value)`` — ``random(n)`` as *n* ``"random"`` draws.
    Not thread-safe: a caller sharing a stream across threads holds a
    lock around its draws (``faults.injectors.LiveFaultInjector`` does).
    """

    __slots__ = ("name", "_gen", "_block", "_pos", "_record")

    def __init__(
        self, gen: np.random.Generator, name: str, record: Recorder | None = None
    ) -> None:
        self.name = name
        self._gen = gen
        self._block: list[float] = []
        #: Index of the next unused double; ``BLOCK_SIZE`` when spent.
        self._pos = BLOCK_SIZE
        self._record = record

    @overload
    def random(self, size: None = None) -> float: ...

    @overload
    def random(self, size: int) -> np.ndarray: ...

    def random(self, size: int | None = None) -> float | np.ndarray:
        """A double in ``[0, 1)``, or an array of *size* of them."""
        if size is not None:
            return self._random_array(size)
        pos = self._pos
        if pos == BLOCK_SIZE:
            self._block = self._gen.random(BLOCK_SIZE).tolist()
            pos = 0
        self._pos = pos + 1
        value: float = self._block[pos]
        if self._record is not None:
            self._record(self.name, "random", value)
        return value

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A double in ``[low, high)``, as ``Generator.uniform`` draws it."""
        pos = self._pos
        if pos == BLOCK_SIZE:
            self._block = self._gen.random(BLOCK_SIZE).tolist()
            pos = 0
        self._pos = pos + 1
        value: float = low + (high - low) * self._block[pos]
        if self._record is not None:
            self._record(self.name, "uniform", value)
        return value

    def _random_array(self, size: int) -> np.ndarray:
        # What is left of the block first; past its end the rest comes
        # straight from the generator and the spent block waits for the
        # next scalar draw to refill it.
        pos = self._pos
        head = self._block[pos:pos + size]
        self._pos = pos + len(head)
        out = np.empty(size)
        out[: len(head)] = head
        out[len(head):] = self._gen.random(size - len(head))
        if self._record is not None:
            for value in out.tolist():
                self._record(self.name, "random", value)
        return out


class RngRegistry:
    """Factory of named :class:`RngStream` streams.

    Examples
    --------
    >>> reg = RngRegistry(seed=42)
    >>> a = reg.stream("compute/F.p_s")
    >>> b = reg.stream("compute/F.p_s")
    >>> a is b
    True
    >>> a.random() == RngRegistry(seed=42).stream("compute/F.p_s").random()
    True
    """

    def __init__(self, seed: int = 0) -> None:
        require_type(seed, int, "seed")
        self._seed = seed
        self._streams: dict[str, RngStream] = {}
        self._recorder: Recorder | None = None

    @property
    def seed(self) -> int:
        """The root seed this registry was created with."""
        return self._seed

    def set_recorder(self, recorder: Recorder | None) -> None:
        """Observe every draw from streams opened *after* this call.

        *recorder* receives ``(stream_name, method_name, value)`` once
        per scalar draw.  Streams handed out earlier keep no recorder;
        provenance recording therefore installs the recorder before any
        subsystem opens a stream.  Recording never changes a value.
        """
        self._recorder = recorder

    def stream(self, name: str) -> RngStream:
        """Return the stream for *name*, creating it on first use.

        Repeated calls with the same name return the *same* stream
        object, so a subsystem may re-fetch its stream instead of
        holding a reference.
        """
        require_type(name, str, "name")
        stream = self._streams.get(name)
        if stream is None:
            gen = np.random.default_rng(_substream_seed(self._seed, name))
            stream = RngStream(gen, name, self._recorder)
            self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RngRegistry":
        """Return a new registry whose root seed derives from *name*.

        Used to give each of the six benchmark runs in Figure 4 its own
        fully independent seed universe.
        """
        return RngRegistry(seed=_substream_seed(self._seed, f"fork/{name}"))

    def names(self) -> list[str]:
        """Names of all streams opened so far (sorted)."""
        return sorted(self._streams)
