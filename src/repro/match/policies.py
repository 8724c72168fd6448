"""Match policies and their acceptable-region geometry.

A policy maps a requested timestamp *t* onto a closed acceptable region
``[low(t), high(t)]`` and defines which candidate inside the region is
*best*.  The framework additionally needs two derived quantities:

* ``decidable(latest, t)`` -- whether a process whose newest export is
  ``latest`` can answer definitively (exports arrive in increasing
  order, so the answer is final once the stream has reached ``t``; see
  :mod:`repro.match.engine` for the proof sketch per policy).
* ``future_low(t)`` -- a lower bound on the acceptable regions of all
  *future* requests (request timestamps are strictly increasing), used
  by the exporter runtime to evict/skip buffering of data that can
  never again be matched.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.util.validation import ValidationError, require, require_non_negative


class PolicyKind(enum.Enum):
    """The four supported match-policy families."""

    REGL = "REGL"
    REGU = "REGU"
    REG = "REG"
    EXACT = "EXACT"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class MatchPolicy:
    """A policy kind plus its tolerance.

    Examples
    --------
    >>> p = MatchPolicy(PolicyKind.REGL, 2.5)
    >>> p.region(20.0)
    (17.5, 20.0)
    >>> p.select_best([17.0, 18.6, 19.6], 20.0)
    19.6
    """

    kind: PolicyKind
    tolerance: float = 0.0

    def __post_init__(self) -> None:
        require_non_negative(self.tolerance, "tolerance")
        if self.kind is PolicyKind.EXACT:
            require(self.tolerance == 0.0, "EXACT policy takes no tolerance")

    # -- geometry -----------------------------------------------------------
    def region(self, request_ts: float) -> tuple[float, float]:
        """Closed acceptable region ``[low, high]`` for *request_ts*."""
        t, d = request_ts, self.tolerance
        if self.kind is PolicyKind.REGL:
            return (t - d, t)
        if self.kind is PolicyKind.REGU:
            return (t, t + d)
        if self.kind is PolicyKind.REG:
            return (t - d, t + d)
        return (t, t)

    def in_region(self, ts: float, request_ts: float) -> bool:
        """Whether export timestamp *ts* is acceptable for *request_ts*."""
        low, high = self.region(request_ts)
        return low <= ts <= high

    def select_best(
        self, candidates: Sequence[float], request_ts: float
    ) -> float | None:
        """The best acceptable candidate, or ``None``.

        Candidates outside the region are ignored.  "Best" is the one
        closest to the request; REG ties (equidistant above and below)
        resolve to the lower timestamp, deterministically.
        """
        low, high = self.region(request_ts)
        best: float | None = None
        for ts in candidates:
            if not (low <= ts <= high):
                continue
            if best is None:
                best = ts
                continue
            db, dn = abs(best - request_ts), abs(ts - request_ts)
            if dn < db or (dn == db and ts < best):
                best = ts
        return best

    @property
    def interval(self) -> tuple[float, float]:
        """The acceptable region as offsets ``(dlow, dhigh)`` from ``t``.

        ``region(t) == (t + dlow, t + dhigh)`` for every request
        timestamp, bit-for-bit (IEEE-754 ``t + (-d)`` equals ``t - d``
        exactly).  Batched backends use these constants to vectorize
        region computation over whole request arrays without calling
        :meth:`region` per element.
        """
        d = self.tolerance
        if self.kind is PolicyKind.REGL:
            return (-d, 0.0)
        if self.kind is PolicyKind.REGU:
            return (0.0, d)
        if self.kind is PolicyKind.REG:
            return (-d, d)
        return (0.0, 0.0)

    # -- stream reasoning -----------------------------------------------------
    def decision_bound(self, request_ts: float) -> float:
        """Smallest ``latest`` export making *request_ts* decidable.

        ``decidable(latest, t)`` holds exactly when
        ``latest >= decision_bound(t)``; for all four policy families
        that bound is ``t`` itself (see :meth:`decidable`).  Batched
        backends maintain the PENDING frontier as a watermark against
        this bound: in a sorted pending array, one bisection of the
        newest export timestamp splits the decidable prefix from the
        still-pending suffix.
        """
        return request_ts

    def decidable(self, latest_export_ts: float, request_ts: float) -> bool:
        """Can a process with newest export *latest_export_ts* answer finally?

        For every policy the answer becomes final exactly when the
        (increasing) export stream reaches the request timestamp:

        * REGL: any export ``> t`` is outside ``[t-d, t]``; an export
          ``== t`` is unbeatable.  So final iff ``latest >= t``.
        * REGU: candidates lie in ``[t, t+d]`` and *smaller* is better;
          once ``latest >= t`` the smallest candidate ``>= t`` is known
          (future exports are larger).  Final iff ``latest >= t``.
        * REG: combines both arguments — below-``t`` candidates are
          frozen once ``latest >= t``, and the best above-``t``
          candidate is the smallest one, known once ``latest >= t``.
        * EXACT: final iff ``latest >= t``.
        """
        return latest_export_ts >= self.decision_bound(request_ts)

    def future_low(self, request_ts: float) -> float:
        """Infimum of region lows over all future requests ``> request_ts``.

        Export timestamps ``<= future_low`` can never be matched by the
        *current* request's successors; together with the current
        request's own verdict this bounds what must stay buffered.
        For REGL/REG the bound is ``t - tolerance`` (a future request
        may be arbitrarily close above ``t``); for REGU/EXACT it is
        ``t`` itself.
        """
        t, d = request_ts, self.tolerance
        if self.kind in (PolicyKind.REGL, PolicyKind.REG):
            return t - d
        return t

    def __str__(self) -> str:
        if self.kind is PolicyKind.EXACT:
            return "EXACT"
        return f"{self.kind.value} {self.tolerance:g}"


def parse_policy(text: str) -> MatchPolicy:
    """Parse a configuration-file policy spec like ``"REGL 0.2"``.

    ``EXACT`` takes no tolerance; the other policies require one.
    """
    parts = text.split()
    require(len(parts) >= 1, "empty policy spec")
    name = parts[0].upper()
    try:
        kind = PolicyKind(name)
    except ValueError:
        raise ValueError(
            f"unknown match policy {name!r}; expected one of "
            f"{[k.value for k in PolicyKind]}"
        ) from None
    if kind is PolicyKind.EXACT:
        require(len(parts) == 1, "EXACT policy takes no tolerance")
        return MatchPolicy(kind)
    if len(parts) != 2:
        raise ValidationError(f"policy {name} needs exactly one tolerance value")
    try:
        tol = float(parts[1])
    except ValueError:
        raise ValueError(f"bad tolerance {parts[1]!r} in policy spec {text!r}") from None
    return MatchPolicy(kind, tol)
