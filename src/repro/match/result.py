"""Match result types.

A per-process response to a forwarded request is a
:class:`MatchResponse` (kind + matched timestamp + the process's latest
export, mirroring the paper's reply triple ``{D@20, PENDING, D@14.6}``).
The representative's combined verdict is a :class:`FinalAnswer` (only
``MATCH``/``NO_MATCH`` — a rep never forwards ``PENDING`` to the
importer once any process has answered definitively; an all-``PENDING``
request simply stays open at the rep).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.util.validation import ValidationError, require


class MatchKind(enum.Enum):
    """Outcome of evaluating one request against one export history."""

    MATCH = "MATCH"
    NO_MATCH = "NO_MATCH"
    PENDING = "PENDING"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class MatchResponse:
    """One process's reply to a forwarded request.

    Attributes
    ----------
    request_ts:
        The timestamp the importer asked for.
    kind:
        ``MATCH`` / ``NO_MATCH`` / ``PENDING``.
    matched_ts:
        The matched export timestamp (``MATCH`` only, else ``None``).
    latest_export_ts:
        The responder's newest export timestamp at reply time
        (``-inf`` if it has not exported yet); the paper's replies
        carry this so the rep can gauge process progress.
    """

    request_ts: float
    kind: MatchKind
    matched_ts: float | None = None
    latest_export_ts: float = -math.inf

    def __post_init__(self) -> None:
        if self.kind is MatchKind.MATCH:
            require(self.matched_ts is not None, "MATCH response needs matched_ts")
        else:
            if self.matched_ts is not None:
                raise ValidationError(f"{self.kind} response must not carry matched_ts")

    @property
    def is_definitive(self) -> bool:
        """True for MATCH / NO_MATCH (the rep can finalize on these)."""
        return self.kind is not MatchKind.PENDING


@dataclass(frozen=True)
class FinalAnswer:
    """The representative's combined verdict for one request.

    This is also the payload of a *buddy-help* message: the rep sends
    the final answer to the exporting program's own PENDING processes
    so they can skip buffering data that can never be the match.
    """

    request_ts: float
    kind: MatchKind
    matched_ts: float | None = None

    def __post_init__(self) -> None:
        require(
            self.kind is not MatchKind.PENDING,
            "a final answer is never PENDING",
        )
        if self.kind is MatchKind.MATCH:
            require(self.matched_ts is not None, "MATCH answer needs matched_ts")
        else:
            require(self.matched_ts is None, "NO_MATCH answer must not carry matched_ts")

    @property
    def is_match(self) -> bool:
        """True when the verdict is ``MATCH``."""
        return self.kind is MatchKind.MATCH
