"""The representative's response-combination rule (paper Section 4).

The legal aggregate cases for one request are exactly five:

1. all ``MATCH`` (with identical matched timestamps),
2. all ``NO_MATCH``,
3. all ``PENDING``,
4. a mixture of ``PENDING`` and ``MATCH``  → final answer ``MATCH``,
5. a mixture of ``PENDING`` and ``NO_MATCH`` → final answer ``NO_MATCH``.

Mixing ``MATCH`` with ``NO_MATCH``, or ``MATCH`` responses with
*different* matched timestamps, violates Property 1 (the collective
semantics of export operations) and indicates a broken program; the
framework refuses to proceed.
"""

from __future__ import annotations

from typing import Sequence

from repro.match.result import FinalAnswer, MatchKind, MatchResponse
from repro.util.validation import ValidationError, require


class CollectiveViolationError(RuntimeError):
    """Raised when per-process responses break Property 1."""


def classify_case(responses: Sequence[MatchResponse]) -> str:
    """Name which of the five legal aggregate cases *responses* form.

    Returns one of ``"all_match"``, ``"all_no_match"``,
    ``"all_pending"``, ``"pending_match"``, ``"pending_no_match"`` —
    the taxonomy in this module's docstring, reported per rep under the
    ``rep.aggregate_cases`` metric.  Illegal mixtures raise
    :class:`CollectiveViolationError` (delegating the full Property-1
    checks to :func:`aggregate_responses` callers is fine: this only
    looks at response kinds).
    """
    require(len(responses) > 0, "cannot classify zero responses")
    kinds = {r.kind for r in responses}
    if MatchKind.MATCH in kinds and MatchKind.NO_MATCH in kinds:
        raise CollectiveViolationError(
            "MATCH mixed with NO_MATCH is not a legal aggregate case "
            "(Property 1 violated)"
        )
    pending = MatchKind.PENDING in kinds
    if kinds == {MatchKind.PENDING}:
        return "all_pending"
    if MatchKind.MATCH in kinds:
        return "pending_match" if pending else "all_match"
    return "pending_no_match" if pending else "all_no_match"


def aggregate_responses(
    responses: Sequence[MatchResponse],
) -> FinalAnswer | None:
    """Combine per-process responses into the rep's verdict.

    Returns ``None`` when every response is ``PENDING`` (the request
    stays open at the rep); otherwise a :class:`FinalAnswer`.  Raises
    :class:`CollectiveViolationError` on the illegal mixtures.

    The combination is *stable under partial information*: the answer
    computed from any subset containing at least one definitive
    response equals the answer from the full set — this is what lets
    the rep finalize on the first definitive response and what makes
    buddy-help sound.
    """
    require(len(responses) > 0, "cannot aggregate zero responses")
    request_ts = responses[0].request_ts
    for r in responses:
        if r.request_ts != request_ts:
            raise ValidationError(
                f"mixed request timestamps in aggregation: {r.request_ts} != {request_ts}"
            )

    kinds = {r.kind for r in responses}
    if kinds == {MatchKind.PENDING}:
        return None
    if MatchKind.MATCH in kinds and MatchKind.NO_MATCH in kinds:
        raise CollectiveViolationError(
            f"request @{request_ts}: some processes answered MATCH and others "
            "NO_MATCH — the program's export operations are not collective "
            "(Property 1 violated)"
        )
    if MatchKind.MATCH in kinds:
        matched = {r.matched_ts for r in responses if r.kind is MatchKind.MATCH}
        if len(matched) != 1:
            raise CollectiveViolationError(
                f"request @{request_ts}: processes matched different timestamps "
                f"{sorted(matched)} — Property 1 violated"
            )
        (ts,) = matched
        return FinalAnswer(request_ts=request_ts, kind=MatchKind.MATCH, matched_ts=ts)
    return FinalAnswer(request_ts=request_ts, kind=MatchKind.NO_MATCH)
