"""Uniform argument validation helpers.

The framework surfaces user errors (bad configuration files, nonsensical
tolerances, mismatched decompositions) early and with consistent
messages.  Every public entry point validates its arguments through the
helpers in this module so error text is predictable and testable.
"""

from __future__ import annotations

from typing import Any, Iterable


class ValidationError(ValueError):
    """Raised when a framework argument fails validation.

    Subclasses :class:`ValueError` so callers that catch the standard
    exception hierarchy keep working.
    """


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with *message* unless *condition*."""
    if not condition:
        raise ValidationError(message)


def require_known_keys(obj: Iterable[str], known: Iterable[str], what: str) -> None:
    """Reject keys of *obj* outside *known*, naming them (*what* says of what)."""
    valid = set(known)
    unknown = set(obj) - valid
    if unknown:
        raise ValidationError(
            f"unknown {what} {sorted(unknown)}; valid keys are {sorted(valid)}"
        )


def require_type(value: Any, types: type | tuple[type, ...], name: str) -> Any:
    """Check ``isinstance(value, types)`` and return *value*.

    Parameters
    ----------
    value:
        The value to check.
    types:
        A type or tuple of acceptable types.
    name:
        The argument name used in the error message.
    """
    if not isinstance(value, types):
        if isinstance(types, tuple):
            expected = " or ".join(t.__name__ for t in types)
        else:
            expected = types.__name__
        raise ValidationError(
            f"{name} must be {expected}, got {type(value).__name__} ({value!r})"
        )
    return value


def require_positive(value: float, name: str) -> float:
    """Require ``value > 0`` and return it."""
    require_type(value, (int, float), name)
    if not value > 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Require ``value >= 0`` and return it (NaN is refused, ``inf`` kept)."""
    kind = type(value)
    if kind is not float and kind is not int:  # exact types: no isinstance walk
        require_type(value, (int, float), name)
    if not value >= 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return value
