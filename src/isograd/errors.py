"""Exception taxonomy and the input checks shared by every module.

All errors derive from :class:`IsogradError` so callers can catch the library
as a whole; most also derive from ``ValueError`` because they signal bad
arguments rather than internal failures.  What counts as a real number, a
finite sequence or a count is decided here once: :func:`require_real`,
:func:`require_finite` and :func:`require_count`.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable


class IsogradError(Exception):
    """Base class for every error raised by this package."""


class PreconditionError(IsogradError, ValueError):
    """A documented precondition was violated (bad direction, exterior probe, ...)."""


class NotNormalized(PreconditionError):
    """Outcome probabilities do not sum to 1 within tolerance."""


class OutOfRange(PreconditionError):
    """A probability lies outside [0, 1] beyond tolerance."""


class BadDimension(PreconditionError):
    """Dimension argument outside the supported range."""


class InfeasiblePoint(PreconditionError):
    """Point does not satisfy the constraint set it is evaluated under."""


class DomainError(IsogradError, ValueError):
    """A function could not be evaluated at a probe point."""


class NonFinite(DomainError):
    """An input value is NaN or infinite."""


class DegenerateMarginal(DomainError):
    """A marginal distribution has zero variance, so correlation is undefined."""


class BadParams(PreconditionError):
    """Distribution parameters outside their admissible region."""


class EmptyData(PreconditionError):
    """An estimator was given zero observations."""


class UnsupportedRho(PreconditionError):
    """Game slice requested for a rho outside {-1, 0, +1}."""


class ConvergenceFailure(IsogradError):
    """Grid search and refinement disagree beyond the documented tolerance."""


def require_real(name: str, value) -> float:
    """``value`` as a float; BadParams unless a real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadParams(f"{name} must be a real number, got {value!r}")
    return float(value)


def require_finite(name: str, values: Iterable) -> list[float]:
    """``values`` as floats: BadParams unless a sequence of real numbers,
    NonFinite unless each is finite."""
    try:
        values = iter(values)
    except TypeError:
        raise BadParams(f"expected a sequence of {name} values, "
                        f"got {values!r}") from None
    floats = [require_real(name, v) for v in values]
    for v in floats:
        if not math.isfinite(v):
            raise NonFinite(f"{name} must be finite, got {v!r}")
    return floats


def require_count(name: str, value, minimum: int) -> int:
    """``value`` as an int; BadParams unless an integer (not a bool) of at
    least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadParams(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise BadParams(f"{name} must be at least {minimum}, got {value}")
    return int(value)
