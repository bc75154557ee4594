"""Exception types shared across the library.

Every error raised on purpose derives from AmmError so callers can catch
one base class at the CLI boundary and map it to an exit code.
require_integer, require_real and require_range are the config objects'
shared type checks.
"""

from __future__ import annotations

import math
import numbers


class AmmError(Exception):
    """Base class for all library errors."""


class MalformedInputError(AmmError):
    """An input contained a NaN, an infinity, or had the wrong shape."""


class DomainError(AmmError):
    """A value was outside the admissible domain (e.g. a reserve <= 0)."""


class UsageError(AmmError):
    """An operation was called with inconsistent arguments."""


class ConfigError(AmmError):
    """A rule or harness configuration parameter was out of range."""


def require_integer(name: str, value) -> None:
    """Raise ConfigError unless value is an integer (bool excluded)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> None:
    """Raise ConfigError unless value is a real number (bool excluded)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")


def require_range(name: str, value) -> None:
    """Raise ConfigError unless value is a pair of reals (lo, hi), 0 < lo <= hi < inf."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a pair (lo, hi), got {value!r}") from None
    require_real(name, lo)
    require_real(name, hi)
    if not (0.0 < lo <= hi < math.inf):
        raise ConfigError(f"{name} must satisfy 0 < lo <= hi, got ({lo!r}, {hi!r})")


class NumericError(AmmError):
    """A computation produced a non-finite or non-representable value."""


class ChainError(AmmError):
    """A multi-swap chain left the rule's domain.

    Carries the index of the failing step and the partial trajectory
    accumulated before the failure.
    """

    def __init__(self, message: str, step: int, partial):
        super().__init__(message)
        self.step = step
        self.partial = partial


class SamplingError(AmmError):
    """Orbit sampling hit the domain boundary; carries the partial sample."""

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial


class DegenerateSampleError(AmmError):
    """Too few distinct points, or a rank-deficient cloud, for a fit."""


class VerticalFitError(AmmError):
    """The fitted log-space line is vertical; no slope exists."""


class ClassificationError(AmmError):
    """A fit succeeded numerically but does not describe a valid invariant."""


class InternalError(AmmError):
    """A library invariant broke: a bug in ammorbit, not in the caller's input."""
