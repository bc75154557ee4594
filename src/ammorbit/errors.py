"""Exception types shared across the library.

Every error raised on purpose derives from AmmError so callers can catch
one base class at the CLI boundary and map it to an exit code.
require_integer, require_seed, require_real (over is_real), require_range and
the number reader read_float are shared by config objects and scalar arguments.
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


def require_seed(value) -> None:
    """Raise ConfigError unless value is an integer seed in [0, 2**64)."""
    require_integer("seed", value)
    if not 0 <= value < 2**64:
        raise ConfigError(f"seed must fit in 64 bits, got {value!r}")


def is_real(value) -> bool:
    """True iff value is a real number, numpy's included; a bool is not one."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def require_real(name: str, value) -> None:
    """Raise ConfigError unless value is a real number (bool excluded)."""
    if not is_real(value):
        raise ConfigError(f"{name} must be a real number, got {value!r}")


def _require_tolerance(value) -> None:
    """Raise ConfigError unless value is a real number in (0, 1)."""
    require_real("tolerance", value)
    if not (0.0 < value < 1.0):
        raise ConfigError(f"tolerance must lie in (0, 1), got {value!r}")


def read_float(value) -> float:
    """value as a float: NaN if it is not a real number (a bool is not one),
    and an infinity if it is an int beyond float range."""
    try:
        return float(value) if is_real(value) else math.nan
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def require_range(name: str, value) -> None:
    """Raise ConfigError unless value is a pair of reals (lo, hi), 0 < lo <= hi < inf."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a pair (lo, hi), got {value!r}") from None
    if not (0.0 < read_float(lo) <= read_float(hi) < math.inf):
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
    """Orbit sampling hit the domain boundary or a step raised; carries the partial sample."""

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
