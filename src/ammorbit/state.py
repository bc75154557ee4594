"""Reserve states, the log-coordinate chart, and the pool invariant.

A state is a vector of n >= 2 token reserves.  Valid states have every
coordinate strictly positive and finite; swaps act on valid states but
may produce invalid ones, which is exactly what the conformance harness
looks for.  All functions return read-only arrays so states behave as
immutable values.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, MalformedInputError, NumericError, UsageError, require_nonnegative

# Relative tolerance used for float equality throughout the core.
REL_TOL = 1e-12

WEIGHT_SUM_TOL = 1e-12

# Rows formatted per block of CLI output, CSV or JSON.
_BLOCK = 1024


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _vector(values, name: str, entry: str) -> np.ndarray:
    """values as a read-only float vector of >= 2 finite entries; anything
    else, an int beyond float range included, raises MalformedInputError."""
    try:
        a = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInputError(f"{name} must be numeric: {exc}") from exc
    if a.ndim != 1 or a.size < 2:
        raise MalformedInputError(f"{name} must be a vector of >= 2 floats, got shape {a.shape}")
    if not all(map(math.isfinite, a.tolist())):
        raise MalformedInputError(f"non-finite {entry} in {a.tolist()}")
    return _freeze(a)


def as_reserves(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce to a float reserve vector.

    Rejects NaN/inf coordinates and dimensions below 2.  Does NOT check
    positivity; use is_valid for that.
    """
    return _vector(values, "reserves", "reserve coordinate")


def _positive(a: np.ndarray) -> bool:
    """True iff every coordinate of a float vector is finite and > 0."""
    # States have a few coordinates; a Python loop beats numpy's call overhead.
    return all(0.0 < v < math.inf for v in a.tolist())


def is_valid(s: Sequence[float] | np.ndarray) -> bool:
    """True iff every coordinate is finite and strictly positive."""
    return _positive(as_reserves(s))


def require_valid(s) -> np.ndarray:
    a = as_reserves(s)
    if not _positive(a):
        raise DomainError(f"state {a.tolist()} has a non-positive coordinate")
    return a


def log_map(s) -> np.ndarray:
    """Coordinate-wise natural log of a valid state."""
    a = require_valid(s)
    return _freeze(np.log(a))


def exp_map(z) -> np.ndarray:
    """Inverse of log_map; any finite log point maps to a valid state."""
    a = _vector(z, "log point", "log point coordinate")
    with np.errstate(over="ignore"):
        out = np.exp(a)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"exp_map overflow for log point {a.tolist()}")
    return _freeze(out)


def scale(s, factors) -> np.ndarray:
    """Rescale each reserve by a positive per-token factor (a change of units)."""
    a = require_valid(s)
    return _freeze(a * _factors(factors, a.shape))


def _factors(factors, shape: tuple) -> np.ndarray:
    """Per-token scale factors as floats: UsageError unless they have the
    given shape, DomainError unless each is finite and positive."""
    try:
        f = np.asarray(factors, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"scale factors must be positive and finite, got {factors!r}") from exc
    if f.shape != shape:
        raise UsageError(f"factor dimension {f.shape} does not match dimension {shape}")
    if not _positive(f):
        raise DomainError(f"scale factors must be positive and finite, got {f.tolist()}")
    return f


def pareto_geq(t, s) -> bool:
    """True iff t is coordinate-wise >= s.  Exact float comparison."""
    tt = as_reserves(t)
    ss = as_reserves(s)
    if tt.shape != ss.shape:
        raise UsageError("cannot compare states of different dimension")
    return bool(np.all(tt >= ss))


def as_weights(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate a weight vector: each in (0, 1), summing to 1 within 1e-12."""
    w = _vector(values, "weights", "weight")
    if not np.all((w > 0.0) & (w < 1.0)):
        raise DomainError(f"every weight must lie strictly in (0, 1), got {w.tolist()}")
    total = float(np.sum(w))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise DomainError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got sum {total!r}")
    return w


def weighted_gmean(s, weights) -> float:
    """Weighted geometric mean of the reserves, prod s_i**w_i.

    Computed as exp(sum w_i * ln s_i) so huge and tiny reserves do not
    overflow intermediate powers.  This is the quantity a weighted
    constant-product rule holds fixed along an orbit.
    """
    a = require_valid(s)
    w = as_weights(weights)
    if w.shape != a.shape:
        raise UsageError(f"weight dimension {w.shape} does not match state dimension {a.shape}")
    return _gmean(w, np.log(a))


def _gmean(w: np.ndarray, logs: np.ndarray) -> float:
    """exp(w . logs), one dot product per state: a matrix product may round otherwise."""
    return math.exp(float(np.dot(w, logs)))


def rel_close(a, b, tol: float = REL_TOL) -> bool:
    """Coordinate-wise |a-b| <= tol * max(|a|,|b|), with exact equality
    allowed; an infinity is close only to itself."""
    require_nonnegative("tolerance", tol)
    try:
        aa = np.asarray(a, dtype=float)
        bb = np.asarray(b, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInputError(f"rel_close compares numbers: {exc}") from exc
    if aa.shape != bb.shape:
        return False
    return bool(_close_rows(aa.ravel(), bb.ravel(), tol))


# inf - inf and inf * 0 (NaN, never close) and overflows (inf) need no warning.
@np.errstate(invalid="ignore", over="ignore")
def _close_rows(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """rel_close of each pair of rows of a and b (along their last axis), per row."""
    top = np.maximum(np.abs(a), np.abs(b))
    return np.all((a == b) | ((top < math.inf) & (np.abs(a - b) <= tol * top)), axis=-1)


def _width(*tables) -> int:
    """n, for tables of m > 0 rows of n values each, arrays or sequences of
    rows alike; MalformedInputError otherwise."""
    try:
        shapes = {np.shape(table) for table in tables}
    except ValueError as exc:
        raise MalformedInputError(f"table rows differ in length: {exc}") from exc
    if len(shapes) != 1 or len(shape := min(shapes)) != 2 or not shape[0]:
        raise MalformedInputError(f"tables must be alike and non-empty, got shapes {shapes}")
    return shape[1]


def _csv(header: str, *columns) -> Iterator[str]:
    """header, then one line of '%.17g' cells per row, in blocks of _BLOCK
    rows; the header names one cell per comma-separated field."""
    yield header + "\n"
    yield from _row_blocks(",".join(["%.17g"] * (header.count(",") + 1)) + "\n", "", columns)


def _row_blocks(row: str, sep: str, columns) -> Iterator[str]:
    """row % the cells of each row of columns, rows joined by sep, in blocks of
    _BLOCK rows, each but the first starting with sep.  A column holds one
    number or one vector per row; cells keep their types, so ints stay ints."""
    # A block of rows per %-format: one call per cell is slower, and one
    # for the whole table holds more memory.
    for start in range(0, len(columns[0]), _BLOCK):
        blocks = [np.asarray(c[start:start + _BLOCK]) for c in columns]
        cells = [cell for b in blocks for cell in b.reshape(len(b), -1).T.tolist()]
        rows = sep.join([row] * len(blocks[0])) % tuple(chain.from_iterable(zip(*cells)))
        yield sep + rows if start else rows
