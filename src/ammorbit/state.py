"""Reserve states, the log-coordinate chart, and the pool invariant.

A state is a vector of n >= 2 token reserves.  Valid states have every
coordinate strictly positive and finite; swaps act on valid states but
may produce invalid ones, which is exactly what the conformance harness
looks for.  All functions return read-only arrays so states behave as
immutable values.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, MalformedInputError, NumericError, UsageError

# Relative tolerance used for float equality throughout the core.
REL_TOL = 1e-12

WEIGHT_SUM_TOL = 1e-12

# Rows formatted per block of CLI output, CSV or JSON.
_BLOCK = 1024


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def as_reserves(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce to a float reserve vector.

    Rejects NaN/inf coordinates and dimensions below 2.  Does NOT check
    positivity; use is_valid for that.
    """
    try:
        a = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"reserves must be numeric: {exc}") from exc
    if a.ndim != 1 or a.size < 2:
        raise MalformedInputError(f"reserves must be a vector of >= 2 floats, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise MalformedInputError(f"non-finite reserve coordinate in {a.tolist()}")
    return _freeze(a.copy())


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
    a = np.asarray(z, dtype=float)
    if a.ndim != 1 or a.size < 2 or not np.all(np.isfinite(a)):
        raise MalformedInputError(f"log point must be a finite vector of >= 2 floats, got {a!r}")
    with np.errstate(over="ignore"):
        out = np.exp(a)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"exp_map overflow for log point {a.tolist()}")
    return _freeze(out)


def scale(s, factors) -> np.ndarray:
    """Rescale each reserve by a positive per-token factor (a change of units)."""
    a = require_valid(s)
    f = np.asarray(factors, dtype=float)
    if f.shape != a.shape:
        raise UsageError(f"factor dimension {f.shape} does not match state dimension {a.shape}")
    if not np.all(np.isfinite(f)) or not np.all(f > 0.0):
        raise DomainError(f"scale factors must be positive and finite, got {f.tolist()}")
    return _freeze(a * f)


def pareto_geq(t, s) -> bool:
    """True iff t is coordinate-wise >= s.  Exact float comparison."""
    tt = as_reserves(t)
    ss = as_reserves(s)
    if tt.shape != ss.shape:
        raise UsageError("cannot compare states of different dimension")
    return bool(np.all(tt >= ss))


def as_weights(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate a weight vector: each in (0, 1), summing to 1 within 1e-12."""
    w = np.asarray(values, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise MalformedInputError(f"weights must be a vector of >= 2 floats, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise MalformedInputError(f"non-finite weight in {w.tolist()}")
    if not np.all((w > 0.0) & (w < 1.0)):
        raise DomainError(f"every weight must lie strictly in (0, 1), got {w.tolist()}")
    total = float(np.sum(w))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise DomainError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got sum {total!r}")
    return _freeze(w.copy())


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
    return float(math.exp(float(np.dot(w, np.log(a)))))


def rel_close(a, b, tol: float = REL_TOL) -> bool:
    """Coordinate-wise |a-b| <= tol * max(|a|,|b|), with exact equality allowed."""
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    if aa.shape != bb.shape:
        return False
    scale_ref = np.maximum(np.abs(aa), np.abs(bb))
    return bool(np.all(np.abs(aa - bb) <= tol * scale_ref))


def rel_dist(a, b) -> float:
    """Largest coordinate-wise relative difference between two vectors."""
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    scale_ref = np.maximum(np.abs(aa), np.abs(bb))
    scale_ref = np.where(scale_ref == 0.0, 1.0, scale_ref)
    return float(np.max(np.abs(aa - bb) / scale_ref))


def _csv(header: str, *columns) -> Iterator[str]:
    """header, then one line of '%.17g' cells per row, in blocks of _BLOCK
    rows.  A column holds one number, or one vector of them, per row; the
    header names one cell per comma-separated field."""
    # A block of rows per %-format: one call per cell is slower, and one
    # for the whole table holds more memory.
    row = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    yield header + "\n"
    for start in range(0, len(columns[0]), _BLOCK):
        block = np.column_stack([np.asarray(c[start:start + _BLOCK], float) for c in columns])
        yield row * len(block) % tuple(block.ravel().tolist())
