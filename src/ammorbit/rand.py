"""Deterministic randomness for trials and orbit sampling.

Each trial gets its own counter-based Philox stream keyed by
``seed XOR trial_index``, so trial i is reproducible in isolation and
the whole run is order-independent.  The identifier string below is
embedded in reports so a witness can name the exact derivation.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

PRNG_ID = "philox4x64(key = seed xor trial)"

_MASK64 = 0xFFFFFFFFFFFFFFFF


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent generator for one trial of a seeded run."""
    return np.random.Generator(np.random.Philox(key=(seed ^ trial) & _MASK64))


def trial_streams(seed: int) -> Callable[[int], np.random.Generator]:
    """Generators for the trials of one seeded run, from one re-keyed Philox.

    ``streams(trial)`` draws exactly what ``trial_rng(seed, trial)``
    draws, without building a fresh bit generator per trial.  Each call
    re-keys and returns the same generator, so the previous trial's
    stream ends there.
    """
    bits = np.random.Philox(key=seed & _MASK64)
    rng = np.random.Generator(bits)
    # A fresh generator's state: zero counter, empty buffer, no cached
    # 32-bit half.  The setter copies it, so only the key changes per trial.
    fresh = bits.state
    key = fresh["state"]["key"]

    def streams(trial: int) -> np.random.Generator:
        key[0] = (seed ^ trial) & _MASK64
        bits.state = fresh
        return rng

    return streams


def _sample_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    """A uniformly drawn ordered pair of distinct token indices below n."""
    i = int(rng.integers(0, n))
    # A draw over a one-value range consumes nothing, so two tokens skip it.
    j = int(rng.integers(0, n - 1)) if n > 2 else 0
    if j >= i:
        j += 1
    return i, j


def log_uniform(rng: np.random.Generator, lo: float, hi: float, size=None):
    """Draw from [lo, hi] uniformly in log space.  Requires 0 < lo <= hi."""
    if not (0.0 < lo <= hi):
        raise ValueError(f"log_uniform needs 0 < lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return lo if size is None else np.full(size, lo)
    draw = rng.uniform(math.log(lo), math.log(hi), size)
    return np.exp(draw)
