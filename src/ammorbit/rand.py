"""Deterministic randomness for trials and orbit sampling.

Each trial gets its own counter-based Philox stream keyed by
``seed XOR trial_index``, so trial i is reproducible in isolation and
the whole run is order-independent.  The identifier string below is
embedded in reports so a witness can name the exact derivation.

A stream is what ``trial_rng`` returns: numpy's Philox4x64-10 under a
``Generator``.  The library draws through ``Draws``, which computes the
Philox words of a whole block of keys at once and reads from them
exactly what the ``Generator`` calls would return, row by row.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

PRNG_ID = "philox4x64(key = seed xor trial)"

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = np.uint64(0xFFFFFFFF)

# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC 2011).
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10

# Counter blocks computed per pass of the kernel, which bounds its
# temporaries to a few hundred kilobytes whatever the request.
_SLAB = 8192


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent generator for one trial of a seeded run."""
    return np.random.Generator(np.random.Philox(key=(int(seed) ^ trial) & _MASK64))


def log_uniform(rng: np.random.Generator, lo: float, hi: float, size=None):
    """Draw from [lo, hi] uniformly in log space.  Requires 0 < lo <= hi."""
    if not (0.0 < lo <= hi):
        raise ConfigError(f"log_uniform needs 0 < lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return lo if size is None else np.full(size, lo)
    draw = rng.uniform(math.log(lo), math.log(hi), size)
    return np.exp(draw)


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of the 128-bit products a * m."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _MASK32, a >> np.uint64(32)
    ll, lh, hl = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
    carry = (ll >> np.uint64(32)) + (lh & _MASK32) + (hl & _MASK32)
    hi = a_hi * m_hi + (lh >> np.uint64(32)) + (hl >> np.uint64(32)) + (carry >> np.uint64(32))
    return a * np.uint64(m), hi


def _philox(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of the 256-bit counters (c, 0, 0, 0) under the
    128-bit keys (k, 0): one row of four words per (key, counter) pair."""
    c0, c1 = counters, np.zeros_like(counters)
    c2, c3 = np.zeros_like(counters), np.zeros_like(counters)
    k0, k1 = keys.copy(), 0
    for r in range(_ROUNDS):
        if r:
            k0 += np.uint64(_W0)
            k1 = (k1 + _W1) & _MASK64
        lo0, hi0 = _mulhilo(c0, _M0)
        lo1, hi1 = _mulhilo(c2, _M1)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    return np.stack([c0, c1, c2, c3], axis=1)


def philox_words(keys: np.ndarray, blocks: int, first: int = 0) -> np.ndarray:
    """(len(keys), 4 * blocks) uint64: row k holds the words that
    ``np.random.Philox(key=keys[k]).random_raw`` returns after the first
    ``4 * first``, i.e. the blocks of counters first + 1 ... first + blocks.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    total = keys.size * blocks
    try:
        out = np.empty((total, 4), dtype=np.uint64)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"cannot hold {total} Philox blocks of draws: {exc}") from None
    for lo in range(0, total, _SLAB):
        flat = np.arange(lo, min(lo + _SLAB, total), dtype=np.uint64)
        out[lo:lo + flat.size] = _philox(keys[flat // np.uint64(blocks)],
                                         flat % np.uint64(blocks) + np.uint64(first + 1))
    return out.reshape(keys.size, 4 * blocks)


class Draws:
    """What a numpy Generator on each of a block of Philox keys draws.

    Row k reads the stream of ``Generator(Philox(key=keys[k]))``: a double
    takes one 64-bit word, and one run of bounded integers takes 32-bit
    halves of the words that follow.  Rows consume their streams
    independently, so every method works on all rows at once.
    """

    def __init__(self, keys: np.ndarray, words: int = 0):
        self.keys = np.asarray(keys, dtype=np.uint64)
        self.words = philox_words(self.keys, -(-words // 4))
        self.pos = np.zeros(self.keys.size, dtype=np.int64)   # next unread word

    def _ensure(self, width: int) -> None:
        # The buffer at least doubles, so a run of small reads costs few
        # kernel passes.
        have = self.words.shape[1]
        if width > have:
            blocks = -(-max(width, 2 * have) // 4) - have // 4
            self.words = np.hstack([self.words, philox_words(self.keys, blocks, have // 4)])

    @property
    def words_read(self) -> int:
        """The most words any row has read so far."""
        return int(self.pos.max(initial=0))

    def _read(self, count: int) -> np.ndarray:
        """The next count words of every row, left unconsumed."""
        self._ensure(self.words_read + count)
        return np.take_along_axis(self.words, self.pos[:, None] + np.arange(count), axis=1)

    def log_uniform(self, lo: float, hi, count: int) -> np.ndarray:
        """(rows, count): ``log_uniform(rng, lo, hi, count)`` on each row's stream.

        hi is a float or a per-row array; a row with lo == hi reads
        nothing and gets lo.
        """
        hi = np.broadcast_to(np.asarray(hi, dtype=float), self.pos.shape)
        same = hi == lo
        if same.all():
            return np.full((self.pos.size, count), lo)
        u = (self._read(count) >> np.uint64(11)).astype(float) * 2.0**-53
        self.pos += count * ~same
        # Generator.uniform's own arithmetic, on bounds logged by libm.
        low, high = math.log(lo), _log(hi)[:, None]
        return np.where(same[:, None], lo, np.exp(low + (high - low) * u))

    def integers(self, highs) -> np.ndarray:
        """(rows, len(highs)) int64: ``rng.integers(0, highs)`` on each row's stream.

        Each bound is at most 2**32 and taken by Lemire's rejection
        method, as numpy does; a one-value range reads nothing.  A run
        reads 32-bit halves from the row's next word on, low half first,
        and leaves ``pos`` past the last word it read; numpy would keep
        that word's unread high half for a second run, which no draw plan
        reads, so a ``Draws`` takes at most one run.
        """
        highs = np.asarray(highs, dtype=np.uint64)
        out = np.zeros((self.pos.size, highs.size), dtype=np.int64)
        live = np.flatnonzero(highs > 1)
        if live.size == 0:
            return out
        bounds = highs[live]
        thresholds = np.uint64(2**32) % bounds
        # The half each draw reads: a pass that finds a row's first
        # rejection moves that draw and the row's later draws on by one.
        at = np.tile(np.arange(live.size), (self.pos.size, 1))
        while True:
            words = self._read(int(at[:, -1].max()) // 2 + 1)
            halves = np.stack([words & _MASK32, words >> np.uint64(32)], axis=2)
            scaled = np.take_along_axis(halves.reshape(len(words), -1), at, axis=1) * bounds
            rejected = (scaled & _MASK32) < thresholds
            if not rejected.any():
                break
            at += np.logical_or.accumulate(rejected, axis=1)
        out[:, live] = scaled >> np.uint64(32)
        self.pos += at[:, -1] // 2 + 1
        return out

    def pairs(self, n: int, count: int) -> np.ndarray:
        """(2, rows, count): count uniformly drawn ordered pairs of distinct
        token indices below n per row, as (first indices, second indices)."""
        raw = self.integers([n, n - 1] * count)
        i, j = raw[:, 0::2], raw[:, 1::2]
        return np.stack([i, j + (j >= i)])


def _log(values: np.ndarray) -> np.ndarray:
    """math.log of each value, one libm call per distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([math.log(v) for v in distinct.tolist()])[inverse]


def trial_draws(seed: int, trials: np.ndarray, words: int = 0) -> Draws:
    """Draws whose row k reads ``trial_rng(seed, trials[k])``, with words
    per row computed up front (more are computed as reads need them)."""
    keys = np.asarray(trials, dtype=np.uint64) ^ np.uint64(int(seed) & _MASK64)
    return Draws(keys, words)
