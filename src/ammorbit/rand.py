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
_32 = np.uint64(32)

# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC 2011).
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10

# Counter blocks computed per pass of the kernel: its nine lanes of this
# many words, 288 KB, are all the scratch it holds whatever the request.
_SLAB = 4096


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


def _mulhilo(a: np.ndarray, m: int, scratch: list) -> np.ndarray:
    """The 128-bit products a * m in place: a becomes their low 64-bit words,
    and their high words are returned in one of the four scratch arrays."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    t, u, v, h = scratch
    np.bitwise_and(a, _MASK32, out=t)       # a_lo
    np.right_shift(a, _32, out=u)           # a_hi
    a *= np.uint64(m)
    np.multiply(t, m_hi, out=v)             # lh = a_lo m_hi
    t *= m_lo
    t >>= _32                               # carry = (ll >> 32)
    np.bitwise_and(v, _MASK32, out=h)
    t += h                                  #   + (lh & mask)
    v >>= _32
    np.multiply(u, m_lo, out=h)             # hl = a_hi m_lo
    u *= m_hi                               # hi = a_hi m_hi
    u += v                                  #   + (lh >> 32)
    np.bitwise_and(h, _MASK32, out=v)
    t += v                                  # carry + (hl & mask)
    h >>= _32
    u += h                                  #   + (hl >> 32)
    t >>= _32
    u += t                                  #   + (carry >> 32)
    return u


def _philox(lanes: list, k0: np.ndarray, scratch: list) -> list:
    """Philox4x64-10 in place on the four lanes of 256-bit counters, under
    the 128-bit keys (k0, 0): returns the lanes in output order.  k0 and the
    four scratch arrays are overwritten."""
    c0, c1, c2, c3 = lanes
    k1 = 0
    for r in range(_ROUNDS):
        if r:
            k0 += np.uint64(_W0)
            k1 = (k1 + _W1) & _MASK64
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0).
        c3 ^= _mulhilo(c0, _M0, scratch)
        c3 ^= np.uint64(k1)
        c1 ^= _mulhilo(c2, _M1, scratch)
        c1 ^= k0
        c0, c1, c2, c3 = c1, c2, c3, c0
    return [c0, c1, c2, c3]


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
    # Every pass reuses nine lanes: the counters, the keys and the products'
    # scratch.  Each is its own array, small enough to come from malloc's
    # heap: freeing one block big enough to be mapped apart would raise
    # glibc's mmap threshold for the rest of the process.
    buffers = [np.empty(min(_SLAB, total), dtype=np.uint64) for _ in range(9)]
    for lo in range(0, total, _SLAB):
        size = min(_SLAB, total - lo)
        c0, c1, c2, c3, k0, *scratch = (buffer[:size] for buffer in buffers)
        c1[:] = np.arange(lo, lo + size, dtype=np.uint64)
        keys.take(np.floor_divide(c1, np.uint64(blocks), out=c2), out=k0)
        np.remainder(c1, np.uint64(blocks), out=c0)
        c0 += np.uint64(first + 1)
        c1[:] = c2[:] = c3[:] = 0
        for k, lane in enumerate(_philox([c0, c1, c2, c3], k0, scratch)):
            out[lo:lo + size, k] = lane
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

        hi is a float or a per-row array, equal to lo on every row or on
        none; when it is lo on every row, nothing is read and every draw is lo.
        """
        hi = np.broadcast_to(np.asarray(hi, dtype=float), self.pos.shape)
        if np.all(hi == lo):
            return np.full((self.pos.size, count), lo)
        u = (self._read(count) >> np.uint64(11)).astype(float) * 2.0**-53
        self.pos += count
        # Generator.uniform's own arithmetic, on bounds logged by libm.
        low, high = math.log(lo), _log(hi)[:, None]
        return np.exp(low + (high - low) * u)

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
        live = np.flatnonzero(highs > 1)
        if live.size == 0:
            return np.zeros((self.pos.size, highs.size), dtype=np.int64)
        bounds = highs[live]
        # Lemire's test in 32-bit arithmetic: the low word of half * bound is
        # exact mod 2**32, and a bound of 2**32 wraps to 0 with threshold 0.
        low_bounds = bounds.astype(np.uint32)
        thresholds = (np.uint64(2**32) % bounds).astype(np.uint32)
        # The half each draw reads, counted from the row's first word: a pass
        # that finds a row's first rejection moves that draw and the row's
        # later draws on by one.
        first = 2 * self.pos
        at = np.broadcast_to(np.arange(live.size), (self.pos.size, live.size))
        while True:
            self._ensure(int((first + at[:, -1]).max()) // 2 + 1)
            halves = self.words.astype("<u8", copy=False).view("<u4")
            halves = np.take_along_axis(halves, first[:, None] + at, axis=1)
            rejected = halves * low_bounds < thresholds
            if not rejected.any():
                break
            at = at + np.logical_or.accumulate(rejected, axis=1)
        self.pos = (first + at[:, -1]) // 2 + 1
        # Only the accepted halves are widened to 64 bits.
        halves = halves * bounds
        halves >>= _32
        out = np.zeros((self.pos.size, highs.size), dtype=np.int64)
        out[:, live] = halves
        return out

    def pairs(self, n: int, count: int) -> np.ndarray:
        """(2, rows, count) int32: count uniformly drawn ordered pairs of distinct
        token indices below n per row, as (first indices, second indices)."""
        raw = self.integers([n, n - 1] * count).reshape(-1, count, 2)
        i, j = raw[:, :, 0], raw[:, :, 1]
        j += j >= i
        return raw.astype(np.int32).transpose(2, 0, 1)


def _log(values: np.ndarray) -> np.ndarray:
    """math.log of each value, one libm call per distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([math.log(v) for v in distinct.tolist()])[inverse]


def trial_draws(seed: int, trials: np.ndarray, words: int = 0) -> Draws:
    """Draws whose row k reads ``trial_rng(seed, trials[k])``, with words
    per row computed up front (more are computed as reads need them)."""
    keys = np.asarray(trials, dtype=np.uint64) ^ np.uint64(int(seed) & _MASK64)
    return Draws(keys, words)
