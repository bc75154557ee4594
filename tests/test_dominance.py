"""The plane-by-plane Pareto dominance matrix against the 4-D formula.

axioms._dominance builds its (B, m, m) matrix one coordinate plane at a
time.  reference_dominance is the formula it replaced, which tests every
pair on every coordinate at once.  The two must agree bit for bit on
finite chains, ties at the margin included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ammorbit import axioms
from ammorbit.axioms import PARETO_MARGIN
from ammorbit.rand import log_uniform, trial_rng


def reference_dominance(chains: np.ndarray) -> np.ndarray:
    a = chains[:, :, None, :]
    b = chains[:, None, :, :]
    diff = a - b
    slack = np.maximum(np.abs(a), np.abs(b))
    slack *= PARETO_MARGIN
    dominates = (diff > slack).any(axis=3)
    dominates &= (diff >= np.negative(slack, out=slack)).all(axis=3)
    diagonal = np.arange(chains.shape[1])
    dominates[:, diagonal, diagonal] = False
    return dominates


def assert_same(chains: np.ndarray) -> np.ndarray:
    got = axioms._dominance(chains)
    want = reference_dominance(chains)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return want


@pytest.mark.parametrize("n", [2, 3, 5])
def test_matches_reference_on_random_chains(n):
    rng = trial_rng(2032, n)
    # Spread-out states, and states a few margins apart where rounding
    # decides the comparisons.
    spread = log_uniform(rng, 1e-6, 1e6, (64, 33, n))
    close = np.cumprod(1.0 + rng.uniform(-4e-12, 4e-12, (64, 33, n)), axis=1)
    for chains in (spread, close):
        assert_same(chains)
    assert reference_dominance(close).any() and not reference_dominance(close).all()


def exact_margin_pair(exponent: int) -> tuple[float, float]:
    """(p, q) with p - q == max(p, q) * PARETO_MARGIN == 2**exponent exactly."""
    gap = 2.0 ** exponent
    p = gap / PARETO_MARGIN
    for _ in range(8):
        if p * PARETO_MARGIN == gap:
            return p, p - gap
        p = math.nextafter(p, math.inf if p * PARETO_MARGIN < gap else -math.inf)
    raise AssertionError(f"no exact margin pair at 2**{exponent}")


@pytest.mark.parametrize("n", [2, 3, 5])
def test_matches_reference_at_exact_margin_gaps_and_repeats(n):
    rng = trial_rng(2033, n)
    # Every coordinate takes one of two values exactly one margin apart,
    # so all pairs tie and most states repeat: nothing dominates.
    pairs = np.array([exact_margin_pair(e) for e in rng.integers(-50, -30, n)])
    ties = pairs[np.arange(n), rng.integers(0, 2, (32, 12, n))]
    assert not assert_same(ties).any()
    # Offsets of whole margins on a shared base, some rounding across it.
    base = log_uniform(rng, 1e-3, 1e3, (32, 1, n))
    near = base + rng.integers(-2, 3, (32, 12, n)) * PARETO_MARGIN * base
    near[:, 6:] = near[:, :6]  # each state appears twice
    want = assert_same(near)
    assert want.any() and not want.all()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_matches_reference_with_zero_and_negative_coordinates(n):
    # A custom domain may admit such states.
    rng = trial_rng(2034, n)
    values = np.array([-2.0, -1.0, -PARETO_MARGIN, -0.0, 0.0, PARETO_MARGIN, 1.0, 2.0])
    chains = rng.choice(values, (64, 10, n))
    chains *= 1.0 + rng.integers(-1, 2, chains.shape) * PARETO_MARGIN
    want = assert_same(chains)
    assert want.any()


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 4)),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_matches_reference_on_any_finite_chains(chains):
    assert_same(chains)


def test_dominating_pair_is_the_first_in_row_major_order():
    states = np.array([[1.0, 2.0, 3.0], [2.0, 2.0, 3.0], [0.5, 1.0, 3.0], [2.0, 2.0, 3.0]])
    assert axioms._dominating_pair(states) == (0, 2)
    assert axioms._dominating_pair(states[[0, 1, 3]][::2]) == (1, 0)
    assert axioms._dominating_pair(states[[1, 3]]) is None
