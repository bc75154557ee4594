"""The paper's theorem one axiom at a time: a rule that breaks exactly one
axiom fails exactly that check, and its orbits are not weighted
geometric-mean level sets.

Each rule here is a test-only black box, built as SwapRule(swap_in=...),
so the checks judge its rows through swap() and walk every chain.
"""

import pytest

from ammorbit import (OrbitConfig, SwapRule, TrialConfig, as_reserves, check_all, check_slices,
                      verify_level_sets, weighted_product)

AXIOMS = ("validity_invariance", "pareto_efficiency", "unit_invariance", "token_symmetry")
# The README's three starts.
STARTS = [as_reserves(s) for s in ([1, 1], [3, 0.4], [0.2, 6])]


def half_payout(s, i, j, amount):
    """Pays out half of what x y = k would: valid, unit-invariant and
    symmetric, but a trade there and back leaks value."""
    out = s.copy()
    out[i] = s[i] + amount
    out[j] = s[j] - 0.5 * (s[j] * amount / (s[i] + amount))
    return out


def solidly(s, i, j, amount):
    """Holds x^3 y + x y^3 fixed, solved for the output reserve by
    bisection: valid, Pareto and symmetric, but a change of units moves
    the curve."""
    x0, y0 = float(s[i]), float(s[j])
    k = x0 ** 3 * y0 + x0 * y0 ** 3
    x = x0 + amount
    lo, hi = 0.0, y0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if x ** 3 * mid + x * mid ** 3 > k:
            hi = mid
        else:
            lo = mid
    out = s.copy()
    out[i], out[j] = x, hi
    return out


@pytest.mark.parametrize("swap_in, broken, prefix, suffix", [
    (half_payout, "pareto_efficiency", "orbit 0 (start [1.0, 1.0]): slope ", " is not negative"),
    (solidly, "unit_invariance", "slope spread ", " exceeds tolerance 1e-09"),
], ids=["half-payout", "solidly"])
def test_a_rule_breaking_one_axiom_fails_that_check_alone(swap_in, broken, prefix, suffix):
    rule = SwapRule(swap_in.__name__, 2, swap_in)
    reports = check_all(rule, TrialConfig(seed=7, trials=300))
    assert [r.axiom for r in reports] == list(AXIOMS)
    assert [(r.passed, r.trials) for r in reports] == [
        (False, 1) if axiom == broken else (True, 300) for axiom in AXIOMS]
    report = verify_level_sets(rule, STARTS, OrbitConfig(seed=7, samples=64))
    assert not report.verdict
    assert report.failure.startswith(prefix) and report.failure.endswith(suffix), report.failure


WPROD = weighted_product([0.2, 0.3, 0.5])


def drifting(s, i, j, amount):
    """wprod:0.2,0.3,0.5's trade with the third reserve then scaled by
    1 + 1e-9: no slice keeps both its line and the other reserves fixed."""
    out = WPROD.swap_in(s, i, j, amount)
    out[2] *= 1.0 + 1e-9
    return out


def sum3(s, i, j, amount):
    """Holds s_1 + s_2 + s_3 fixed: a slice walks out of the positive orthant."""
    out = s.copy()
    out[i] = s[i] + amount
    out[j] = s[j] - amount
    return out


@pytest.mark.parametrize("swap_in, prefix, suffix", [
    (drifting, "pair (0, 1): slope -0.666", ", others_fixed False"),
    (sum3, "pair (0, 1): orbit sampling hit the domain boundary of 'sum3' at step ", ""),
], ids=["drifting", "sum3"])
def test_a_three_token_rule_off_its_level_sets_fails_every_slice(swap_in, prefix, suffix):
    report = check_slices(SwapRule(swap_in.__name__, 3, swap_in), [1, 2, 3], OrbitConfig())
    assert not report.verdict
    assert report.failure.startswith(prefix) and report.failure.endswith(suffix), report.failure
    assert [(s.token_a, s.token_b, s.ok) for s in report.slices] == [
        (0, 1, False), (0, 2, False), (1, 2, False)]
