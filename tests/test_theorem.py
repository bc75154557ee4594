"""The paper's theorem one axiom at a time: a rule that breaks exactly one
axiom fails exactly that check, and its orbits are not weighted
geometric-mean level sets.

Each rule here is a test-only black box, built as SwapRule(swap_in=...),
so the checks judge it one trial at a time through swap().
"""

import pytest

from ammorbit import OrbitConfig, SwapRule, TrialConfig, as_reserves, check_all, verify_level_sets

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
