"""Swap engine and built-in rules.

The closed-form swap outputs are cross-checked against an independent
one-dimensional root solve of the invariant equation, so a bug in the
log-space algebra cannot hide behind its own test.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from ammorbit import (
    ChainError,
    ConfigError,
    DomainError,
    NumericError,
    RuleSpec,
    SamplingError,
    SwapRule,
    UsageError,
    as_reserves,
    chain,
    constant_sum,
    make_rule,
    out_amount,
    parse_rule,
    product,
    sample_orbit,
    scale,
    swap,
    weighted_gmean,
    weighted_product,
    wgm,
)
from ammorbit.rand import log_uniform, trial_rng

GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def solve_output_side(rule, s, i, j, amount):
    """Root-solve the post-trade balance of token j directly.

    Independent oracle: find t with invariant(s with s_i+amount, t at j)
    equal to invariant(s), via bracketed bisection rather than the
    engine's closed form.
    """
    s = np.asarray(s, dtype=float)
    target = weighted_gmean(s, rule.weights)

    def gap(t):
        trial = s.copy()
        trial[i] = s[i] + amount
        trial[j] = t
        return weighted_gmean(trial, rule.weights) - target

    lo = s[j] * 1e-18
    hi = s[j]
    return brentq(gap, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=300)


class TestFrozenSwaps:
    def test_half_weight_unit_trade(self):
        rule = wgm(0.5)
        out = swap(rule, as_reserves([1.0, 1.0]), 0, 1, 1.0)
        assert out[0] == 2.0
        assert out[1] == 0.5

    def test_skewed_weight_unit_trade(self):
        # w=0.8: adding 1 X to (1,1) drains Y to 2^-4
        rule = wgm(0.8)
        out = swap(rule, as_reserves([1.0, 1.0]), 0, 1, 1.0)
        assert out[0] == 2.0
        assert out[1] == pytest.approx(0.0625, rel=1e-15)

    def test_reverse_trade_returns_home(self):
        rule = wgm(0.5)
        out = swap(rule, as_reserves([2.0, 0.5]), 1, 0, 0.5)
        assert out[0] == 1.0
        assert out[1] == 1.0

    def test_three_token_trade_leaves_spectator_untouched(self):
        rule = weighted_product([0.5, 0.3, 0.2])
        out = swap(rule, as_reserves([1.0, 1.0, 1.0]), 0, 1, 1.0)
        assert out[0] == 2.0
        assert out[1] == pytest.approx(2.0 ** (-5.0 / 3.0), rel=1e-15)
        assert out[2] == 1.0

    def test_constant_sum_trade(self):
        out = swap(constant_sum(), as_reserves([1.0, 1.0]), 0, 1, 1.0)
        assert out[0] == 2.0
        assert out[1] == 0.0

    def test_out_amount_examples(self):
        assert out_amount(wgm(0.5), as_reserves([1.0, 1.0]), 0, 1, 1.0) == 0.5
        assert out_amount(wgm(0.8), as_reserves([1.0, 1.0]), 0, 1, 1.0) == 0.9375
        assert out_amount(wgm(0.5), as_reserves([1.0, 1.0]), 0, 1, 0.0) == 0.0


class TestSolverOracle:
    @pytest.mark.parametrize("w", [0.2, 0.5, 0.8])
    def test_two_token_outputs_match_root_solve(self, w):
        rule = wgm(w)
        rng = trial_rng(101, 0)
        for _ in range(300):
            s = as_reserves(log_uniform(rng, 1e-4, 1e4, 2))
            i, j = (0, 1) if rng.integers(2) == 0 else (1, 0)
            dx = float(log_uniform(rng, 1e-3, 1.0) * s[i])
            got = swap(rule, s, i, j, dx)[j]
            want = solve_output_side(rule, s, i, j, dx)
            assert abs(got - want) <= 1e-9 * max(got, want)

    def test_multi_token_outputs_match_root_solve(self):
        rule = weighted_product([0.5, 0.3, 0.2])
        rng = trial_rng(102, 0)
        for _ in range(200):
            s = as_reserves(log_uniform(rng, 1e-3, 1e3, 3))
            i = int(rng.integers(3))
            j = int((i + 1 + rng.integers(2)) % 3)
            dx = float(log_uniform(rng, 1e-3, 1.0) * s[i])
            got = swap(rule, s, i, j, dx)[j]
            want = solve_output_side(rule, s, i, j, dx)
            assert abs(got - want) <= 1e-9 * max(got, want)


class TestSwapProperties:
    def test_zero_amount_is_identity(self):
        for rule in (wgm(0.3), product(), constant_sum()):
            s = as_reserves([3.0, 7.0])
            out = swap(rule, s, 0, 1, 0.0)
            assert out[0] == s[0] and out[1] == s[1]

    @pytest.mark.parametrize("w", GRID)
    def test_invariant_preserved(self, w):
        rule = wgm(w)
        rng = trial_rng(77, 0)
        s = as_reserves([1.0, 1.0])
        phi0 = weighted_gmean(s, rule.weights)
        for _ in range(200):
            i = int(rng.integers(2))
            j = 1 - i
            dx = float(log_uniform(rng, 1e-3, 1.0) * s[i])
            s = swap(rule, s, i, j, dx)
            phi = weighted_gmean(s, rule.weights)
            assert abs(phi - phi0) <= 1e-12 * phi0 * 200

    def test_output_monotone_in_amount(self):
        rule = wgm(0.5)
        s = as_reserves([5.0, 5.0])
        outs = [out_amount(rule, s, 0, 1, dx) for dx in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(a < b for a, b in zip(outs, outs[1:]))

    def test_output_bounded_by_reserve(self):
        rule = wgm(0.5)
        s = as_reserves([1.0, 4.0])
        # even a huge trade cannot drain more than the j-side reserve
        assert out_amount(rule, s, 0, 1, 1e6) < 4.0

    def test_unit_change_commutes_with_swap(self):
        # rescale-then-trade equals trade-then-rescale (amount in new units)
        rng = trial_rng(55, 0)
        rule = wgm(0.7)
        for _ in range(10_000):
            s = as_reserves(log_uniform(rng, 1e-4, 1e4, 2))
            f = log_uniform(rng, 1e-3, 1e3, 2)
            i = int(rng.integers(2))
            j = 1 - i
            dx = float(log_uniform(rng, 1e-3, 1.0) * s[i])
            left = swap(rule, scale(s, f), i, j, f[i] * dx)
            right = scale(swap(rule, s, i, j, dx), f)
            assert np.all(np.abs(left - right) <= 1e-12 * np.abs(right))

    def test_round_trip_closure(self):
        rule = wgm(0.6)
        rng = trial_rng(56, 0)
        for _ in range(1000):
            s = as_reserves(log_uniform(rng, 1e-2, 1e2, 2))
            dx = float(log_uniform(rng, 1e-3, 1.0) * s[0])
            mid = swap(rule, s, 0, 1, dx)
            back = swap(rule, mid, 1, 0, float(s[1] - mid[1]))
            assert np.all(np.abs(back - s) <= 1e-9 * np.abs(s))


class TestSwapValidation:
    def setup_method(self):
        self.rule = wgm(0.5)
        self.s = as_reserves([1.0, 1.0])

    def test_negative_amount(self):
        with pytest.raises(UsageError):
            swap(self.rule, self.s, 0, 1, -0.5)

    def test_non_finite_amount(self):
        with pytest.raises(UsageError):
            swap(self.rule, self.s, 0, 1, float("nan"))

    def test_same_token(self):
        with pytest.raises(UsageError):
            swap(self.rule, self.s, 1, 1, 0.5)

    def test_index_out_of_range(self):
        with pytest.raises(UsageError):
            swap(self.rule, self.s, 0, 2, 0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            swap(self.rule, as_reserves([1.0, 1.0, 1.0]), 0, 1, 0.5)

    def test_invalid_state(self):
        with pytest.raises(DomainError):
            swap(self.rule, as_reserves([1.0, 0.0]), 0, 1, 0.5)

    def test_rule_crash_is_wrapped(self):
        def boom(s, i, j, amount):
            raise RuntimeError("internal")

        broken = SwapRule(name="broken", dimension=2, swap_in=boom)
        with pytest.raises(NumericError):
            swap(broken, self.s, 0, 1, 0.5)

    def test_rule_returning_bad_shape_is_rejected(self):
        flat = SwapRule(name="flat", dimension=2,
                        swap_in=lambda s, i, j, a: np.array([1.0, 2.0, 3.0]))
        with pytest.raises(NumericError):
            swap(flat, self.s, 0, 1, 0.5)

    def test_non_integer_token_index_rejected(self):
        for i, j in ((0.0, 1), (True, 0), (0, False), ("0", 1)):
            with pytest.raises(UsageError):
                swap(self.rule, [1.0, 2.0], i, j, 0.5)

    def test_non_real_amount_rejected(self):
        for amount in (True, "0.5", 1j, None):
            with pytest.raises(UsageError):
                swap(self.rule, self.s, 0, 1, amount)

    def test_numpy_scalars_accepted(self):
        got = swap(self.rule, self.s, np.int64(0), np.int32(1), np.float32(0.5))
        assert tuple(got) == tuple(swap(self.rule, self.s, 0, 1, 0.5))


class TestChains:
    def test_round_trip_chain_exact(self):
        rule = wgm(0.5)
        traj = chain(rule, as_reserves([1.0, 1.0]), [(0, 1, 1.0), (1, 0, 0.5)])
        assert len(traj.states) == 3
        assert len(traj.moves) == 2
        assert tuple(traj.states[1]) == (2.0, 0.5)
        assert tuple(traj.states[2]) == (1.0, 1.0)

    def test_chain_failure_carries_partial_trajectory(self):
        # the offending move itself is rejected: every stored state stays valid
        with pytest.raises(ChainError) as err:
            chain(constant_sum(), as_reserves([1.0, 1.0]),
                  [(0, 1, 0.25), (0, 1, 5.0), (0, 1, 0.1)])
        assert err.value.step == 1
        assert "step 2" in str(err.value)
        partial = err.value.partial
        assert len(partial.states) == 2
        assert len(partial.moves) == 1
        assert tuple(partial.states[1]) == (1.25, 0.75)

    def test_empty_chain(self):
        traj = chain(wgm(0.5), as_reserves([2.0, 3.0]), [])
        assert len(traj.states) == 1
        assert len(traj.moves) == 0


def test_custom_domain_ends_chain_and_orbit_walks():
    # A black-box rule whose domain is narrower than the positive orthant:
    # a walk ends at the first output the domain rejects, and keeps only
    # the states before it.
    capped = SwapRule(name="capped", dimension=2, swap_in=wgm(0.5).swap_in,
                      domain=lambda s: bool(np.all(s > 0.0) and s[0] < 3.0))
    with pytest.raises(ChainError) as err:
        chain(capped, [1.0, 1.0], [(0, 1, 1.0), (0, 1, 2.0), (1, 0, 0.1)])
    assert err.value.step == 1
    assert tuple(err.value.partial.states[-1]) == (2.0, 0.5)
    assert err.value.partial.moves == ((0, 1, 1.0),)

    free = sample_orbit(wgm(0.5), [1.0, 1.0], count=64, seed=3)
    exit_step = next(k for k, s in enumerate(free.states) if s[0] >= 3.0)
    with pytest.raises(SamplingError) as err:
        sample_orbit(capped, [1.0, 1.0], count=64, seed=3)
    partial = err.value.partial
    assert len(partial.states) == exit_step
    assert all(np.array_equal(a, b) for a, b in zip(partial.states, free.states))


class TestRuleConstruction:
    def test_names(self):
        assert wgm(0.5).name == "wgm:0.5"
        assert product().name == "product"
        assert constant_sum().name == "csum"
        assert weighted_product([0.5, 0.3, 0.2]).name == "wprod:0.5,0.3,0.2"

    def test_weights_exposed(self):
        assert tuple(wgm(0.25).weights) == (0.25, 0.75)
        assert tuple(product().weights) == (0.5, 0.5)
        assert constant_sum().weights is None

    def test_product_matches_half_weight(self):
        s = as_reserves([3.0, 11.0])
        a = swap(product(), s, 0, 1, 2.0)
        b = swap(wgm(0.5), s, 0, 1, 2.0)
        assert a[0] == b[0] and a[1] == b[1]

    def test_wgm_rejects_out_of_range_weight(self):
        for bad in (0.0, 1.0, 1.2, -0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                wgm(bad)

    def test_wgm_refuses_a_weight_whose_complement_rounds_to_one(self):
        # 1 - w rounds to 1.0 for w <= 2**-54; the refusal names the weight
        # typed, not the pair (w, 1.0) that weighted_product would refuse.
        for bad in (1e-17, 2.0**-54, 1e-300, 5e-324):
            with pytest.raises(ConfigError) as info:
                wgm(bad)
            assert type(info.value) is ConfigError
            assert str(info.value) == f"wgm weight {bad!r} is too small: 1 - w rounds to 1.0"
        assert tuple(wgm(2.0**-53).weights) == (2.0**-53, 1.0 - 2.0**-53)

    def test_wgm_takes_numpy_reals_and_refuses_bools(self):
        assert wgm(np.float32(0.25)).name == "wgm:0.25"
        assert wgm(np.float64(0.25)).name == "wgm:0.25"
        for bad in (True, False, "0.25", None):
            with pytest.raises(ConfigError, match="^wgm weight must be a real number"):
                wgm(bad)

    def test_weighted_product_rejects_bad_weights(self):
        with pytest.raises((ConfigError, DomainError)):
            weighted_product([0.5, 0.6])


class TestRuleParsing:
    def test_grammar_round_trip(self):
        for text in ("wgm:0.5", "product", "csum", "wprod:0.5,0.3,0.2"):
            assert parse_rule(text).name == text

    def test_whitespace_tolerated(self):
        assert parse_rule(" wgm:0.5 ").name == "wgm:0.5"

    def test_rejects_unknown_and_malformed(self):
        for bad in ("bogus", "wgm:", "wgm:abc", "wgm:1.5", "wprod:0.5",
                    "wprod:0.5,abc", "", "wgm"):
            with pytest.raises(ConfigError):
                parse_rule(bad)

    def test_make_rule_matches_parse(self):
        spec = RuleSpec(kind="wgm", weight=0.3)
        assert make_rule(spec).name == parse_rule("wgm:0.3").name
        spec = RuleSpec(kind="wprod", weights=(0.5, 0.3, 0.2))
        assert make_rule(spec).name == "wprod:0.5,0.3,0.2"

    def test_make_rule_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_rule(RuleSpec(kind="mystery"))

    def test_make_rule_maps_bad_weights_to_config_error(self):
        for spec in (RuleSpec("wprod", weights=(math.nan, 1.0)),
                     RuleSpec("wprod", weights=(0.5, 0.6)),
                     RuleSpec("wgm", weight=math.inf)):
            with pytest.raises(ConfigError):
                make_rule(spec)
