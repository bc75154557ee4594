"""Fee-bearing trades: pricing vs banking split, order sensitivity, and
invariant growth."""

import math

import numpy as np
import pytest

from ammorbit import (
    ConfigError,
    UsageError,
    as_reserves,
    cli,
    constant_sum,
    decompose_check,
    drift_to_csv,
    fee_drift,
    fee_swap,
    parse_rule,
    product,
    scaling_factor,
    swap,
    weighted_gmean,
    weighted_product,
    wgm,
)
from ammorbit.fees import _fold
from ammorbit.rand import log_uniform, trial_rng


class TestFeeSwap:
    def test_frozen_thirty_bps_trade(self):
        # price 0.997 of the input, but bank the full unit
        out = fee_swap(product(), as_reserves([1.0, 1.0]), 0, 1, 1.0, 0.003)
        assert out[0] == 2.0
        paid = 1.0 - out[1]
        assert abs(paid - 0.997 / 1.997) <= 1e-12 * paid

    def test_zero_fee_is_plain_swap(self):
        s = as_reserves([3.0, 5.0])
        a = fee_swap(wgm(0.7), s, 0, 1, 0.25, 0.0)
        b = swap(wgm(0.7), s, 0, 1, 0.25)
        assert a[0] == b[0] and a[1] == b[1]

    def test_zero_amount_is_identity(self):
        s = as_reserves([3.0, 5.0])
        out = fee_swap(product(), s, 0, 1, 0.0, 0.003)
        assert out[0] == s[0] and out[1] == s[1]

    def test_fee_reduces_payout(self):
        s = as_reserves([10.0, 10.0])
        free = swap(product(), s, 0, 1, 1.0)
        taxed = fee_swap(product(), s, 0, 1, 1.0, 0.01)
        assert taxed[1] > free[1]          # pool keeps more Y
        assert taxed[0] == free[0]         # both bank the full input

    def test_rejects_bad_fee(self):
        s = as_reserves([1.0, 1.0])
        for bad in (1.0, 1.5, -0.003, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                fee_swap(product(), s, 0, 1, 1.0, bad)


class TestFeePolicy:
    # A fee is any real number in [0, 1), numpy's included, but no bool.
    def test_numpy_fee_is_its_float_value(self):
        s = as_reserves([3.0, 5.0])
        fee = np.float32(0.003)
        assert fee_swap(product(), s, 0, 1, 1.0, fee).tobytes() == fee_swap(
            product(), s, 0, 1, 1.0, float(fee)).tobytes()
        drift = fee_drift(product(), s, [(0, 1, 1.0), (1, 0, 0.5)], fee)
        assert drift.fee == float(fee)
        plain = fee_drift(product(), s, [(0, 1, 1.0), (1, 0, 0.5)], float(fee))
        assert np.stack(drift.states).tobytes() == np.stack(plain.states).tobytes()

    @pytest.mark.parametrize("bad", [False, True, "0.003", None])
    def test_bool_and_non_number_fees_are_refused(self, bad):
        with pytest.raises(ConfigError, match="^fee must be a real number"):
            fee_swap(product(), [1.0, 1.0], 0, 1, 1.0, bad)
        with pytest.raises(ConfigError, match="^fee must be a real number"):
            fee_drift(product(), [1.0, 1.0], [(0, 1, 1.0)], bad)


class TestDecomposition:
    def test_frozen_example(self):
        d = decompose_check(product(), as_reserves([1.0, 1.0]), 0, 1, 1.0, 0.003)
        want = 0.997 / 1.997
        assert abs(d.out_direct - want) <= 1e-12 * want
        assert abs(d.out_composed - want) <= 1e-12 * want
        assert abs(d.out_reversed - 0.4985) <= 1e-15
        assert abs(d.order_gap - (want - 0.997 / 2.0)) <= 1e-15
        assert d.match_ok and d.order_ok and d.passed

    def test_bookkeeping_equals_swap_then_inject(self):
        rng = trial_rng(21, 0)
        for _ in range(500):
            s = as_reserves(log_uniform(rng, 1e-2, 1e2, 2))
            dx = float(log_uniform(rng, 1e-3, 1.0) * s[0])
            fee = float(rng.uniform(1e-4, 0.1))
            d = decompose_check(product(), s, 0, 1, dx, fee)
            assert d.match_ok
            assert np.all(np.abs(d.direct - d.composed) <= 1e-12 * np.abs(d.direct))

    def test_injection_order_strictly_matters(self):
        rng = trial_rng(22, 0)
        for _ in range(500):
            s = as_reserves(log_uniform(rng, 1e-2, 1e2, 2))
            dx = float(log_uniform(rng, 1e-3, 1.0) * s[0])
            fee = float(rng.uniform(1e-4, 0.1))
            d = decompose_check(wgm(0.4), s, 0, 1, dx, fee)
            assert d.order_gap > 0.0
            assert d.order_ok and d.passed

    def test_zero_fee_collapses_all_routes(self):
        d = decompose_check(product(), as_reserves([1.0, 1.0]), 0, 1, 1.0, 0.0)
        assert d.order_gap == 0.0
        assert tuple(d.direct) == tuple(d.composed) == tuple(d.reversed_order)
        assert d.passed


class TestFeeDrift:
    def test_frozen_single_trade(self):
        series = fee_drift(product(), as_reserves([1.0, 1.0]), [(0, 1, 1.0)], 0.003)
        assert series.invariant_values[0] == 1.0
        post = fee_swap(product(), as_reserves([1.0, 1.0]), 0, 1, 1.0, 0.003)
        want = math.sqrt(post[0] * post[1])
        assert abs(series.invariant_values[1] - want) <= 1e-15
        assert abs(series.invariant_values[1] - 1.0007508448060736) <= 1e-15

    def test_series_includes_start_state(self):
        series = fee_drift(product(), as_reserves([2.0, 2.0]), [], 0.003)
        assert len(series.states) == 1
        assert series.invariant_values == (2.0,)

    def test_strictly_increasing_under_fees(self):
        rng = trial_rng(23, 0)
        state = as_reserves([100.0, 100.0])
        trades = []
        for _ in range(100):
            i = int(rng.integers(2))
            frac = float(log_uniform(rng, 1e-3, 0.5))
            trades.append((i, 1 - i, frac * float(state[i])))
            state = fee_swap(product(), state, i, 1 - i, trades[-1][2], 0.003)
        series = fee_drift(product(), as_reserves([100.0, 100.0]), trades, 0.003)
        vals = series.invariant_values
        assert len(vals) == 101
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_constant_without_fees(self):
        rng = trial_rng(24, 0)
        state = as_reserves([100.0, 100.0])
        trades = []
        for _ in range(100):
            i = int(rng.integers(2))
            frac = float(log_uniform(rng, 1e-3, 0.5))
            trades.append((i, 1 - i, frac * float(state[i])))
            state = swap(product(), state, i, 1 - i, trades[-1][2])
        vals = fee_drift(product(), as_reserves([100.0, 100.0]), trades, 0.0).invariant_values
        assert all(abs(v - vals[0]) <= 1e-12 * vals[0] for v in vals)

    def test_multi_token_drift(self):
        rule = weighted_product([0.5, 0.3, 0.2])
        series = fee_drift(rule, as_reserves([1.0, 1.0, 1.0]),
                           [(0, 1, 0.5), (2, 0, 0.25)], 0.01)
        vals = series.invariant_values
        assert vals[0] == 1.0
        assert vals[1] > vals[0] and vals[2] > vals[1]

    def test_requires_tracked_invariant(self):
        with pytest.raises(UsageError):
            fee_drift(constant_sum(), as_reserves([1.0, 1.0]), [], 0.003)

    @pytest.mark.parametrize("rule", ["product", "wgm:0.3", "wprod:0.2,0.3,0.5"])
    def test_invariant_values_are_weighted_gmean_bit_for_bit(self, rule):
        # The fold logs the whole walk at once; every value must still be
        # what weighted_gmean computes from that one state.
        parsed = parse_rule(rule)
        series, _ = _fold(parsed, [1.0] * parsed.dimension,
                          cli._random_trades(7, parsed.dimension, 5000), 0.003, relative=True)
        assert len(series.invariant_values) == 5001
        for state, value in zip(series.states, series.invariant_values):
            assert value.hex() == weighted_gmean(state, parsed.weights).hex()


class TestScalingFactor:
    def test_frozen_values(self):
        assert scaling_factor([0.5, 0.5], [3.0, 3.0]) == pytest.approx(3.0, rel=1e-15)
        assert scaling_factor([0.5, 0.5], [4.0, 1.0]) == pytest.approx(2.0, rel=1e-15)
        assert scaling_factor([0.5, 0.3, 0.2], [1.0, 1.0, 1.0]) == 1.0

    def test_matches_invariant_response(self):
        rng = trial_rng(25, 0)
        w = [0.5, 0.3, 0.2]
        for _ in range(300):
            s = as_reserves(log_uniform(rng, 1e-2, 1e2, 3))
            f = log_uniform(rng, 1e-2, 1e2, 3)
            lhs = weighted_gmean(s * f, w)
            rhs = scaling_factor(w, f) * weighted_gmean(s, w)
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigError):
            scaling_factor([0.5, 0.5], [0.0, 2.0])
        with pytest.raises(UsageError):
            scaling_factor([0.5, 0.5], [2.0, 2.0, 2.0])


class TestDriftCsv:
    def test_two_token_header_and_values(self):
        series = fee_drift(product(), as_reserves([1.0, 1.0]), [(0, 1, 1.0)], 0.003)
        lines = drift_to_csv(series).strip().split("\n")
        assert lines[0] == "step,x,y,phi"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) == 1.0
        assert float(lines[2].split(",")[3]) == series.invariant_values[1]

    def test_multi_token_header(self):
        rule = weighted_product([0.5, 0.3, 0.2])
        series = fee_drift(rule, as_reserves([1.0, 1.0, 1.0]), [], 0.01)
        assert drift_to_csv(series).split("\n")[0] == "step,x1,x2,x3,phi"
