"""Reserve-vector helpers: validity, log/exp maps, scaling, dominance."""

import math
import warnings

import numpy as np
import pytest

from ammorbit import (
    DomainError,
    MalformedInputError,
    NumericError,
    UsageError,
    as_reserves,
    as_weights,
    exp_map,
    is_valid,
    log_map,
    pareto_geq,
    rel_close,
    require_valid,
    scale,
    weighted_gmean,
)
from ammorbit.rand import trial_rng


class TestReserves:
    def test_accepts_lists_and_tuples(self):
        s = as_reserves([1.0, 2.0])
        assert s.shape == (2,)
        assert s.dtype == np.float64

    def test_result_is_read_only(self):
        s = as_reserves((1.0, 1.0))
        with pytest.raises(ValueError):
            s[0] = 3.0

    def test_rejects_nan_and_inf(self):
        with pytest.raises(MalformedInputError):
            as_reserves([1.0, float("nan")])
        with pytest.raises(MalformedInputError):
            as_reserves([float("inf"), 1.0])

    def test_rejects_short_vectors(self):
        with pytest.raises(MalformedInputError):
            as_reserves([1.0])
        with pytest.raises(MalformedInputError):
            as_reserves([])

    def test_rejects_non_numeric(self):
        with pytest.raises(MalformedInputError):
            as_reserves(["a", "b"])

    def test_allows_zero_and_negative_entries(self):
        # boundary states are representable, just not valid
        s = as_reserves([2.0, 0.0])
        assert not is_valid(s)
        assert not is_valid(as_reserves([-1.0, 1.0]))

    def test_validity_examples(self):
        assert is_valid(as_reserves([1.0, 1.0]))
        assert is_valid(as_reserves([1e-6, 1e6]))
        assert not is_valid(as_reserves([2.0, 0.0]))

    def test_require_valid_raises(self):
        with pytest.raises(DomainError):
            require_valid(as_reserves([1.0, 0.0]))


class TestLogExpMaps:
    def test_log_map_frozen_example(self):
        u = log_map(as_reserves([2.0, 0.5]))
        assert u[0] == math.log(2.0)
        assert u[1] == math.log(0.5)
        assert u[0] == 0.6931471805599453
        assert u[1] == -0.6931471805599453

    def test_log_map_rejects_boundary(self):
        with pytest.raises(DomainError):
            log_map(as_reserves([1.0, 0.0]))

    def test_round_trip_bijection(self):
        rng = trial_rng(11, 0)
        for _ in range(2000):
            s = np.exp(rng.uniform(-13.8, 13.8, size=3))
            back = exp_map(log_map(as_reserves(s)))
            assert np.all(np.abs(back - s) <= 1e-12 * s)

    def test_exp_map_overflow_raises(self):
        with pytest.raises(NumericError):
            exp_map(np.array([1000.0, 1000.0]))


class TestScaling:
    def test_scale_examples(self):
        out = scale(as_reserves([1.0, 2.0]), (2.0, 3.0))
        assert tuple(out) == (2.0, 6.0)
        out = scale(as_reserves([1.0, 1.0]), (0.5, 0.5))
        assert tuple(out) == (0.5, 0.5)

    def test_scale_rejects_nonpositive_factor(self):
        with pytest.raises(DomainError):
            scale(as_reserves([1.0, 1.0]), (0.0, 1.0))
        with pytest.raises(DomainError):
            scale(as_reserves([1.0, 1.0]), (-2.0, 1.0))

    def test_scale_rejects_dimension_mismatch(self):
        with pytest.raises(UsageError):
            scale(as_reserves([1.0, 1.0]), (2.0, 2.0, 2.0))

    def test_unit_change_is_translation_in_log_space(self):
        # log_map(scale(s, f)) == log_map(s) + log(f), coordinatewise
        rng = trial_rng(3, 0)
        for _ in range(2000):
            s = as_reserves(np.exp(rng.uniform(-13.8, 13.8, size=2)))
            f = np.exp(rng.uniform(-6.9, 6.9, size=2))
            lhs = log_map(scale(s, f))
            rhs = log_map(s) + np.log(f)
            assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(np.abs(lhs), 1.0))


class TestParetoOrder:
    def test_examples(self):
        a = as_reserves([2.0, 1.0])
        b = as_reserves([1.0, 1.0])
        assert pareto_geq(a, b)
        assert not pareto_geq(b, a)

    def test_reflexive(self):
        s = as_reserves([1.5, 2.5, 0.25])
        assert pareto_geq(s, s)

    def test_incomparable_pair(self):
        a = as_reserves([2.0, 0.5])
        b = as_reserves([1.0, 1.0])
        assert not pareto_geq(a, b)
        assert not pareto_geq(b, a)

    def test_comparison_is_exact(self):
        # no hidden tolerance: one ulp of dominance counts
        x = 1.0
        y = math.nextafter(1.0, 2.0)
        assert pareto_geq(as_reserves([y, 1.0]), as_reserves([x, 1.0]))
        assert not pareto_geq(as_reserves([x, 1.0]), as_reserves([y, 1.0]))


class TestWeights:
    def test_accepts_normalized_weights(self):
        w = as_weights([0.5, 0.3, 0.2])
        assert w.shape == (3,)
        assert abs(float(w.sum()) - 1.0) <= 1e-12

    def test_rejects_bad_sums_and_ranges(self):
        with pytest.raises(DomainError):
            as_weights([0.5, 0.6])
        with pytest.raises(DomainError):
            as_weights([1.0, 0.0])
        with pytest.raises(DomainError):
            as_weights([-0.2, 1.2])

    def test_rejects_short_vectors(self):
        with pytest.raises(MalformedInputError):
            as_weights([1.0])


class TestWeightedGmean:
    def test_frozen_examples(self):
        w = as_weights([0.5, 0.5])
        assert weighted_gmean(as_reserves([1.0, 1.0]), w) == 1.0
        assert abs(weighted_gmean(as_reserves([2.0, 0.5]), w) - 1.0) <= 1e-15
        assert abs(weighted_gmean(as_reserves([2.0, 2.0]), as_weights([0.3, 0.7])) - 2.0) <= 1e-15

    def test_rejects_boundary_state(self):
        with pytest.raises(DomainError):
            weighted_gmean(as_reserves([1.0, 0.0]), as_weights([0.5, 0.5]))

    def test_uniform_scaling_homogeneity(self):
        # scaling every reserve by a scales the mean by a
        w = as_weights([0.25, 0.75])
        rng = trial_rng(5, 0)
        for _ in range(1000):
            s = as_reserves(np.exp(rng.uniform(-6.9, 6.9, size=2)))
            a = float(np.exp(rng.uniform(-4.6, 4.6)))
            lhs = weighted_gmean(scale(s, (a, a)), w)
            rhs = a * weighted_gmean(s, w)
            assert rel_close(lhs, rhs, 1e-12)

    def test_anisotropic_scaling_law(self):
        # scaling token i by f_i multiplies the mean by prod f_i^w_i
        w = as_weights([0.8, 0.2])
        s = as_reserves([3.0, 7.0])
        f = (4.0, 0.25)
        lhs = weighted_gmean(scale(s, f), w)
        rhs = (4.0 ** 0.8) * (0.25 ** 0.2) * weighted_gmean(s, w)
        assert rel_close(lhs, rhs, 1e-12)


class TestRelClose:
    def test_symmetric_and_scale_aware(self):
        assert rel_close(1.0, 1.0 + 1e-13, 1e-12)
        assert rel_close(1e300, 1e300 * (1 + 1e-13), 1e-12)
        assert not rel_close(1.0, 1.1, 1e-12)

    def test_zero_matches_only_zero(self):
        assert rel_close(0.0, 0.0, 1e-12)
        assert not rel_close(0.0, 1e-300, 1e-12)

    @pytest.mark.parametrize("a, b, tol, close", [
        (1.0, math.inf, 1e-9, False),
        ([1.0, 2.0], [1.0, math.inf], 1e-9, False),
        (math.inf, math.inf, 1e-9, True),
        (-math.inf, math.inf, 1e-9, False),
        ([1.0, -math.inf], [1.0, -math.inf], 0.0, True),
        (math.nan, math.nan, 1e-9, False),
    ], ids=str)
    def test_an_infinity_is_close_only_to_itself(self, a, b, tol, close):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rel_close(a, b, tol) is close

    @pytest.mark.parametrize("a, b, close", [
        (0.0, 0.0, True),
        (1.0, 2.0, True),
        (0.0, 1e-300, True),
        (1e308, -1e308, True),
        (1.0, math.inf, False),
        (math.inf, math.inf, True),
        (1.0, math.nan, False),
    ], ids=str)
    def test_an_infinite_tolerance_makes_every_finite_pair_close(self, a, b, close):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rel_close(a, b, math.inf) is close
