"""Orbit sampling and numerical recovery of the invariant geometry.

Log clouds from conforming rules must collapse onto lines (two tokens)
or hyperplanes (more), and the fitted coefficients must reproduce the
generating weights far below the verification tolerance.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from ammorbit import (
    ClassificationError,
    ConfigError,
    DegenerateSampleError,
    DomainError,
    OrbitConfig,
    OrbitSample,
    SamplingError,
    SwapRule,
    UsageError,
    VerticalFitError,
    as_reserves,
    check_equal_weights,
    check_slices,
    classification_to_dict,
    constant_sum,
    fit_log_hyperplane,
    fit_log_line,
    orbit_to_csv,
    sample_orbit,
    verify_level_sets,
    weight_from_slope,
    weighted_gmean,
    weighted_product,
    wgm,
)

LN2 = math.log(2.0)


def synthetic_orbit(rule_name: str, log_points: np.ndarray) -> OrbitSample:
    pts = np.asarray(log_points, dtype=float)
    states = np.exp(pts)
    return OrbitSample(rule=rule_name, start=tuple(states[0]), states=states,
                       log_points=pts, seed=0)


class TestOrbitConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            OrbitConfig(samples=0)
        with pytest.raises(ConfigError):
            OrbitConfig(tolerance=-1.0)
        with pytest.raises(ConfigError):
            OrbitConfig(amount_range=(1.0, 0.1))

    @pytest.mark.parametrize("field", ["seed", "samples"])
    @pytest.mark.parametrize("value", [10.5, 16.0, True, "16", None])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ConfigError):
            OrbitConfig(**{field: value})

    @pytest.mark.parametrize("kwargs", [
        {"amount_range": (1e-3,)},
        {"amount_range": ("a", 1.0)},
        {"amount_range": None},
        {"tolerance": "x"},
    ], ids=repr)
    def test_rejects_malformed_range_and_tolerance(self, kwargs):
        with pytest.raises(ConfigError):
            OrbitConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        starts = [as_reserves([1.0, 1.0]), as_reserves([0.5, 3.0])]
        got = verify_level_sets(wgm(0.3), starts, OrbitConfig(seed=np.uint64(4),
                                                              samples=np.int64(16)))
        want = verify_level_sets(wgm(0.3), starts, OrbitConfig(seed=4, samples=16))
        assert json.dumps(classification_to_dict(got)) == \
            json.dumps(classification_to_dict(want))


class TestSampleOrbit:
    def test_cloud_stays_on_one_level(self):
        rule = wgm(0.7)
        sample = sample_orbit(rule, as_reserves([2.0, 3.0]), count=64, seed=9)
        assert len(sample.states) == 65
        assert sample.log_points.shape == (65, 2)
        phi = np.array([weighted_gmean(s, rule.weights) for s in sample.states])
        assert np.all(np.abs(phi - phi[0]) <= 1e-12 * phi[0])
        assert np.array_equal(sample.log_points, np.log(np.stack(sample.states)))

    def test_walk_alternates_input_token(self):
        sample = sample_orbit(wgm(0.5), as_reserves([1.0, 1.0]), count=8, seed=0)
        states = np.stack(sample.states)
        assert states[1, 0] > states[0, 0]    # first move buys with token X
        assert states[2, 1] > states[1, 1]

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(UsageError):
            sample_orbit(wgm(0.5), as_reserves([1.0, 1.0]), count=3, seed=0)

    def test_boundary_hit_reports_partial(self):
        with pytest.raises(SamplingError) as err:
            sample_orbit(constant_sum(), as_reserves([1.0, 1.0]), count=64, seed=0)
        partial = err.value.partial
        assert partial is not None
        assert len(partial.states) >= 1
        assert np.all(np.stack(partial.states) > 0.0)

    def test_deterministic_in_seed(self):
        a = sample_orbit(wgm(0.4), as_reserves([1.0, 2.0]), count=16, seed=5)
        b = sample_orbit(wgm(0.4), as_reserves([1.0, 2.0]), count=16, seed=5)
        assert np.array_equal(np.stack(a.states), np.stack(b.states))

    def test_multi_token_walk_covers_all_pairs(self):
        rule = weighted_product([0.5, 0.3, 0.2])
        sample = sample_orbit(rule, as_reserves([1.0, 1.0, 1.0]), count=24, seed=2)
        states = np.stack(sample.states)
        assert states.shape == (25, 3)
        moved = np.abs(np.diff(states, axis=0)) > 0
        assert np.all(moved.any(axis=0))


class TestLineFit:
    def test_frozen_antidiagonal(self):
        sample = synthetic_orbit("wgm:0.5",
                                 [[0.0, 0.0], [LN2, -LN2], [-LN2, LN2]])
        fit = fit_log_line(sample)
        assert abs(fit.slope + 1.0) <= 1e-12
        assert abs(fit.intercept) <= 1e-12
        assert fit.residual <= 1e-12
        assert abs(fit.slope_magnitude - 1.0) <= 1e-12

    def test_frozen_steep_line(self):
        sample = synthetic_orbit("wgm:0.8", [[0.0, 0.0], [1.0, -4.0], [-0.5, 2.0]])
        fit = fit_log_line(sample)
        assert abs(fit.slope + 4.0) <= 1e-12

    def test_vertical_cloud_rejected(self):
        sample = synthetic_orbit("x", [[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        with pytest.raises(VerticalFitError):
            fit_log_line(sample)

    def test_coincident_cloud_rejected(self):
        sample = synthetic_orbit("x", [[0.3, 0.4]] * 8)
        with pytest.raises(DegenerateSampleError):
            fit_log_line(sample)

    def test_large_orbit_fit_stays_small(self):
        # The spread check scans the cloud in row blocks rather than
        # building the full m x m x 2 distance tensor (67 MB here).
        sample = sample_orbit(wgm(0.8), as_reserves([1.0, 1.0]), count=2048, seed=7)
        tracemalloc.start()
        try:
            fit_log_line(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_residual_measures_orthogonal_scatter(self):
        sample = synthetic_orbit("x", [[0.0, 0.01], [1.0, -1.0], [2.0, -2.0],
                                       [-1.0, 1.0]])
        fit = fit_log_line(sample)
        assert 1e-4 < fit.residual < 0.02

    @pytest.mark.parametrize("w", [0.2, 0.5, 0.8])
    def test_rule_orbit_slope_matches_weight_ratio(self, w):
        rule = wgm(w)
        sample = sample_orbit(rule, as_reserves([1.0, 1.0]), count=64, seed=3)
        fit = fit_log_line(sample)
        assert abs(fit.slope + w / (1.0 - w)) <= 1e-9


class TestWeightFromSlope:
    def test_frozen_values(self):
        assert abs(weight_from_slope(1.0) - 0.5) <= 1e-15
        assert abs(weight_from_slope(4.0) - 0.8) <= 1e-15
        assert abs(weight_from_slope(0.25) - 0.2) <= 1e-15

    def test_rejects_degenerate_magnitudes(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(DomainError):
                weight_from_slope(bad)


class TestAntiDiagonal:
    @pytest.mark.parametrize("w", [0.1, 0.5, 0.9])
    def test_unit_orbit_log_coordinates_oppose(self, w):
        # from (1,1) every reachable log point satisfies u*v <= 0
        sample = sample_orbit(wgm(w), as_reserves([1.0, 1.0]), count=64, seed=1)
        products = sample.log_points[:, 0] * sample.log_points[:, 1]
        assert np.all(products <= 1e-12)


class TestVerifyLevelSets:
    @pytest.mark.parametrize("w", [0.2, 0.5, 0.8])
    def test_recovers_grid_weight(self, w):
        starts = [as_reserves([1.0, 1.0]), as_reserves([3.0, 0.7]),
                  as_reserves([0.2, 5.0])]
        report = verify_level_sets(wgm(w), starts, OrbitConfig(seed=4, samples=64))
        assert report.verdict
        assert abs(report.weight_estimate - w) <= 1e-9
        assert report.residual_max <= 1e-9
        assert report.slope_spread <= 1e-9
        assert report.failure is None

    def test_requires_two_starts(self):
        with pytest.raises(UsageError):
            verify_level_sets(wgm(0.5), [as_reserves([1.0, 1.0])], OrbitConfig())

    def test_rejects_multi_token_rule(self):
        rule = weighted_product([0.5, 0.3, 0.2])
        with pytest.raises(UsageError):
            verify_level_sets(rule, [as_reserves([1.0, 1.0, 1.0])] * 2, OrbitConfig())

    def test_constant_sum_fails_with_named_orbit(self):
        starts = [as_reserves([1.0, 1.0]), as_reserves([2.0, 2.0])]
        report = verify_level_sets(constant_sum(), starts, OrbitConfig(seed=0, samples=16))
        assert not report.verdict
        assert report.failure is not None
        assert "orbit 0" in report.failure

    def test_same_level_starts_warn(self):
        starts = [as_reserves([1.0, 1.0]), as_reserves([2.0, 0.5])]
        report = verify_level_sets(wgm(0.5), starts, OrbitConfig(seed=0, samples=16))
        assert report.verdict
        assert any("same orbit" in w for w in report.warnings)

    def test_honours_amount_range(self):
        # A rule that crashes on trades above 0.6 of the input reserve
        # samples cleanly only if the configured amounts stay below that.
        base = wgm(0.5)

        def timid(s, i, j, amount):
            if amount > 0.6 * s[i]:
                raise ValueError("trade too large")
            return base.swap_in(s, i, j, amount)

        rule = SwapRule(name="timid", dimension=2, swap_in=timid)
        starts = [as_reserves([1.0, 1.0]), as_reserves([2.0, 3.0])]
        report = verify_level_sets(rule, starts,
                                   OrbitConfig(seed=1, samples=64, amount_range=(1e-3, 0.5)))
        assert report.verdict
        report = verify_level_sets(rule, starts, OrbitConfig(seed=1, samples=64))
        assert not report.verdict
        assert "trade too large" in report.failure

    def test_partial_report_is_strict_json(self):
        # Orbit 0 fits; orbit 1 crashes, so the report holds one partial
        # orbit whose invariant fields were never computed.
        base = wgm(0.5)

        def fragile(s, i, j, amount):
            if s[0] > 50.0:
                raise ValueError("out of range")
            return base.swap_in(s, i, j, amount)

        rule = SwapRule(name="fragile", dimension=2, swap_in=fragile)
        starts = [as_reserves([1.0, 1.0]), as_reserves([60.0, 1.0])]
        d = classification_to_dict(verify_level_sets(rule, starts, OrbitConfig(samples=16)))
        assert d["verdict"] is False and "orbit 1" in d["failure"]
        assert len(d["orbits"]) == 1
        assert d["orbits"][0]["invariant_value"] is None
        assert d["orbits"][0]["invariant_spread"] is None
        assert json.loads(json.dumps(d, allow_nan=False)) == d

    def test_report_serializes(self):
        starts = [as_reserves([1.0, 1.0]), as_reserves([2.0, 3.0])]
        report = verify_level_sets(wgm(0.3), starts, OrbitConfig(seed=1, samples=16))
        d = classification_to_dict(report)
        json.dumps(d)
        assert d["w_hat"] == report.weight_estimate
        assert d["verdict"] is True


class TestHyperplaneFit:
    def test_synthetic_plane_recovered_exactly(self):
        # points drawn from 0.5 u0 + 0.3 u1 + 0.2 u2 = 0.1
        rng = np.random.default_rng(12)
        d1 = np.array([0.3, -0.5, 0.0])
        d2 = np.array([0.2, 0.0, -0.5])
        coeffs = rng.uniform(-2, 2, size=(40, 2))
        pts = 0.1 * np.array([1.0, 1.0, 1.0]) + coeffs @ np.vstack([d1, d2])
        sample = synthetic_orbit("wprod:0.5,0.3,0.2", pts)
        fit = fit_log_hyperplane(sample)
        assert np.max(np.abs(fit.weights - np.array([0.5, 0.3, 0.2]))) <= 1e-12
        assert fit.residual <= 1e-12

    def test_rule_orbit_recovers_weights(self):
        w = [0.5, 0.3, 0.2]
        rule = weighted_product(w)
        sample = sample_orbit(rule, as_reserves([1.0, 1.0, 1.0]), count=64, seed=6)
        fit = fit_log_hyperplane(sample)
        assert np.max(np.abs(fit.weights - np.array(w))) <= 1e-8

    def test_offset_matches_log_invariant(self):
        # normal . u = offset, so offset / sum(normal) is the log invariant
        w = [0.25, 0.25, 0.5]
        rule = weighted_product(w)
        start = as_reserves([2.0, 1.0, 3.0])
        sample = sample_orbit(rule, start, count=32, seed=8)
        fit = fit_log_hyperplane(sample)
        level = fit.offset / float(np.sum(fit.normal))
        assert abs(level - math.log(weighted_gmean(start, rule.weights))) <= 1e-9

    def test_collinear_cloud_rejected(self):
        t = np.linspace(0.0, 1.0, 12)
        pts = np.stack([t, -t, 0.5 * t], axis=1)
        with pytest.raises(DegenerateSampleError):
            fit_log_hyperplane(synthetic_orbit("x", pts))

    def test_mixed_sign_normal_rejected(self):
        # least-variance direction (1,-1,1)/sqrt(3): not a weight vector
        rng = np.random.default_rng(3)
        d1 = np.array([1.0, 1.0, 0.0])
        d2 = np.array([1.0, 0.0, -1.0])
        coeffs = rng.uniform(-1, 1, size=(30, 2))
        pts = coeffs @ np.vstack([d1, d2])
        with pytest.raises(ClassificationError):
            fit_log_hyperplane(synthetic_orbit("x", pts))

    def test_zero_component_normal_rejected(self):
        # normal (1,0,1)/sqrt(2): middle token never constrains the plane
        rng = np.random.default_rng(4)
        d1 = np.array([0.0, 1.0, 0.0])
        d2 = np.array([1.0, 0.0, -1.0])
        coeffs = rng.uniform(-1, 1, size=(30, 2))
        pts = coeffs @ np.vstack([d1, d2])
        with pytest.raises(ClassificationError):
            fit_log_hyperplane(synthetic_orbit("x", pts))


class TestSlices:
    def test_frozen_pairwise_slopes(self):
        rule = weighted_product([0.5, 0.3, 0.2])
        report = check_slices(rule, as_reserves([1.0, 1.0, 1.0]),
                              OrbitConfig(seed=3, samples=32))
        assert report.verdict
        by_pair = {(f.token_a, f.token_b): f.slope for f in report.slices}
        assert abs(by_pair[(0, 1)] + 5.0 / 3.0) <= 1e-9
        assert abs(by_pair[(0, 2)] + 2.5) <= 1e-9
        assert abs(by_pair[(1, 2)] + 1.5) <= 1e-9

    def test_spectator_tokens_pinned(self):
        rule = weighted_product([0.25, 0.25, 0.25, 0.25])
        report = check_slices(rule, as_reserves([1.0, 2.0, 3.0, 4.0]),
                              OrbitConfig(seed=5, samples=16))
        assert report.verdict
        assert all(f.others_fixed for f in report.slices)
        assert len(report.slices) == 6

    def test_rejects_two_token_rule(self):
        with pytest.raises(UsageError):
            check_slices(wgm(0.5), as_reserves([1.0, 1.0]), OrbitConfig())


class TestEqualWeights:
    def test_uniform_rule_passes(self):
        rule = weighted_product([0.25] * 4)
        sample = sample_orbit(rule, as_reserves([1.0, 1.0, 1.0, 1.0]),
                              count=64, seed=2)
        fit = fit_log_hyperplane(sample)
        assert check_equal_weights(fit, 1e-9)

    def test_skewed_rule_fails(self):
        rule = weighted_product([0.5, 0.3, 0.2])
        sample = sample_orbit(rule, as_reserves([1.0, 1.0, 1.0]), count=64, seed=2)
        fit = fit_log_hyperplane(sample)
        assert not check_equal_weights(fit, 1e-9)


class TestCsvExport:
    def test_header_and_round_trip(self):
        sample = sample_orbit(wgm(0.5), as_reserves([1.0, 1.0]), count=8, seed=0)
        text = orbit_to_csv(sample)
        lines = text.strip().split("\n")
        assert lines[0] == "x1,x2,u1,u2"
        assert len(lines) == 10
        row = [float(tok) for tok in lines[3].split(",")]
        assert row[0] == sample.states[2][0]
        assert row[1] == sample.states[2][1]
        assert row[2] == sample.log_points[2, 0]

    def test_multi_token_header(self):
        rule = weighted_product([0.5, 0.3, 0.2])
        sample = sample_orbit(rule, as_reserves([1.0, 1.0, 1.0]), count=8, seed=0)
        text = orbit_to_csv(sample)
        assert text.split("\n")[0] == "x1,x2,x3,u1,u2,u3"
