"""Recovering a rule's invariant from the orbits its swaps trace out.

In log coordinates the reachable set of a conforming two-token rule is a
straight line of negative slope -c, and the weight of the underlying
invariant x**w * y**(1-w) is w = c / (1 + c).  For n tokens the orbit
lies on a hyperplane whose normal, rescaled to sum to one, is the weight
vector.  This module samples orbits, fits lines and hyperplanes by total
least squares, and turns fits back into weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .errors import (
    AmmError,
    ClassificationError,
    ConfigError,
    DegenerateSampleError,
    DomainError,
    MalformedInputError,
    SamplingError,
    UsageError,
    VerticalFitError,
    _require_tolerance,
    read_float,
    require_integer,
    require_nonnegative,
    require_range,
    require_seed,
)
from .rand import trial_draws
from .rules import SwapRule, _describe_exit, _walk
from .state import _csv, _freeze, _width, rel_close, require_valid

# Log points closer than this are not distinct enough to anchor a fit.
DISTINCT_EPS = 1e-10

# Singular values below this count as zero when ranking a centered cloud.
RANK_EPS = 1e-10

# Normal components must clear this after sign normalization.
COMPONENT_EPS = 1e-9

MIN_ORBIT_SAMPLES = 8

# Rows of the cloud compared against all of it at once by the spread check.
_SPREAD_BLOCK = 8


@dataclass(frozen=True)
class OrbitConfig:
    """Sampling and tolerance knobs for classification runs."""

    seed: int = 0
    samples: int = 64
    tolerance: float = 1e-9
    amount_range: tuple[float, float] = (1e-3, 1.0)

    def __post_init__(self):
        require_seed(self.seed)
        require_integer("samples", self.samples)
        if self.samples < MIN_ORBIT_SAMPLES:
            raise ConfigError(f"samples must be >= {MIN_ORBIT_SAMPLES}, got {self.samples}")
        require_range("amount_range", self.amount_range)
        _require_tolerance(self.tolerance)


@dataclass(frozen=True)
class OrbitSample:
    """An orbit walk's states as one read-only (m, n) array, and their logs."""

    rule: str
    start: np.ndarray
    states: np.ndarray
    log_points: np.ndarray
    seed: int


@dataclass(frozen=True)
class LineFit:
    """Total-least-squares line v = slope * u + intercept in log space.

    slope_magnitude is -slope when the slope is negative, else None;
    residual is the largest orthogonal distance of any point.
    """

    slope: float
    intercept: float
    residual: float
    slope_magnitude: float | None


@dataclass(frozen=True)
class HyperplaneFit:
    """Least-variance hyperplane normal . z = offset through a log cloud."""

    normal: np.ndarray
    offset: float
    weights: np.ndarray
    residual: float


@dataclass(frozen=True)
class OrbitFit:
    start: tuple[float, ...]
    seed: int
    slope: float
    intercept: float
    residual: float
    invariant_value: float
    invariant_spread: float


@dataclass(frozen=True)
class ClassificationReport:
    rule: str
    orbits: tuple[OrbitFit, ...]
    pooled_slope: float | None
    weight_estimate: float | None
    slope_spread: float | None
    residual_max: float | None
    verdict: bool
    failure: str | None
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class SliceFit:
    token_a: int
    token_b: int
    slope: float
    residual: float
    others_fixed: bool
    ok: bool


@dataclass(frozen=True)
class SliceReport:
    rule: str
    point: tuple[float, ...]
    slices: tuple[SliceFit, ...]
    verdict: bool
    failure: str | None


def _orbit_directions(n: int) -> list[tuple[int, int]]:
    """Deterministic cycle of trade directions covering every ordered pair."""
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def sample_orbit(rule: SwapRule, s0, count: int = 64, seed: int = 0) -> OrbitSample:
    """Record count forward swaps (count+1 states) wandering one orbit.

    Directions cycle so the walk does not drift off in one token, and
    amounts are log-uniform fractions of the input reserve.  A step that
    raises or leaves the domain raises SamplingError with the partial sample.
    """
    require_integer("count", count)
    if count < MIN_ORBIT_SAMPLES:
        raise UsageError(f"count must be >= {MIN_ORBIT_SAMPLES}, got {count}")
    require_seed(seed)
    return _sample(rule, s0, _orbit_directions(rule.dimension), count, seed,
                   OrbitConfig.amount_range)


def _sample(rule: SwapRule, s0, directions: list[tuple[int, int]], count: int, seed: int,
            amount_range: tuple[float, float]) -> OrbitSample:
    """The sample of count swaps from s0 cycling through directions, each
    trading a log-uniform fraction in amount_range of the input reserve,
    drawn from trial_rng(seed, 0)."""
    fractions = trial_draws(seed, [0]).log_uniform(*amount_range, count)[0]
    walk = _walk(rule, s0, (*np.resize(directions, (count, 2)).T, fractions), relative=True)
    sample = OrbitSample(rule=rule.name, start=walk.states[0], states=walk.states,
                         log_points=_freeze(np.log(walk.states)), seed=seed)
    if walk.failure is not None:
        raise SamplingError(
            f"orbit sampling hit the domain boundary of {rule.name!r} {_describe_exit(walk)}",
            partial=sample,
        )
    return sample


def _cloud(sample: OrbitSample) -> np.ndarray:
    """A sample's log points as floats: MalformedInputError unless all are finite numbers."""
    try:
        cloud = np.asarray(sample.log_points, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInputError(f"log points must be numeric: {exc}") from exc
    if not np.all(np.isfinite(cloud)):
        raise MalformedInputError("log points must be finite; the cloud holds a NaN or an infinity")
    return cloud


def _require_spread(cloud: np.ndarray) -> None:
    # Row blocks against the whole cloud: the same distances as one
    # m x m tensor, in bounded memory, stopping at the first wide block.
    for lo in range(0, cloud.shape[0], _SPREAD_BLOCK):
        diffs = cloud[lo:lo + _SPREAD_BLOCK, None, :] - cloud[None, :, :]
        if float(np.max(np.linalg.norm(diffs, axis=2))) > DISTINCT_EPS:
            return
    raise DegenerateSampleError(
        f"all {cloud.shape[0]} log points coincide within {DISTINCT_EPS}"
    )


def fit_log_line(sample: OrbitSample) -> LineFit:
    """Fit the best line through a two-token sample's log points.

    Total least squares: the line direction is the principal axis of the
    centered cloud, so both coordinates are treated symmetrically.
    """
    cloud = _cloud(sample)
    if cloud.ndim != 2 or cloud.shape[1] != 2:
        raise UsageError(f"line fits need two-token samples, got shape {cloud.shape}")
    _require_spread(cloud)
    mean = cloud.mean(axis=0)
    centered = cloud - mean
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    direction = vt[0]
    normal = vt[1]
    if abs(direction[0]) <= 1e-12:
        raise VerticalFitError("log points fall on a vertical line; no finite slope")
    slope = float(direction[1] / direction[0])
    intercept = float(mean[1] - slope * mean[0])
    residual = float(np.max(np.abs(centered @ normal)))
    magnitude = -slope if slope < 0.0 else None
    return LineFit(slope=slope, intercept=intercept, residual=residual,
                   slope_magnitude=magnitude)


def weight_from_slope(slope_magnitude: float) -> float:
    """Map the line's downhill rate c to the invariant weight c / (1 + c)."""
    c = read_float(slope_magnitude)
    if not math.isfinite(c):
        raise DomainError(f"slope magnitude must be finite, got {slope_magnitude!r}")
    if c <= 0.0:
        raise DomainError(f"slope magnitude must be positive, got {slope_magnitude!r}")
    return c / (1.0 + c)


def _pooled_slope(fits: list[OrbitFit]) -> float:
    # Orbits with larger residuals say less about the common slope.
    weights = np.array([1.0 / (fit.residual + 1e-300) for fit in fits])
    slopes = np.array([fit.slope for fit in fits])
    return float(np.dot(weights, slopes) / np.sum(weights))


def verify_level_sets(rule: SwapRule, starts, cfg: OrbitConfig) -> ClassificationReport:
    """Classify a two-token rule from several sampled orbits.

    Samples one orbit per start (orbit k reseeded as cfg.seed xor k),
    fits each in log space, and accepts only if every slope is strictly
    negative, the slopes agree within cfg.tolerance, and the implied
    invariant is constant along each orbit.  Starts landing on the same
    orbit are merged with a warning.
    """
    starts = [require_valid(s) for s in starts]
    if len(starts) < 2:
        raise UsageError("need at least two starts on distinct orbits")
    if rule.dimension != 2:
        raise UsageError("verify_level_sets handles two-token rules; "
                         "use fit_log_hyperplane for more tokens")
    for k, start in enumerate(starts):
        if start.size != 2:
            raise UsageError(f"start {k} has {start.size} coordinates, rule has 2")

    # An orbit's invariant fields stay NaN until every orbit has a line.
    fits: list[OrbitFit] = []
    clouds: list[np.ndarray] = []

    def fail(msg: str) -> ClassificationReport:
        return ClassificationReport(rule=rule.name, orbits=tuple(fits), pooled_slope=None,
                                    weight_estimate=None, slope_spread=None, residual_max=None,
                                    verdict=False, failure=msg)

    for k, start in enumerate(starts):
        try:
            sample = _sample(rule, start, _orbit_directions(2), cfg.samples, cfg.seed ^ k,
                             cfg.amount_range)
            fit = fit_log_line(sample)
        except ConfigError:
            raise  # a run that cannot be configured, not an orbit that fails
        except AmmError as exc:
            return fail(f"orbit {k} (start {start.tolist()}): {exc}")
        if fit.slope >= 0.0:
            return fail(f"orbit {k} (start {start.tolist()}): slope {fit.slope!r} is not negative")
        clouds.append(sample.log_points)
        fits.append(OrbitFit(start=tuple(start.tolist()), seed=sample.seed, slope=fit.slope,
                             intercept=fit.intercept, residual=fit.residual,
                             invariant_value=math.nan, invariant_spread=math.nan))

    slopes = [fit.slope for fit in fits]
    spread = float(max(slopes) - min(slopes))
    pooled = _pooled_slope(fits)
    w_hat = weight_from_slope(-pooled)
    residual_max = float(max(fit.residual for fit in fits))

    # A slope-spread failure is reported first, else the first orbit whose
    # implied invariant varies by more than the tolerance.
    failure = (f"slope spread {spread!r} exceeds tolerance {cfg.tolerance!r}"
               if spread > cfg.tolerance else None)
    for k, logs in enumerate(clouds):
        # Invariant implied by the pooled fit, evaluated along the orbit.
        phi = np.exp(w_hat * logs[:, 0] + (1.0 - w_hat) * logs[:, 1])
        lo, hi = float(np.min(phi)), float(np.max(phi))
        # np.median's value (phi holds no NaN), without loading numpy.ma.
        middle = np.sort(phi)[(phi.size - 1) // 2:phi.size // 2 + 1]
        fits[k] = replace(fits[k], invariant_value=float(middle.mean()),
                          invariant_spread=(hi - lo) / hi)
        if failure is None and fits[k].invariant_spread > cfg.tolerance:
            failure = (f"orbit {k}: implied invariant varies by {fits[k].invariant_spread!r} "
                       f"(tolerance {cfg.tolerance!r})")
    values = [fit.invariant_value for fit in fits]
    warnings = [f"starts {a} and {b} lie on the same orbit "
                f"(invariant {values[a]!r}); treating them as one level"
                for a in range(len(values)) for b in range(a + 1, len(values))
                if rel_close(values[a], values[b], cfg.tolerance)]

    return ClassificationReport(rule=rule.name, orbits=tuple(fits), pooled_slope=pooled,
                                weight_estimate=w_hat, slope_spread=spread,
                                residual_max=residual_max, verdict=failure is None,
                                failure=failure, warnings=tuple(warnings))


def fit_log_hyperplane(sample: OrbitSample) -> HyperplaneFit:
    """Fit normal . z = offset through an n-token sample's log points.

    The normal is the least-variance direction of the centered cloud,
    sign-normalized to positive component sum.  A conforming rule yields
    an all-positive normal; weights are the normal rescaled to sum 1.
    """
    cloud = _cloud(sample)
    if cloud.ndim != 2 or cloud.shape[1] < 2:
        raise UsageError(f"hyperplane fits need an (m, n>=2) cloud, got shape {cloud.shape}")
    n = cloud.shape[1]
    if cloud.shape[0] < n:
        raise DegenerateSampleError(f"need at least {n} points to pin an {n}-token hyperplane")
    mean = cloud.mean(axis=0)
    centered = cloud - mean
    _, sv, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(sv > RANK_EPS))
    if rank < n - 1:
        raise DegenerateSampleError(
            f"centered cloud has rank {rank} < {n - 1}; orbit sampling did not "
            f"explore enough directions"
        )
    normal = vt[-1]
    total = float(np.sum(normal))
    if total < 0.0:
        normal = -normal
        total = -total
    if float(np.min(normal)) <= COMPONENT_EPS:
        raise ClassificationError(
            f"fitted normal {normal.tolist()} has non-positive or near-zero components; "
            f"the sampled rule does not hold a weighted product fixed"
        )
    weights = normal / total
    offset = float(np.dot(normal, mean))
    residual = float(np.max(np.abs(centered @ normal)))
    return HyperplaneFit(normal=_freeze(normal.copy()), offset=offset, weights=_freeze(weights),
                         residual=residual)


def check_slices(rule: SwapRule, p, cfg: OrbitConfig) -> SliceReport:
    """Probe every token pair of an n-token rule through two-token slices.

    For each pair (i, j) a chain of (i, j)-only swaps is sampled from p;
    the (u_i, u_j) log points must fall on a strictly decreasing line
    within cfg.tolerance while every other coordinate stays bitwise
    fixed.  For a weighted-product rule the slice slope is -w_i / w_j.
    """
    point = require_valid(p)
    if rule.dimension < 3:
        raise UsageError("check_slices needs a rule with at least three tokens")
    if point.size != rule.dimension:
        raise UsageError(f"point has {point.size} coordinates, rule has {rule.dimension}")

    n = rule.dimension
    slices: list[SliceFit] = []
    failure = None
    for i in range(n):
        for j in range(i + 1, n):
            slice_seed = cfg.seed ^ (i * n + j)
            others_fixed, slope, residual = False, math.nan, math.nan
            try:
                sample = _sample(rule, point, [(i, j), (j, i)], cfg.samples, slice_seed,
                                 cfg.amount_range)
                others = [k for k in range(n) if k not in (i, j)]
                others_fixed = bool(np.all(sample.states[:, others] == point[others]))
                fit = fit_log_line(replace(sample, log_points=np.log(sample.states[:, (i, j)])))
            except AmmError as exc:
                failure = failure or f"pair ({i}, {j}): {exc}"
            else:
                slope, residual = fit.slope, fit.residual
            # A slice that raised has NaN slope and residual, so it is not ok.
            ok = (slope < 0.0 and residual <= cfg.tolerance and others_fixed)
            if not ok:
                failure = failure or (
                    f"pair ({i}, {j}): slope {slope!r}, residual {residual!r}, "
                    f"others_fixed {others_fixed}"
                )
            slices.append(SliceFit(token_a=i, token_b=j, slope=slope,
                                   residual=residual, others_fixed=others_fixed, ok=ok))
    return SliceReport(rule=rule.name, point=tuple(point.tolist()),
                       slices=tuple(slices), verdict=failure is None, failure=failure)


def check_equal_weights(fit: HyperplaneFit, tol: float) -> bool:
    """True iff every fitted weight matches 1/n within tol."""
    require_nonnegative("tol", tol)
    w = np.asarray(fit.weights, dtype=float)
    return bool(np.max(np.abs(w - 1.0 / w.size)) <= tol)


def orbit_to_csv(sample: OrbitSample) -> str:
    """CSV with one row per state: x1..xn, then their logs u1..un."""
    return "".join(_orbit_csv(sample))


def _orbit_csv(sample: OrbitSample) -> Iterator[str]:
    n = _width(sample.states, sample.log_points)
    header = ",".join([f"x{k + 1}" for k in range(n)] + [f"u{k + 1}" for k in range(n)])
    return _csv(header, sample.states, sample.log_points)


def classification_to_dict(report: ClassificationReport) -> dict:
    """JSON-ready form of a classification report."""
    return {
        "rule": report.rule,
        "w_hat": report.weight_estimate,
        "pooled_slope": report.pooled_slope,
        "slope_spread": report.slope_spread,
        "residual_max": report.residual_max,
        "verdict": bool(report.verdict),
        "failure": report.failure,
        "warnings": list(report.warnings),
        "orbits": [
            {
                "start": list(fit.start),
                "seed": int(fit.seed),
                "slope": fit.slope,
                "intercept": fit.intercept,
                "residual": fit.residual,
                # A partial orbit's invariant fields are NaN, which JSON cannot hold.
                "invariant_value": None if math.isnan(fit.invariant_value) else fit.invariant_value,
                "invariant_spread": (None if math.isnan(fit.invariant_spread)
                                     else fit.invariant_spread),
            }
            for fit in report.orbits
        ],
    }
