"""Error contract of the library source: every error raised on purpose is
an AmmError, no check is an assert that vanishes under python -O, and
malformed caller input raises its AmmError subclass."""

import ast
import builtins
import importlib
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from ammorbit import (AmmError, AxiomReport, ConfigError, DomainError, DriftSeries,
                      HyperplaneFit, MalformedInputError, OrbitConfig, OrbitSample, RuleSpec,
                      SwapRule, TrialConfig, UsageError, Witness, as_reserves, as_weights, chain,
                      check_all, check_equal_weights, check_slices, constant_sum,
                      decompose_check, drift_to_csv, exp_map, fee_drift, fee_swap,
                      fit_log_hyperplane, fit_log_line, make_rule, orbit_to_csv, out_amount,
                      pareto_geq, parse_rule, product, rel_close, sample_orbit, scale,
                      scaling_factor, shrink, swap, verify_level_sets, weight_from_slope,
                      weighted_gmean, weighted_product, wgm)
from ammorbit.axioms import _violates_token_symmetry, _violates_unit_invariance

SRC = Path(__file__).resolve().parents[1] / "src" / "ammorbit"
MODULES = sorted(SRC.glob("*.py"))

# Raises that name no exception class: bare re-raises, and walk failures
# raised only after an isinstance(..., AmmError) guard.
RERAISES = {"raise", "raise walk.failure"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raise_is_an_amm_error_and_no_assert(path):
    module = importlib.import_module("ammorbit" if path.stem == "__init__"
                                     else f"ammorbit.{path.stem}")
    scope = {**vars(builtins), **vars(module)}
    bad = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Assert):
            bad.append(f"line {node.lineno}: assert")
        elif isinstance(node, ast.Raise):
            if isinstance(node.exc, ast.Call):
                names = ast.unparse(node.exc.func).split(".")
                cls = reduce(getattr, names[1:], scope[names[0]])
                if not (isinstance(cls, type) and issubclass(cls, AmmError)):
                    bad.append(f"line {node.lineno}: raise {cls.__name__}")
            elif ast.unparse(node) not in RERAISES:
                bad.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert not bad, bad


BIG = 10**400  # an int beyond float range
WPROD = RuleSpec("wprod", weights=(0.2, 0.3, 0.5))
# A 3-token rule that declares two weights.
SHORT_WEIGHTS = SwapRule("short", 3, make_rule(WPROD).swap_in, weights=np.array([0.5, 0.5]))


def _shrink_edited(axiom="validity_invariance", drop=(), **changed):
    """shrink() on a hand-edited failed report of csum, without the inputs in drop."""
    inputs = {"state": [1.0, 1.0], "token_in": 0, "token_out": 1, "amount": 1.0} if (
        axiom != "pareto_efficiency") else {"start": [1.0, 1.0], "moves": [[0, 1, 1.0]]}
    inputs = {key: value for key, value in {**inputs, **changed}.items() if key not in drop}
    report = AxiomReport(axiom, "csum", 1, False, Witness(inputs, None, None, 0, 0), 1e-9)
    return shrink(report, constant_sum())

# Caller input that once escaped as a raw TypeError, ValueError or
# OverflowError, or passed unchecked, and the AmmError it must raise.
MALFORMED = [
    ("fee_drift float index", lambda: fee_drift(product(), [1, 1], [(0.7, 1, 1.0)], 0.0),
     UsageError),
    ("fee_drift bool index", lambda: fee_drift(product(), [1, 1], [(True, 0, 1.0)], 0.0),
     UsageError),
    ("fee_drift short move", lambda: fee_drift(product(), [1, 1], [(0, 1)], 0.0), UsageError),
    ("chain short move", lambda: chain(product(), [1, 1], [(0, 1)]), UsageError),
    ("swap big amount", lambda: swap(product(), [1, 1], 0, 1, BIG), UsageError),
    ("chain big amount", lambda: chain(product(), [1, 1], [(0, 1, BIG)]), UsageError),
    ("fee_swap big amount", lambda: fee_swap(product(), [1, 1], 0, 1, BIG, 0.003), UsageError),
    ("fee_drift big amount", lambda: fee_drift(product(), [1, 1], [(0, 1, BIG)], 0.0),
     UsageError),
    ("out_amount big amount", lambda: out_amount(product(), [1, 1], 0, 1, BIG), UsageError),
    ("weight_from_slope big", lambda: weight_from_slope(BIG), DomainError),
    ("TrialConfig state_range", lambda: TrialConfig(state_range=(1e-6, BIG)), ConfigError),
    ("TrialConfig amount_range", lambda: TrialConfig(amount_range=(1e-6, BIG)), ConfigError),
    ("OrbitConfig amount_range", lambda: OrbitConfig(amount_range=(1e-6, BIG)), ConfigError),
    ("decompose_check big amount",
     lambda: decompose_check(product(), [1, 1], 0, 1, BIG, 0.003), UsageError),
    ("decompose_check str amount",
     lambda: decompose_check(product(), [1, 1], 0, 1, "x", 0.003), UsageError),
    ("as_weights str", lambda: as_weights(["a", "b"]), MalformedInputError),
    ("weighted_product str", lambda: weighted_product(["a", "b"]), MalformedInputError),
    ("weighted_gmean str", lambda: weighted_gmean([1, 1], ["a", "b"]), MalformedInputError),
    ("make_rule str weights", lambda: make_rule(RuleSpec("wprod", weights=("a", "b"))),
     ConfigError),
    ("scale str", lambda: scale([1, 1], ["a", "b"]), DomainError),
    ("scaling_factor str", lambda: scaling_factor([0.5, 0.5], ["a", "b"]), ConfigError),
    ("exp_map str", lambda: exp_map(["a", "b"]), MalformedInputError),
    ("exp_map big", lambda: exp_map([BIG, 1]), MalformedInputError),
    ("as_reserves big", lambda: as_reserves([BIG, 1]), MalformedInputError),
    ("swap big reserve", lambda: swap(product(), [BIG, 1], 0, 1, 1.0), MalformedInputError),
    ("pareto_geq big", lambda: pareto_geq([BIG, 1], [1, 1]), MalformedInputError),
    ("check_slices big", lambda: check_slices(make_rule(WPROD), [BIG, 1, 1], OrbitConfig()),
     MalformedInputError),
    ("verify_level_sets 3-token start",
     lambda: verify_level_sets(product(), [[1, 1], [2, 1, 3]], OrbitConfig()), UsageError),
    ("fee_drift short weights", lambda: fee_drift(SHORT_WEIGHTS, [1, 1, 1], [(0, 1, 0.5)], 0.0),
     UsageError),
    ("drift_to_csv empty", lambda: drift_to_csv(DriftSeries("r", 0.0, (), ())),
     MalformedInputError),
    ("drift_to_csv ragged", lambda: drift_to_csv(DriftSeries("r", 0.0, ((1, 1), (2, 0.5, 3)),
                                                             (1.0, 1.0))), MalformedInputError),
    ("orbit_to_csv empty", lambda: orbit_to_csv(OrbitSample("r", (1, 1), (), (), 0)),
     MalformedInputError),
    ("orbit_to_csv ragged", lambda: orbit_to_csv(OrbitSample("r", (1, 1), ((1, 1), (2,)),
                                                             ((0, 0), (0.7, -0.7)), 0)),
     MalformedInputError),
    ("parse_rule int", lambda: parse_rule(5), ConfigError),
    ("parse_rule None", lambda: parse_rule(None), ConfigError),
    ("parse_rule bytes", lambda: parse_rule(b"product"), ConfigError),
    # More draws than an array can hold: refused before any allocation.
    ("sample_orbit huge count", lambda: sample_orbit(wgm(0.5), [1, 1], count=10**20),
     ConfigError),
    ("orbit_to_csv short log points", lambda: orbit_to_csv(OrbitSample("r", (1, 1),
                                                                       ((1, 1), (2, 0.5)),
                                                                       ((0, 0),), 0)),
     MalformedInputError),
    ("shrink unknown axiom", lambda: _shrink_edited("nope"), UsageError),
    ("shrink witness without token_in", lambda: _shrink_edited(drop=["token_in"]),
     MalformedInputError),
    ("shrink str state", lambda: _shrink_edited(state="ab"), MalformedInputError),
    ("shrink str factors", lambda: _shrink_edited("unit_invariance", factors=["a", "b"]),
     MalformedInputError),
    ("shrink str amount", lambda: _shrink_edited(amount="x"), MalformedInputError),
    ("shrink moves None", lambda: _shrink_edited("pareto_efficiency", moves=None),
     MalformedInputError),
    ("shrink two-value move", lambda: _shrink_edited("pareto_efficiency", moves=[[0, 1]]),
     MalformedInputError),
    ("shrink str move amount",
     lambda: _shrink_edited("pareto_efficiency", moves=[[0, 1, "x"]]), MalformedInputError),
    # NaN is no real number; an amount search on it never settles.
    ("shrink NaN amount", lambda: _shrink_edited(amount=float("nan")), MalformedInputError),
    ("shrink NaN move amount",
     lambda: _shrink_edited("pareto_efficiency", moves=[[0, 1, float("nan")]]),
     MalformedInputError),
    ("shrink NaN state", lambda: _shrink_edited(state=[float("nan"), 1.0]), MalformedInputError),
    ("SwapRule dimension 0", lambda: check_all(SwapRule("x", 0, product().swap_in),
                                               TrialConfig(trials=8)), ConfigError),
    ("SwapRule dimension 1", lambda: SwapRule("x", 1, product().swap_in), ConfigError),
    ("SwapRule float dimension", lambda: SwapRule("x", 2.0, product().swap_in), ConfigError),
    ("check_equal_weights str tol",
     lambda: check_equal_weights(HyperplaneFit(np.ones(2), 0.0, np.full(2, 0.5), 0.0), "x"),
     ConfigError),
    ("rel_close str", lambda: rel_close(["x"], [1.0]), MalformedInputError),
    ("rel_close big", lambda: rel_close([BIG], [1.0]), MalformedInputError),
    ("rel_close ragged", lambda: rel_close([[1.0], [1.0, 2.0]], [1.0]), MalformedInputError),
    ("rel_close None tol", lambda: rel_close([1.0], [1.0], None), ConfigError),
    # A NaN or negative tolerance would read every pair as "not close".
    ("rel_close negative tol", lambda: rel_close(1.0, 1.0, -1.0), ConfigError),
    ("rel_close NaN tol", lambda: rel_close(1.0, 1.0, float("nan")), ConfigError),
    ("check_equal_weights NaN tol",
     lambda: check_equal_weights(HyperplaneFit(np.ones(2), 0.0, np.full(2, 0.5), 0.0),
                                 float("nan")), ConfigError),
    ("check_equal_weights negative tol",
     lambda: check_equal_weights(HyperplaneFit(np.ones(2), 0.0, np.full(2, 0.5), 0.0), -0.1),
     ConfigError),
    ("chain moves None", lambda: chain(wgm(0.5), [1, 1], None), UsageError),
    ("fee_drift moves None", lambda: fee_drift(wgm(0.5), [1, 1], None, 0.0), UsageError),
]


@pytest.mark.parametrize("call, error", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_caller_input_raises_its_amm_error(call, error):
    with pytest.raises(error):
        call()


def _unit_witness(**changed):
    inputs = {"state": [1.0, 2.0], "factors": [1.0, 3.0], "token_in": 0, "token_out": 1,
              "amount": 0.5, **changed}
    return _violates_unit_invariance(product(), inputs, 1e-9)


def _symmetry_witness(**changed):
    return _violates_token_symmetry(product(), {"state": [1.5, 4.0], "amount": 0.5, **changed},
                                    1e-9)


def _cloud(bad):
    points = np.array([[0.0, 0.0], [1.0, -1.0], [2.0, -2.0]], dtype=object)
    points[2, 0] = bad
    return OrbitSample(rule="product", start=np.ones(2), states=(), log_points=points, seed=0)


# A witness replays through swap()'s own checks, uncast, so a malformed one
# reads as a violation with swap()'s error; a fit refuses a cloud that is not
# finite and numeric before its spread and SVD steps.
REFUSED = [
    ("unit witness float token", lambda: _unit_witness(token_in=0.7), "error: bad token pair"),
    ("symmetry witness bool amount", lambda: _symmetry_witness(amount=True),
     "error: amount must be a finite number"),
    ("unit witness 3 factors", lambda: _unit_witness(factors=[1.0, 3.0, 2.0]),
     "error: factor dimension"),
    ("symmetry witness str state", lambda: _symmetry_witness(state=["a", 2.0]),
     "error: reserves must be numeric"),
    *[(f"{fit.__name__} {name} cloud", lambda fit=fit, bad=bad: fit(_cloud(bad)),
       MalformedInputError)
      for fit in (fit_log_line, fit_log_hyperplane)
      for name, bad in (("inf", np.inf), ("nan", np.nan), ("str", "a"))],
]


@pytest.mark.parametrize("call, refusal", [case[1:] for case in REFUSED],
                         ids=[case[0] for case in REFUSED])
def test_malformed_witness_or_cloud_is_refused(call, refusal):
    if isinstance(refusal, str):
        violated, observed, _ = call()
        assert violated and observed.startswith(refusal), observed
    else:
        with pytest.raises(refusal):
            call()


def test_csv_writers_take_hand_built_tuples_of_rows():
    sample = sample_orbit(product(), [1.0, 2.0], 8, seed=3)
    series = fee_drift(product(), [1.0, 2.0], [(0, 1, 0.5), (1, 0, 0.25)], 0.003)
    as_tuples = lambda table: tuple(tuple(row) for row in table.tolist())
    hand_sample = OrbitSample(sample.rule, sample.start, as_tuples(sample.states),
                              as_tuples(sample.log_points), sample.seed)
    hand_series = DriftSeries(series.rule, series.fee, as_tuples(series.states),
                              tuple(series.invariant_values.tolist()))
    assert orbit_to_csv(hand_sample) == orbit_to_csv(sample)
    assert drift_to_csv(hand_series) == drift_to_csv(series)
