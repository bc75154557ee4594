"""Randomized conformance checks for swap rules.

Four properties are checked, each over seeded random trials:

* validity invariance: a swap from a valid state lands on a valid state;
* Pareto efficiency: no state reachable by swaps coordinate-wise
  dominates another state on the same chain;
* unit invariance: rescaling every token's units commutes with swapping;
* token symmetry (two-token rules): mirroring the state and trading the
  mirrored direction mirrors the outcome.

A failed check carries a witness with the concrete inputs, what was
observed, and what was expected; shrink() minimizes a witness while the
violation persists.  Identical (rule, config) inputs always produce the
identical report.  Rules are exercised as black boxes through forward
swaps from valid states only, so the converse half of validity
invariance (invalid states staying invalid) is out of scope; reports
say so in their scope field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (AmmError, ConfigError, InternalError, MalformedInputError, UsageError,
                     _require_tolerance, is_real, require_integer, require_range, require_seed)
from .rand import PRNG_ID, Draws, trial_draws
from .rules import _EPS, SwapRule, _screen_of, _walk, _Walk, swap, swap_rows
from .state import _close_rows, _factors, _positive, as_reserves, rel_close

# Dominance margin: coordinates within this relative slack count as ties,
# and domination needs at least one coordinate above it.
PARETO_MARGIN = 1e-12

VALIDITY_SCOPE = (
    "forward swaps from valid states (including boundary-adjacent ones); "
    "behaviour on invalid start states is not observable through the swap interface"
)

@dataclass(frozen=True)
class TrialConfig:
    """Knobs for one conformance run.

    amount_range is relative to the input-token reserve; state_range and
    amount_range are sampled log-uniformly.
    """

    seed: int = 0
    trials: int = 1000
    chain_length: int = 32
    amount_range: tuple[float, float] = (1e-3, 1.0)
    state_range: tuple[float, float] = (1e-6, 1e6)
    tolerance: float = 1e-9

    def __post_init__(self):
        require_seed(self.seed)
        for name in ("trials", "chain_length"):
            require_integer(name, getattr(self, name))
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.chain_length < 1:
            raise ConfigError(f"chain_length must be >= 1, got {self.chain_length}")
        for name in ("amount_range", "state_range"):
            require_range(name, getattr(self, name))
        _require_tolerance(self.tolerance)


@dataclass(frozen=True)
class Witness:
    """Concrete inputs reproducing a violation, plus its provenance."""

    inputs: dict
    observed: object
    expected: object
    seed: int
    trial: int


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    rule: str
    trials: int
    passed: bool
    witness: Witness | None
    tolerance: float
    shrunk: bool = False
    prng: str = PRNG_ID
    scope: str | None = None


def _sample_state(draws: Draws, cfg: TrialConfig, n: int, hug_boundary) -> np.ndarray:
    lo, hi = cfg.state_range
    return draws.log_uniform(lo, np.where(hug_boundary, min(hi, 4.0 * lo), hi), n)


# Wide ranges overflow amounts and rescaled states to inf, which swap() rejects.
@np.errstate(over="ignore")
def _sample_amount(draws: Draws, cfg: TrialConfig, reserve: np.ndarray) -> np.ndarray:
    return draws.log_uniform(cfg.amount_range[0], cfg.amount_range[1], 1)[:, 0] * reserve


# Violation predicates.  Each takes JSON-ready witness inputs, re-runs
# the property from scratch, and reports (violated, observed, expected).
# The checks and shrink() share these so a witness always replays.

def _violates_validity(rule: SwapRule, inputs: dict, tol: float) -> tuple[bool, object, object]:
    expected = "every output coordinate finite and > 0"
    try:
        out = swap(rule, inputs["state"], inputs["token_in"], inputs["token_out"], inputs["amount"])
    except AmmError as exc:
        return True, f"error: {exc}", expected
    if not _positive(out):
        return True, out.tolist(), expected
    return False, out.tolist(), expected


@np.errstate(over="ignore")
def _dominating_pair(states: np.ndarray) -> tuple[int, int] | None:
    """First (dominating, dominated) index pair of a chain's states (m, n),
    in row-major order, under the 1e-12 margin, or None.

    p dominates q when p is above q on some coordinate and q is above p
    on none, "above" meaning by more than the margin.  Built one
    coordinate plane at a time.  fl(p - q) == -fl(q - p) and the slack is
    symmetric in p and q, so on finite inputs "q is not above p" is
    exactly the test "p - q >= -slack" on every coordinate; no state is
    above itself.  A difference that overflows is an infinity, above any slack.
    """
    size = len(states)
    magnitude = np.abs(states)
    above = np.zeros((size, size), dtype=bool)
    for k in range(states.shape[1]):
        slack = np.maximum(magnitude[:, None, k], magnitude[None, :, k])
        slack *= PARETO_MARGIN
        above |= states[:, None, k] - states[None, :, k] > slack
    dominates = above & ~above.T
    if not dominates.any():
        return None
    return divmod(int(np.flatnonzero(dominates)[0]), size)


def _violates_pareto(rule: SwapRule, inputs: dict, tol: float) -> tuple[bool, object, object]:
    expected = "no coordinate-wise dominance between states on one chain"
    try:
        walk = _walk(rule, inputs["start"], inputs["moves"])
    except AmmError as exc:
        return True, f"error at step 1: {exc}", expected
    return (*_pareto_verdict(walk), expected)


def _pareto_verdict(walk: _Walk) -> tuple[bool, object]:
    """Whether a walked chain violates Pareto efficiency, and what was observed."""
    if isinstance(walk.failure, AmmError):
        return True, f"error at step {len(walk.states)}: {walk.failure}"
    if walk.failure is not None:
        return True, f"chain left the domain at step {len(walk.states)}: {walk.failure.tolist()}"
    cloud = walk.states
    hit = _dominating_pair(cloud)
    if hit is None:
        return False, None
    a, b = hit
    observed = {
        "dominating_index": int(a),
        "dominated_index": int(b),
        "dominating": cloud[a].tolist(),
        "dominated": cloud[b].tolist(),
    }
    return True, observed


@np.errstate(over="ignore")
def _violates_unit_invariance(rule: SwapRule, inputs: dict, tol: float) -> tuple[bool, object, object]:
    i, j, amount = inputs["token_in"], inputs["token_out"], inputs["amount"]
    try:
        s = as_reserves(inputs["state"])
        f = _factors(inputs["factors"], s.shape)
        rhs = swap(rule, s, i, j, amount) * f
        lhs = swap(rule, s * f, i, j, f[i] * amount)
    except AmmError as exc:
        return True, f"error: {exc}", "rescaling units commutes with swapping"
    return (not rel_close(lhs, rhs, tol)), lhs.tolist(), rhs.tolist()


def _violates_token_symmetry(rule: SwapRule, inputs: dict, tol: float) -> tuple[bool, object, object]:
    amount = inputs["amount"]
    try:
        s = as_reserves(inputs["state"])
        t = swap(rule, s, 0, 1, amount)
        mirrored = swap(rule, s[::-1], 1, 0, amount)
    except AmmError as exc:
        return True, f"error: {exc}", "mirrored trade lands on the mirrored state"
    expected = t[::-1]
    return (not rel_close(mirrored, expected, tol)), mirrored.tolist(), expected.tolist()


_PREDICATES: dict[str, Callable[[SwapRule, dict, float], tuple[bool, object, object]]] = {
    "validity_invariance": _violates_validity,
    "pareto_efficiency": _violates_pareto,
    "unit_invariance": _violates_unit_invariance,
    "token_symmetry": _violates_token_symmetry,
}

_WITNESS_INPUTS = {"validity_invariance": ("state", "token_in", "token_out", "amount"),
                   "pareto_efficiency": ("start", "moves"),
                   "unit_invariance": ("state", "factors", "token_in", "token_out", "amount"),
                   "token_symmetry": ("state", "amount")}


# Trial draws.  Each trial draws from its own Philox stream, keyed
# seed xor trial, in a fixed order that is part of the report format.
# A draw function reads a block of trials at once and returns one
# column per input, a row per trial; the keys are the witness input
# names, in witness order.

def _draw_validity(draws: Draws, trials: np.ndarray, cfg: TrialConfig, n: int) -> dict:
    # Every fourth trial hugs the lower edge of state_range.
    s = _sample_state(draws, cfg, n, hug_boundary=(trials % 4 == 3))
    i, j = draws.pairs(n, 1)[:, :, 0]
    amount = _sample_amount(draws, cfg, s[np.arange(len(s)), i])
    return {"state": s, "token_in": i, "token_out": j, "amount": amount}


def _draw_chain(draws: Draws, trials: np.ndarray, cfg: TrialConfig, n: int) -> dict:
    s = _sample_state(draws, cfg, n, hug_boundary=False)
    # Fractions are drawn up front; each concrete amount is pinned to the
    # state reached so far, so the witness replays without the RNG.
    fractions = draws.log_uniform(cfg.amount_range[0], cfg.amount_range[1], cfg.chain_length)
    i, j = draws.pairs(n, cfg.chain_length)
    return {"start": s, "token_in": i, "token_out": j, "fractions": fractions}


def _draw_unit(draws: Draws, trials: np.ndarray, cfg: TrialConfig, n: int) -> dict:
    s = _sample_state(draws, cfg, n, hug_boundary=False)
    i, j = draws.pairs(n, 1)[:, :, 0]
    amount = _sample_amount(draws, cfg, s[np.arange(len(s)), i])
    factors = draws.log_uniform(cfg.state_range[0], cfg.state_range[1], n)
    return {"state": s, "factors": factors, "token_in": i, "token_out": j, "amount": amount}


def _draw_symmetry(draws: Draws, trials: np.ndarray, cfg: TrialConfig, n: int) -> dict:
    s = _sample_state(draws, cfg, 2, hug_boundary=False)
    return {"state": s, "amount": _sample_amount(draws, cfg, s[:, 0])}


def _trial(drawn: dict, k: int) -> dict:
    """Row k of drawn columns, JSON-ready."""
    return {key: column[k].tolist() for key, column in drawn.items()}


# Batch verdicts.  A judge returns the violation mask of a block of drawn
# trials.  The validity, unit and symmetry judges run the predicates' own
# float operations through swap_rows, which behaves as swap() on each row,
# so a trial's verdict is the predicate's verdict.  A chain is never judged
# through swap_batch: its judge clears it from its logs (log_chains and
# _certified), and one it does not clear is walked by _walk, as its witness is.

def _judge_validity(rule: SwapRule, cfg: TrialConfig, drawn: dict) -> np.ndarray:
    out, ok = swap_rows(rule, drawn["state"], drawn["token_in"], drawn["token_out"],
                        drawn["amount"])
    return ~(ok & np.all(out > 0.0, axis=1))


@np.errstate(over="ignore")
def _judge_unit(rule: SwapRule, cfg: TrialConfig, drawn: dict) -> np.ndarray:
    s, f, i, j, amount = (drawn[key] for key in
                          ("state", "factors", "token_in", "token_out", "amount"))
    rhs, ok = swap_rows(rule, s, i, j, amount)
    lhs, ok_scaled = swap_rows(rule, s * f, i, j, f[np.arange(len(s)), i] * amount)
    return ~(ok & ok_scaled & _close_rows(lhs, rhs * f, cfg.tolerance))


def _judge_symmetry(rule: SwapRule, cfg: TrialConfig, drawn: dict) -> np.ndarray:
    s, amount = drawn["state"], drawn["amount"]
    first = np.zeros(len(s), dtype=int)
    second = first + 1
    t, ok = swap_rows(rule, s, first, second, amount)
    mirrored, ok_mirrored = swap_rows(rule, s[:, ::-1], second, first, amount)
    return ~(ok & ok_mirrored & _close_rows(mirrored, t[:, ::-1], cfg.tolerance))


def _judge_chains(rule: SwapRule, cfg: TrialConfig, drawn: dict) -> np.ndarray:
    batch = _screen_of(rule)
    return ~_certified(*batch.log_chains(drawn["start"], drawn["token_in"],
                                         drawn["token_out"], drawn["fractions"]), batch.w)


def _certified(logs: np.ndarray, delta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Chains, given as logs (B, m, n) within delta (B,) of their states' logs,
    on which no state dominates another under _dominating_pair.

    If p dominates q, then log q - log p <= mu on every coordinate, and
    w . (log q - log p) lies within the chain's spread S of w . log; so
    |log q - log p| <= R = max(mu, (S + mu |w|_1) / min w) on every
    coordinate, and |v . (log q - log p)| <= |v|_1 R.  A chain whose sorted
    projections on v are all further apart than that has no such pair.
    """
    n = logs.shape[2]
    # A generic v of mixed signs: v parallel to the positive w would project
    # a whole orbit to one point.
    v = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / (n * math.pi))
    top = np.maximum(logs.max(axis=(1, 2)), -logs.min(axis=(1, 2)))
    rounding = 4.0 * n * _EPS * top
    mu = -math.log1p(-PARETO_MARGIN * (1.0 + 4.0 * _EPS)) + 2.0 * delta
    # einsum, not a matmul, which would start BLAS and its buffers.
    level = np.einsum("bmn,n->bm", logs, w)
    spread = level.max(axis=1) - level.min(axis=1) + 2.0 * delta * w.sum() + rounding
    reach = np.maximum(mu, (spread + mu * w.sum()) / w.min())
    projected = np.sort(np.einsum("bmn,n->bm", logs, v), axis=1)
    gaps = projected[:, 1:] - projected[:, :-1]
    return np.all(gaps > (np.abs(v).sum() * (reach + rounding))[:, None], axis=1)


# Blocks of trials start small, so a rule that fails early costs what a
# one-trial-at-a-time loop would, and double up to a cap.
_FIRST_BLOCK = 8
_MAX_BLOCK = 512

_ENGINE = {
    "validity_invariance": (_draw_validity, _judge_validity),
    "pareto_efficiency": (_draw_chain, _judge_chains),
    "unit_invariance": (_draw_unit, _judge_unit),
    "token_symmetry": (_draw_symmetry, _judge_symmetry),
}


def _scalar_verdict(rule: SwapRule, cfg: TrialConfig, axiom: str, trial: dict) -> tuple[dict, bool]:
    """Witness inputs of one drawn trial and whether it violates the axiom.

    A chain's witness moves run up to and including a failing step, with
    amounts pinned to the states reached; a start outside the domain has none."""
    if axiom == "pareto_efficiency":
        steps = (trial["token_in"], trial["token_out"], trial["fractions"])
        try:
            walk = _walk(rule, trial["start"], steps, relative=True)
        except AmmError:
            return {"start": trial["start"], "moves": []}, True
        inputs = {"start": trial["start"], "moves": [list(move) for move in walk.moves]}
        return inputs, _pareto_verdict(walk)[0]
    return trial, _PREDICATES[axiom](rule, trial, cfg.tolerance)[0]


def _first_violation(rule: SwapRule, cfg: TrialConfig, axiom: str,
                     drawn: dict) -> tuple[int, dict] | None:
    """Lowest row of a block of drawn trials that violates the axiom, with
    its witness inputs, or None.

    A chain's judge, when the rule has log_chains, drops the chains it
    clears; a batching rule's judge keeps the validity, unit and symmetry
    rows it flags; the scalar verdict takes what is left in index order.  A
    flagged row is returned whatever its scalar verdict, so the replay
    catches a swap_batch that disagrees with swap()."""
    chains = axiom == "pareto_efficiency"
    judged = (_screen_of(rule) if chains else rule.swap_batch) is not None
    rows = np.arange(len(next(iter(drawn.values()))))
    if judged:
        rows = rows[_ENGINE[axiom][1](rule, cfg, drawn)]
    for k in rows.tolist():
        inputs, violated = _scalar_verdict(rule, cfg, axiom, _trial(drawn, k))
        if violated or (judged and not chains):
            return k, inputs
    return None


def _run_trials(rule: SwapRule, cfg: TrialConfig, axiom: str,
                scope: str | None = None) -> AxiomReport:
    """Run an axiom's trials in index order, in blocks, up to the first violation.

    Each block runs the one pipeline of _first_violation: the axiom's batch
    judge, then the scalar verdict, whose witness inputs the predicate that
    shrink() replays must confirm.
    """
    n = rule.dimension
    # Each block computes up front the Philox words per trial that the
    # block before it read, so its draws take one kernel pass.
    first, size, words = 0, _FIRST_BLOCK, 0
    while first < cfg.trials:
        trials = np.arange(first, min(first + size, cfg.trials))
        draws = trial_draws(cfg.seed, trials, words)
        drawn = _ENGINE[axiom][0](draws, trials, cfg, n)
        words = draws.words_read
        hit = _first_violation(rule, cfg, axiom, drawn)
        if hit is not None:
            trial, inputs = first + hit[0], hit[1]
            violated, observed, expected = _PREDICATES[axiom](rule, inputs, cfg.tolerance)
            if not violated:
                raise InternalError(f"{axiom} trial {trial} of rule {rule.name!r} was flagged "
                                    "but its witness does not replay")
            witness = Witness(inputs=inputs, observed=observed, expected=expected,
                              seed=cfg.seed, trial=trial)
            return AxiomReport(axiom=axiom, rule=rule.name, trials=trial + 1, passed=False,
                               witness=witness, tolerance=cfg.tolerance, scope=scope)
        first, size = first + trials.size, min(2 * size, _MAX_BLOCK)
    return AxiomReport(axiom=axiom, rule=rule.name, trials=cfg.trials, passed=True,
                       witness=None, tolerance=cfg.tolerance, scope=scope)


def check_validity_invariance(rule: SwapRule, cfg: TrialConfig) -> AxiomReport:
    """Every single swap from a valid state must land on a valid state.

    Every fourth trial hugs the lower edge of state_range to stress
    near-boundary starts.
    """
    return _run_trials(rule, cfg, "validity_invariance", scope=VALIDITY_SCOPE)


def check_pareto(rule: SwapRule, cfg: TrialConfig) -> AxiomReport:
    """No state on a swap chain may dominate another state on the same chain.

    Each trial runs one random chain of cfg.chain_length swaps and scans
    all ordered state pairs.  A chain that exits the domain is itself a
    failure, with the partial chain as witness.
    """
    return _run_trials(rule, cfg, "pareto_efficiency")


def check_unit_invariance(rule: SwapRule, cfg: TrialConfig) -> AxiomReport:
    """Per-token unit changes must commute with swaps.

    Compares swap(scale(s, f), i, j, f_i * dx) against
    scale(swap(s, i, j, dx), f) at the configured tolerance.
    """
    return _run_trials(rule, cfg, "unit_invariance")


def check_token_symmetry(rule: SwapRule, cfg: TrialConfig) -> AxiomReport:
    """Two-token rules only: trading into a mirrored state mirrors the result."""
    if rule.dimension != 2:
        raise UsageError("token symmetry is defined for two-token rules")
    return _run_trials(rule, cfg, "token_symmetry")


def check_all(rule: SwapRule, cfg: TrialConfig) -> list[AxiomReport]:
    """Run every applicable check; token symmetry only for two-token rules."""
    reports = [
        check_validity_invariance(rule, cfg),
        check_pareto(rule, cfg),
        check_unit_invariance(rule, cfg),
    ]
    if rule.dimension == 2:
        reports.append(check_token_symmetry(rule, cfg))
    return reports


# Witness shrinking.  Amounts are halved and then bisected down to the
# smallest value that still fails; state coordinates and unit factors
# step toward 1 by geometric midpoint while the failure persists.

_MAX_PASSES = 100
_BISECT_STEPS = 100


def _toward_one(value: float) -> float:
    """One geometric-midpoint step toward 1; snaps to 1 on a stall or from a value not > 0.

    sqrt can round back onto its argument one ulp away from 1, so the
    chain's limit point is offered as the final candidate.
    """
    stepped = math.sqrt(value) if value > 0.0 else 1.0
    if stepped == value and value != 1.0:
        return 1.0
    return stepped


def _min_failing_amount(check: Callable[[float], bool], amount: float) -> float:
    """Smallest amount that still fails, assuming check(amount) is True."""
    if amount > 0.0 and check(0.0):
        return 0.0
    lo = 0.0
    hi = amount
    for _ in range(_MAX_PASSES):
        half = hi / 2.0
        if half <= 0.0 or half == hi:
            return hi
        if check(half):
            hi = half
        else:
            lo = half
            break
    for _ in range(_BISECT_STEPS):
        mid = (lo + hi) / 2.0
        if mid <= lo or mid >= hi:
            break
        if check(mid):
            hi = mid
        else:
            lo = mid
    return hi


def shrink(report: AxiomReport, rule: SwapRule) -> AxiomReport:
    """Minimize a failing witness; the violation is preserved at every step."""
    if report.passed or report.witness is None:
        raise UsageError("only failed reports can be shrunk")
    if report.axiom not in _PREDICATES:
        raise UsageError(f"no axiom is named {report.axiom!r}")
    predicate = _PREDICATES[report.axiom]
    tol = report.tolerance
    inputs = dict(report.witness.inputs)
    # Witness slots (key, index) in visiting order: coordinates and factors,
    # then the scalar amount (index None) and each move's amount.
    keys = _WITNESS_INPUTS[report.axiom]
    try:
        slots = [(key, index) for key in ("state", "start", "factors", "amount", "moves")
                 if key in keys
                 for index in ([None] if key == "amount" else range(len(inputs[key])))]
        values = [inputs[key] if index is None else inputs[key][index] for key, index in slots]
        values = [v if key != "moves" else v[2] if len(v) == 3 else None
                  for (key, _), v in zip(slots, values)]
    except (TypeError, KeyError):
        values = [None]
    # NaN is no real number, and would keep the amount search from settling.
    if not (inputs.keys() >= set(keys) and all(is_real(v) and v == v for v in values)):
        raise MalformedInputError(f"a {report.axiom} witness needs {', '.join(keys)}, real "
                                  "coordinates, factors and amounts, and moves of three values")
    coords = [(key, index) for key, index in slots if key not in ("amount", "moves")]

    def violates(candidate: dict) -> bool:
        return predicate(rule, candidate, tol)[0]

    if not violates(inputs):
        raise UsageError("witness does not replay; refusing to shrink a stale report")

    for _ in range(_MAX_PASSES):
        changed = False

        # Coordinates and unit factors first, each stepped to its geometric
        # fixpoint toward 1 before any amount shrinks; otherwise a shrinking
        # amount can wall off coordinate moves that would still fail.
        for _ in range(_MAX_PASSES):
            moved = False
            for key, index in coords:
                value = inputs[key][index]
                candidate = _with(inputs, key, index, _toward_one(value))
                if candidate[key][index] != value and violates(candidate):
                    inputs = candidate
                    moved = True
            if not moved:
                break
            changed = True

        for key, index in slots[len(coords):]:
            amount = inputs[key] if index is None else inputs[key][index][2]
            best = _min_failing_amount(
                lambda a: violates(_with(inputs, key, index, a)), float(amount))
            if best != amount:
                inputs = _with(inputs, key, index, best)
                changed = True

        if not changed:
            break

    violated, observed, expected = predicate(rule, inputs, tol)
    if not violated:
        raise InternalError(f"shrinking lost the {report.axiom} violation of rule {rule.name!r}")
    witness = Witness(inputs=inputs, observed=observed, expected=expected,
                      seed=report.witness.seed, trial=report.witness.trial)
    return replace(report, witness=witness, shrunk=True)


def _with(inputs: dict, key: str, index: int | None, value) -> dict:
    """A copy of inputs with the value in slot (key, index) replaced; the
    lists it changes are copied, the rest shared."""
    out = dict(inputs)
    if index is None:
        out[key] = value
    else:
        items = out[key] = list(out[key])
        items[index] = [*items[index][:2], value] if key == "moves" else value
    return out


def report_to_dict(report: AxiomReport) -> dict:
    """JSON-ready form of a report; field order is part of the format."""
    witness = None
    if report.witness is not None:
        witness = {
            "inputs": _jsonable(report.witness.inputs),
            "observed": _jsonable(report.witness.observed),
            "expected": _jsonable(report.witness.expected),
            "seed": int(report.witness.seed),
            "trial": int(report.witness.trial),
        }
    out = {
        "axiom": report.axiom,
        "rule": report.rule,
        "trials": int(report.trials),
        "passed": bool(report.passed),
        "witness": witness,
        "tolerance": float(report.tolerance),
        "shrunk": bool(report.shrunk),
        "prng": report.prng,
    }
    if report.scope is not None:
        out["scope"] = report.scope
    return out


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value
