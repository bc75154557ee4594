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

from .errors import (AmmError, ConfigError, InternalError, UsageError, require_integer,
                     require_range, require_real)
from .rand import PRNG_ID, _sample_pair, log_uniform, trial_streams
from .rules import SwapRule, _walk, _Walk, swap, swap_rows
from .state import _positive, rel_close

# Dominance margin: coordinates within this relative slack count as ties,
# and domination needs at least one coordinate above it.
PARETO_MARGIN = 1e-12

VALIDITY_SCOPE = (
    "forward swaps from valid states (including boundary-adjacent ones); "
    "behaviour on invalid start states is not observable through the swap interface"
)

AXIOMS = ("validity_invariance", "pareto_efficiency", "unit_invariance", "token_symmetry")


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
        for name in ("seed", "trials", "chain_length"):
            require_integer(name, getattr(self, name))
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.chain_length < 1:
            raise ConfigError(f"chain_length must be >= 1, got {self.chain_length}")
        for name in ("amount_range", "state_range"):
            require_range(name, getattr(self, name))
        require_real("tolerance", self.tolerance)
        if not (0.0 < self.tolerance < 1.0):
            raise ConfigError(f"tolerance must lie in (0, 1), got {self.tolerance!r}")


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


def _sample_state(rng: np.random.Generator, cfg: TrialConfig, n: int, hug_boundary: bool) -> np.ndarray:
    lo, hi = cfg.state_range
    if hug_boundary:
        hi = min(hi, 4.0 * lo)
    return log_uniform(rng, lo, hi, n)


def _sample_amount(rng: np.random.Generator, cfg: TrialConfig, reserve: float) -> float:
    return float(log_uniform(rng, cfg.amount_range[0], cfg.amount_range[1]) * reserve)


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


def _dominance(chains: np.ndarray) -> np.ndarray:
    """For chains (B, m, n) of finite states: [b, p, q] is True iff state p
    dominates state q under the 1e-12 margin.

    p dominates q when p is above q on some coordinate and q is above p
    on none, "above" meaning by more than the margin.  Built one
    coordinate plane at a time.  fl(p - q) == -fl(q - p) and the slack is
    symmetric in p and q, so on finite inputs "q is not above p" is
    exactly the test "p - q >= -slack" on every coordinate.
    """
    size = chains.shape[1]
    magnitude = np.abs(chains)
    above = np.zeros((chains.shape[0], size, size), dtype=bool)
    for k in range(chains.shape[2]):
        slack = np.maximum(magnitude[:, :, None, k], magnitude[:, None, :, k])
        slack *= PARETO_MARGIN
        above |= chains[:, :, None, k] - chains[:, None, :, k] > slack
    return above & ~above.transpose(0, 2, 1)


def _dominating_pair(states: np.ndarray) -> tuple[int, int] | None:
    """First (dominating, dominated) index pair under the 1e-12 margin, or None."""
    dominates = _dominance(states[None])[0]
    if not dominates.any():
        return None
    flat = int(np.flatnonzero(dominates)[0])
    return flat // states.shape[0], flat % states.shape[0]


def _violates_pareto(rule: SwapRule, inputs: dict, tol: float) -> tuple[bool, object, object]:
    expected = "no coordinate-wise dominance between states on one chain"
    moves = ((int(i), int(j), float(amount)) for i, j, amount in inputs["moves"])
    try:
        walk = _walk(rule, inputs["start"], moves)
    except AmmError as exc:
        return True, f"error at step 1: {exc}", expected
    return (*_pareto_verdict(walk), expected)


def _pareto_verdict(walk: _Walk) -> tuple[bool, object]:
    """Whether a walked chain violates Pareto efficiency, and what was observed."""
    if isinstance(walk.failure, AmmError):
        return True, f"error at step {len(walk.states)}: {walk.failure}"
    if walk.failure is not None:
        return True, f"chain left the domain at step {len(walk.states)}: {walk.failure.tolist()}"
    cloud = np.stack(walk.states)
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


def _violates_unit_invariance(rule: SwapRule, inputs: dict, tol: float) -> tuple[bool, object, object]:
    s = np.asarray(inputs["state"], dtype=float)
    f = np.asarray(inputs["factors"], dtype=float)
    i = int(inputs["token_in"])
    j = int(inputs["token_out"])
    amount = float(inputs["amount"])
    try:
        rhs = swap(rule, s, i, j, amount) * f
        lhs = swap(rule, s * f, i, j, f[i] * amount)
    except AmmError as exc:
        return True, f"error: {exc}", "rescaling units commutes with swapping"
    return (not rel_close(lhs, rhs, tol)), lhs.tolist(), rhs.tolist()


def _violates_token_symmetry(rule: SwapRule, inputs: dict, tol: float) -> tuple[bool, object, object]:
    s = np.asarray(inputs["state"], dtype=float)
    amount = float(inputs["amount"])
    try:
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


# Trial draws.  Each trial draws from its own Philox stream, keyed
# seed xor trial, in a fixed order that is part of the report format.

def _draw_validity(rng: np.random.Generator, trial: int, cfg: TrialConfig, n: int) -> dict:
    # Every fourth trial hugs the lower edge of state_range.
    s = _sample_state(rng, cfg, n, hug_boundary=(trial % 4 == 3))
    i, j = _sample_pair(rng, n)
    amount = _sample_amount(rng, cfg, s[i])
    return {"state": s.tolist(), "token_in": i, "token_out": j, "amount": amount}


def _draw_chain(rng: np.random.Generator, trial: int, cfg: TrialConfig, n: int) -> dict:
    s = _sample_state(rng, cfg, n, hug_boundary=False)
    # Fractions are drawn up front; each concrete amount is pinned to the
    # state reached so far, so the witness replays without the RNG.
    fractions = log_uniform(rng, cfg.amount_range[0], cfg.amount_range[1], cfg.chain_length)
    # One vector draw consumes the stream exactly as chain_length
    # _sample_pair calls do, and yields the same pairs.
    if n == 2:
        i = rng.integers(0, 2, cfg.chain_length)
        j = 1 - i
    else:
        raw = rng.integers(0, [n, n - 1] * cfg.chain_length).reshape(-1, 2)
        i = raw[:, 0]
        j = raw[:, 1] + (raw[:, 1] >= i)
    return {"start": s.tolist(), "token_in": i, "token_out": j, "fractions": fractions}


def _draw_unit(rng: np.random.Generator, trial: int, cfg: TrialConfig, n: int) -> dict:
    s = _sample_state(rng, cfg, n, hug_boundary=False)
    i, j = _sample_pair(rng, n)
    amount = _sample_amount(rng, cfg, s[i])
    factors = log_uniform(rng, cfg.state_range[0], cfg.state_range[1], n)
    return {
        "state": s.tolist(),
        "factors": factors.tolist(),
        "token_in": i,
        "token_out": j,
        "amount": amount,
    }


def _draw_symmetry(rng: np.random.Generator, trial: int, cfg: TrialConfig, n: int) -> dict:
    s = _sample_state(rng, cfg, 2, hug_boundary=False)
    amount = _sample_amount(rng, cfg, s[0])
    return {"state": s.tolist(), "amount": amount}


# Batch verdicts.  For a rule with swap_batch, each judge evaluates a
# chunk of drawn trials at once with the predicates' own float
# operations, through swap_rows, which behaves as swap() on each row, so
# a trial's verdict is the predicate's verdict.  A judge returns the
# per-trial violation mask.

def _rel_close_rows(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """rel_close on each pair of rows."""
    return np.all(np.abs(a - b) <= tol * np.maximum(np.abs(a), np.abs(b)), axis=1)


def _column(drawn: list[dict], key: str) -> np.ndarray:
    return np.array([d[key] for d in drawn])


def _judge_validity(rule: SwapRule, cfg: TrialConfig, drawn: list[dict]) -> np.ndarray:
    out, ok = swap_rows(rule, _column(drawn, "state"), _column(drawn, "token_in"),
                         _column(drawn, "token_out"), _column(drawn, "amount"))
    return ~(ok & np.all(out > 0.0, axis=1))


def _judge_unit(rule: SwapRule, cfg: TrialConfig, drawn: list[dict]) -> np.ndarray:
    s = _column(drawn, "state")
    f = _column(drawn, "factors")
    i = _column(drawn, "token_in")
    j = _column(drawn, "token_out")
    amount = _column(drawn, "amount")
    rhs, ok = swap_rows(rule, s, i, j, amount)
    lhs, ok_scaled = swap_rows(rule, s * f, i, j, f[np.arange(len(drawn)), i] * amount)
    return ~(ok & ok_scaled & _rel_close_rows(lhs, rhs * f, cfg.tolerance))


def _judge_symmetry(rule: SwapRule, cfg: TrialConfig, drawn: list[dict]) -> np.ndarray:
    s = _column(drawn, "state")
    amount = _column(drawn, "amount")
    first = np.zeros(len(drawn), dtype=int)
    second = first + 1
    t, ok = swap_rows(rule, s, first, second, amount)
    mirrored, ok_mirrored = swap_rows(rule, s[:, ::-1], second, first, amount)
    return ~(ok & ok_mirrored & _rel_close_rows(mirrored, t[:, ::-1], cfg.tolerance))


def _judge_chains(rule: SwapRule, cfg: TrialConfig, drawn: list[dict]) -> np.ndarray:
    i = _column(drawn, "token_in")
    j = _column(drawn, "token_out")
    fractions = _column(drawn, "fractions")
    rows = np.arange(len(drawn))
    states = np.empty((len(drawn), cfg.chain_length + 1, rule.dimension))
    states[:, 0] = _column(drawn, "start")
    alive = np.ones(len(drawn), dtype=bool)
    for k in range(cfg.chain_length):
        current = states[:, k]
        amount = fractions[:, k] * current[rows, i[:, k]]
        nxt, ok = swap_rows(rule, current, i[:, k], j[:, k], amount)
        alive &= ok & (nxt > 0.0).all(axis=1)
        # A broken chain stays on its last valid state; its verdict is final.
        states[:, k + 1] = np.where(alive[:, None], nxt, current)
    return ~alive | _any_dominance(states, np.flatnonzero(alive))


# Pairwise dominance tests hold chunk x (L+1)^2 floats per temporary.
_PAIRWISE_CHUNK = 8


def _any_dominance(chains: np.ndarray, pending: np.ndarray) -> np.ndarray:
    """Whether some state dominates another, for the pending chains of valid states.

    Two-token chains that form a strict frontier with room to spare are
    cleared by sorting; every other chain gets the exact pairwise test.
    """
    if chains.shape[2] == 2:
        pending = pending[~_strict_frontier(chains[:, :, 0], chains[:, :, 1])[pending]]
    found = np.zeros(len(chains), dtype=bool)
    for lo in range(0, pending.size, _PAIRWISE_CHUNK):
        part = pending[lo:lo + _PAIRWISE_CHUNK]
        found[part] = _dominance(chains[part]).any(axis=(1, 2))
    return found


def _strict_frontier(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Two-token chains whose states, sorted by x, strictly fall in y.

    Requiring every gap in x and in y to exceed twice the dominance
    margin (the factor covers rounding in both tests) is sufficient for
    no pair to dominate under _dominance: gaps add up along the sorted
    chain.  A chain that fails this may still be clean.
    """
    order = np.argsort(x, axis=1, kind="stable")
    x = np.take_along_axis(x, order, axis=1)
    y = np.take_along_axis(y, order, axis=1)
    gap = 2.0 * PARETO_MARGIN
    return (np.all(x[:, 1:] - x[:, :-1] > gap * x[:, 1:], axis=1)
            & np.all(y[:, :-1] - y[:, 1:] > gap * y[:, :-1], axis=1))


# Chunks start small, so a rule that fails early costs what a
# one-trial-at-a-time loop would, and double up to a cap that bounds
# the memory a chunk holds.
_FIRST_CHUNK = 8
_MAX_CHUNK = 64

_ENGINE = {
    "validity_invariance": (_draw_validity, _judge_validity),
    "pareto_efficiency": (_draw_chain, _judge_chains),
    "unit_invariance": (_draw_unit, _judge_unit),
    "token_symmetry": (_draw_symmetry, _judge_symmetry),
}


def _scalar_verdict(rule: SwapRule, cfg: TrialConfig, axiom: str, drawn: dict) -> tuple[dict, bool]:
    """Witness inputs of one drawn trial and whether it violates the axiom.

    A chain's witness moves run up to and including a failing step, with
    amounts pinned to the states reached."""
    if axiom == "pareto_efficiency":
        steps = zip(drawn["token_in"].tolist(), drawn["token_out"].tolist(), drawn["fractions"])
        walk = _walk(rule, drawn["start"], steps, relative=True)
        inputs = {"start": drawn["start"], "moves": [list(move) for move in walk.moves]}
        return inputs, _pareto_verdict(walk)[0]
    return drawn, _PREDICATES[axiom](rule, drawn, cfg.tolerance)[0]


def _first_suspect(rule: SwapRule, cfg: TrialConfig, axiom: str, drawn: list[dict]) -> int | None:
    """Lowest index in a chunk of drawn trials that violates the axiom, or None.

    A rule with swap_batch is judged a chunk at a time; a black-box rule
    runs one trial at a time through the scalar verdict.
    """
    if rule.swap_batch is not None:
        hits = np.flatnonzero(_ENGINE[axiom][1](rule, cfg, drawn))
        return int(hits[0]) if hits.size else None
    return next((k for k, d in enumerate(drawn) if _scalar_verdict(rule, cfg, axiom, d)[1]), None)


def _run_trials(rule: SwapRule, cfg: TrialConfig, axiom: str,
                scope: str | None = None) -> AxiomReport:
    """Run an axiom's trials in index order, in chunks, up to the first violation.

    The failing trial's witness is rebuilt through the scalar path and
    confirmed by the predicate that shrink() replays.
    """
    draw = _ENGINE[axiom][0]
    streams = trial_streams(cfg.seed)
    first, size = 0, _FIRST_CHUNK
    while first < cfg.trials:
        stop = min(first + size, cfg.trials)
        drawn = [draw(streams(t), t, cfg, rule.dimension) for t in range(first, stop)]
        hit = _first_suspect(rule, cfg, axiom, drawn)
        if hit is not None:
            trial = first + hit
            inputs = _scalar_verdict(rule, cfg, axiom, drawn[hit])[0]
            violated, observed, expected = _PREDICATES[axiom](rule, inputs, cfg.tolerance)
            if not violated:
                raise InternalError(f"{axiom} trial {trial} of rule {rule.name!r} was flagged "
                                    "but its witness does not replay")
            witness = Witness(inputs=inputs, observed=observed, expected=expected,
                              seed=cfg.seed, trial=trial)
            return AxiomReport(axiom=axiom, rule=rule.name, trials=trial + 1, passed=False,
                               witness=witness, tolerance=cfg.tolerance, scope=scope)
        first, size = stop, min(2 * size, _MAX_CHUNK)
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
    """One geometric-midpoint step toward 1; snaps to the limit on stall.

    sqrt can round back onto its argument one ulp away from 1, so the
    chain's limit point is offered as the final candidate.
    """
    stepped = math.sqrt(value)
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
    predicate = _PREDICATES[report.axiom]
    tol = report.tolerance
    inputs = _copy_inputs(report.witness.inputs)

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
            for key in ("state", "start", "factors"):
                coords = inputs.get(key)
                if coords is None:
                    continue
                for idx, value in enumerate(coords):
                    candidate_value = _toward_one(value)
                    if candidate_value == value:
                        continue
                    candidate = _copy_inputs(inputs)
                    candidate[key] = list(coords)
                    candidate[key][idx] = candidate_value
                    if violates(candidate):
                        inputs = candidate
                        coords = inputs[key]
                        moved = True
            if not moved:
                break
            changed = True

        if "amount" in inputs:
            def check_amount(a: float) -> bool:
                candidate = _copy_inputs(inputs)
                candidate["amount"] = a
                return violates(candidate)

            best = _min_failing_amount(check_amount, float(inputs["amount"]))
            if best != inputs["amount"]:
                inputs = _copy_inputs(inputs)
                inputs["amount"] = best
                changed = True

        if "moves" in inputs:
            for idx, (i, j, amount) in enumerate(inputs["moves"]):
                def check_move(a: float, idx=idx, i=i, j=j) -> bool:
                    candidate = _copy_inputs(inputs)
                    candidate["moves"][idx] = [i, j, a]
                    return violates(candidate)

                best = _min_failing_amount(check_move, float(amount))
                if best != amount:
                    inputs = _copy_inputs(inputs)
                    inputs["moves"][idx] = [i, j, best]
                    changed = True

        if not changed:
            break

    violated, observed, expected = predicate(rule, inputs, tol)
    if not violated:
        raise InternalError(f"shrinking lost the {report.axiom} violation of rule {rule.name!r}")
    witness = Witness(inputs=inputs, observed=observed, expected=expected,
                      seed=report.witness.seed, trial=report.witness.trial)
    return replace(report, witness=witness, shrunk=True)


def _copy_inputs(inputs: dict) -> dict:
    out = {}
    for key, value in inputs.items():
        if isinstance(value, list):
            out[key] = [list(v) if isinstance(v, (list, tuple)) else v for v in value]
        else:
            out[key] = value
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
    if isinstance(value, np.ndarray):
        return [float(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value
