"""Swap rules and the forward swap engine.

A SwapRule maps (state, token_in, token_out, amount) to the post-trade
state.  Built-in rules cover the weighted constant-product family (which
conforms to all the axioms checked by ammorbit.axioms) and a constant-sum
rule (which deliberately does not).  Weighted rules solve for the output
reserve in log space:

    new_j = exp((w_i*ln s_i + w_j*ln s_j - w_i*ln(s_i + dx)) / w_j)

so states spanning many orders of magnitude lose no precision to
intermediate powers.  The engine is forward-only: amounts are nonnegative
and rules are treated as black boxes, so no inverse query is offered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (AmmError, ChainError, ConfigError, DomainError,
                     MalformedInputError, NumericError, UsageError)
from .state import _positive, as_reserves, as_weights, is_valid, weighted_gmean

Move = tuple[int, int, float]


@dataclass(frozen=True)
class SwapRule:
    """A named swap rule over a fixed number of tokens.

    weights is set for the built-in weighted-product family and None for
    rules with no known invariant; the conformance harness never looks
    at it.

    swap_batch is an optional vectorised swap_in: given states (B, n),
    token indices i and j (B,) and amounts (B,), it returns the (B, n)
    post-trade states, each row equal bit for bit to swap_in on that row,
    with a non-finite row where swap_in would raise.  A rule that sets
    it must keep the default positive-orthant domain: the batch path
    checks states itself, never calls domain, and passes only rows that
    swap() accepts.  The conformance checks use it when present and run
    one trial at a time through swap() when it is None.
    """

    name: str
    dimension: int
    swap_in: Callable[[np.ndarray, int, int, float], np.ndarray] = field(repr=False)
    weights: np.ndarray | None = None
    domain: Callable[[np.ndarray], bool] = field(default=is_valid, repr=False)
    swap_batch: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = (
        field(default=None, repr=False))

    def invariant(self, s) -> float:
        """Value of the rule's conserved quantity at s, if it declares one."""
        if self.weights is None:
            raise UsageError(f"rule {self.name!r} declares no invariant")
        return weighted_gmean(s, self.weights)


@dataclass(frozen=True)
class RuleSpec:
    """Parsed form of a rule spec string, see parse_rule."""

    kind: str
    weight: float | None = None
    weights: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Trajectory:
    """States visited by a chain of swaps; states[k] precedes moves[k]."""

    states: tuple[np.ndarray, ...]
    moves: tuple[Move, ...]

    def __post_init__(self):
        if len(self.states) != len(self.moves) + 1:
            raise UsageError("trajectory needs exactly one more state than moves")


def _format_weight(w: float) -> str:
    return repr(float(w))


def _pair_swap(weights: np.ndarray, s: np.ndarray, i: int, j: int, amount: float) -> np.ndarray:
    si = s[i]
    sj = s[j]
    wi = weights[i]
    wj = weights[j]
    new_i = si + amount
    target = wi * math.log(si) + wj * math.log(sj)
    new_j = math.exp((target - wi * math.log(new_i)) / wj)
    out = s.copy()
    out[i] = new_i
    out[j] = new_j
    return out


def _libm(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """fn (a math-module function) applied elementwise.

    np.log and np.exp may differ from libm in the last bit, so batch
    kernels that must match their scalar twin bit for bit go through this.
    """
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _pair_swap_batch(weights: np.ndarray, s: np.ndarray, i: np.ndarray, j: np.ndarray,
                     amount: np.ndarray) -> np.ndarray:
    """_pair_swap on every row: the same float operations in the same order."""
    rows = np.arange(s.shape[0])
    si = s[rows, i]
    sj = s[rows, j]
    wi = weights[i]
    wj = weights[j]
    new_i = si + amount
    target = wi * _libm(math.log, si) + wj * _libm(math.log, sj)
    z = (target - wi * _libm(math.log, new_i)) / wj
    try:
        new_j = _libm(math.exp, z)
    except OverflowError:
        # Where _pair_swap raises, the row gets a non-finite coordinate.
        new_j = _libm(_exp_or_inf, z)
    out = s.copy()
    out[rows, i] = new_i
    out[rows, j] = new_j
    return out


def weighted_product(weights: Sequence[float]) -> SwapRule:
    """Rule holding prod s_i**w_i fixed; a pair trade touches only (i, j)."""
    w = as_weights(weights)

    def swap_in(s: np.ndarray, i: int, j: int, amount: float) -> np.ndarray:
        return _pair_swap(w, s, i, j, amount)

    def swap_batch(s: np.ndarray, i: np.ndarray, j: np.ndarray, amount: np.ndarray) -> np.ndarray:
        return _pair_swap_batch(w, s, i, j, amount)

    if w.size == 2:
        name = f"wgm:{_format_weight(w[0])}"
    else:
        name = "wprod:" + ",".join(_format_weight(v) for v in w)
    return SwapRule(name=name, dimension=int(w.size), swap_in=swap_in, weights=w,
                    swap_batch=swap_batch)


def wgm(weight: float) -> SwapRule:
    """Two-token weighted rule holding x**w * y**(1-w) fixed."""
    if not (isinstance(weight, (int, float)) and math.isfinite(weight)):
        raise ConfigError(f"wgm weight must be a finite number, got {weight!r}")
    if not (0.0 < weight < 1.0):
        raise ConfigError(f"wgm weight must lie strictly in (0, 1), got {weight!r}")
    return weighted_product((float(weight), 1.0 - float(weight)))


def product() -> SwapRule:
    """Constant-product rule xy = k, the equal-weight special case."""
    rule = wgm(0.5)
    return SwapRule(
        name="product",
        dimension=2,
        swap_in=rule.swap_in,
        weights=rule.weights,
        swap_batch=rule.swap_batch,
    )


def constant_sum() -> SwapRule:
    """Rule holding x + y fixed.  Violates validity and unit invariance."""

    def swap_in(s: np.ndarray, i: int, j: int, amount: float) -> np.ndarray:
        out = s.copy()
        out[i] = s[i] + amount
        out[j] = s[j] - amount
        return out

    def swap_batch(s: np.ndarray, i: np.ndarray, j: np.ndarray, amount: np.ndarray) -> np.ndarray:
        rows = np.arange(s.shape[0])
        out = s.copy()
        out[rows, i] = s[rows, i] + amount
        out[rows, j] = s[rows, j] - amount
        return out

    return SwapRule(name="csum", dimension=2, swap_in=swap_in, weights=None,
                    swap_batch=swap_batch)


def make_rule(spec: RuleSpec) -> SwapRule:
    """Build a SwapRule from a parsed spec; construction errors become ConfigError."""
    try:
        if spec.kind == "wgm":
            if spec.weight is None:
                raise ConfigError("wgm rule needs a weight")
            return wgm(spec.weight)
        if spec.kind == "product":
            return product()
        if spec.kind == "csum":
            return constant_sum()
        if spec.kind == "wprod":
            if not spec.weights:
                raise ConfigError("wprod rule needs a weight list")
            return weighted_product(spec.weights)
    except (DomainError, MalformedInputError) as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown rule kind {spec.kind!r}")


def parse_rule(text: str) -> SwapRule:
    """Parse 'wgm:<w>' | 'product' | 'csum' | 'wprod:<w1>,<w2>,...'."""
    text = text.strip()
    if text in ("product", "csum"):
        spec = RuleSpec(text)
    elif text.startswith("wgm:"):
        body = text[len("wgm:"):]
        try:
            spec = RuleSpec("wgm", weight=float(body))
        except ValueError as exc:
            raise ConfigError(f"bad wgm weight {body!r}") from exc
    elif text.startswith("wprod:"):
        body = text[len("wprod:"):]
        try:
            spec = RuleSpec("wprod", weights=tuple(float(part) for part in body.split(",")))
        except ValueError as exc:
            raise ConfigError(f"bad wprod weight list {body!r}") from exc
    else:
        raise ConfigError(f"unrecognized rule spec {text!r}")
    return make_rule(spec)


# swap() is three pieces: state checks, move checks and the trusted
# step.  _walk runs the state checks once and the other two every move.

def _in_domain(rule: SwapRule, a: np.ndarray) -> bool:
    # The default domain is the positive orthant; test it without is_valid's copy.
    return _positive(a) if rule.domain is is_valid else bool(rule.domain(a))


def _check_state(rule: SwapRule, s) -> np.ndarray:
    """Read-only float copy of s, which must be a state in rule's domain."""
    a = as_reserves(s)
    if a.size != rule.dimension:
        raise UsageError(f"rule {rule.name!r} is {rule.dimension}-token, state has {a.size}")
    if not _in_domain(rule, a):
        raise DomainError(f"state {a.tolist()} is outside the domain of rule {rule.name!r}")
    return a


def _check_move(n: int, i, j, amount) -> None:
    if not (_is_index(i) and _is_index(j) and i != j and 0 <= i < n and 0 <= j < n):
        raise UsageError(f"bad token pair ({i}, {j}) for dimension {n}")
    if (isinstance(amount, bool) or not isinstance(amount, (int, float, np.integer, np.floating))
            or not math.isfinite(amount)):
        raise UsageError(f"amount must be a finite number, got {amount!r}")
    if amount < 0.0:
        raise UsageError(f"amount must be nonnegative, got {amount!r}")


def _is_index(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _step(rule: SwapRule, a: np.ndarray, i: int, j: int, amount, fee: float = 0.0) -> np.ndarray:
    """Raw post-trade state for a checked state and move.

    A nonzero fee prices (1 - fee) * amount through the rule, banks the
    full amount in reserve i, and pays out of j what the priced trade does.
    """
    if fee:
        paid_out = float(a[j] - _step(rule, a, i, j, (1.0 - fee) * amount)[j])
        out = a.copy()
        out[i] += amount
        out[j] -= paid_out
        out.flags.writeable = False
        return out
    if amount == 0.0:
        return a
    try:
        out = np.asarray(rule.swap_in(a, i, j, float(amount)), dtype=float)
    except AmmError:
        raise
    except Exception as exc:
        raise NumericError(
            f"rule {rule.name!r} raised {type(exc).__name__} at {a.tolist()}, "
            f"pair ({i}, {j}), amount {amount!r}: {exc}"
        ) from exc
    if out.shape != a.shape or not all(map(math.isfinite, out.tolist())):
        raise NumericError(
            f"rule {rule.name!r} produced a non-finite result at {a.tolist()}, "
            f"pair ({i}, {j}), amount {amount!r}"
        )
    out.flags.writeable = False
    return out


def swap(rule: SwapRule, s, i: int, j: int, amount: float) -> np.ndarray:
    """Trade amount units of token i into the pool, receiving token j.

    Token indices must be integers and amount a finite nonnegative real
    (numpy scalars count; bools do not).  Returns the raw post-trade
    state.  The output is not required to be valid; validity of outputs
    is the harness's business.
    """
    a = _check_state(rule, s)
    _check_move(a.size, i, j, amount)
    return _step(rule, a, i, j, amount)


class _Walk(NamedTuple):
    """The start and each accepted state, the moves tried (amounts pinned),
    and the failure: None, the AmmError that step len(states) raised, or
    the out-of-domain state it produced."""

    states: list[np.ndarray]
    moves: list[Move]
    failure: AmmError | np.ndarray | None


def _walk(rule: SwapRule, s0, moves: Iterable[tuple], relative: bool = False,
          fee: float = 0.0) -> _Walk:
    """Apply moves (i, j, x) in turn from s0, up to the first failing step.

    x is the amount or, when relative, the fraction of reserve i to trade
    (the move must then name valid tokens), pinned as float(x * current[i]).
    s0 raises as in swap().  A step fails when swap()'s move checks or the
    step raise AmmError, or when its output leaves the rule's domain.
    """
    current = _check_state(rule, s0)
    states = [current]
    pinned: list[Move] = []
    for i, j, x in moves:
        amount = float(x * current[i]) if relative else x
        pinned.append((i, j, amount))
        try:
            _check_move(current.size, i, j, amount)
            current = _step(rule, current, i, j, amount, fee)
        except AmmError as exc:
            return _Walk(states, pinned, exc)
        if not _in_domain(rule, current):
            return _Walk(states, pinned, current)
        states.append(current)
    return _Walk(states, pinned, None)


def _describe_exit(walk: _Walk) -> str:
    """'at step k: swap(...) = ...' for a walk that left the domain."""
    i, j, amount = walk.moves[-1]
    return (f"at step {len(walk.states)}: swap({walk.states[-1].tolist()}, {i}, {j}, "
            f"{amount!r}) = {walk.failure.tolist()}")


def swap_rows(rule: SwapRule, s: np.ndarray, i: np.ndarray, j: np.ndarray,
              amount: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """swap() on every row through rule.swap_batch.

    Returns the outputs and a mask of the rows on which swap() returns
    rather than raises; rows swap() would reject are computed on a
    stand-in and masked out.  For rules whose domain is the default one.
    """
    ok = ((s > 0.0) & (s < math.inf)).all(axis=1) & (amount >= 0.0) & (amount < math.inf)
    if not ok.all():
        s = np.where(ok[:, None], s, 1.0)
        amount = np.where(ok, amount, 0.0)
    out = rule.swap_batch(s, i, j, amount)
    zero = amount == 0.0
    if zero.any():
        out = np.where(zero[:, None], s, out)
    return out, ok & np.isfinite(out).all(axis=1)


def out_amount(rule: SwapRule, s, i: int, j: int, amount: float) -> float:
    """Units of token j paid out for an input of amount units of token i."""
    before = as_reserves(s)
    after = swap(rule, s, i, j, amount)
    return float(before[j] - after[j])


def chain(rule: SwapRule, s0, moves: Sequence[Move]) -> Trajectory:
    """Run a sequence of swaps, checking every intermediate state.

    Raises ChainError naming the failing step (1-based in the message)
    if any post-swap state leaves the rule's domain; the exception
    carries the trajectory accumulated before the bad step.
    """
    walk = _walk(rule, s0, moves)
    if isinstance(walk.failure, AmmError):
        raise walk.failure
    done = tuple((int(i), int(j), float(a)) for i, j, a in walk.moves[:len(walk.states) - 1])
    trajectory = Trajectory(states=tuple(walk.states), moves=done)
    if walk.failure is not None:
        raise ChainError(f"chain left the domain of {rule.name!r} {_describe_exit(walk)}",
                         step=len(walk.states) - 1, partial=trajectory)
    return trajectory
