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
from array import array
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (AmmError, ChainError, ConfigError, DomainError, InternalError,
                     MalformedInputError, NumericError, UsageError, read_float, require_integer,
                     require_real)
from .state import _freeze, _positive, as_reserves, as_weights, is_valid, weighted_gmean

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
    with a non-finite row where swap_in would raise; it is passed only
    rows that swap() accepts, and never calls domain.  It is set to None
    when domain is not is_valid, or when it is the batch of a built-in
    rule whose swap_in is not this rule's.
    """

    name: str
    dimension: int
    swap_in: Callable[[np.ndarray, int, int, float], np.ndarray] = field(repr=False)
    weights: np.ndarray | None = None
    domain: Callable[[np.ndarray], bool] = field(default=is_valid, repr=False)
    swap_batch: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = (
        field(default=None, repr=False))

    def __post_init__(self):
        require_integer("dimension", self.dimension)
        if self.dimension < 2:
            raise ConfigError(f"dimension must be >= 2, got {self.dimension}")
        owner = getattr(self.swap_batch, "__self__", None)
        if self.domain is not is_valid or (type(owner) is _Pair and owner is not self.swap_in):
            object.__setattr__(self, "swap_batch", None)

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
    """A chain's states as one read-only (m, n) array; states[k] precedes moves[k]."""

    states: np.ndarray
    moves: tuple[Move, ...]

    def __post_init__(self):
        if len(self.states) != len(self.moves) + 1:
            raise UsageError("trajectory needs exactly one more state than moves")


def _format_weight(w: float) -> str:
    return repr(float(w))


def _weighted_pair(si, sj, wi, wj, amount, log, exp):
    new_i = si + amount
    return new_i, exp((wi * log(si) + wj * log(sj) - wi * log(new_i)) / wj)


def _sum_pair(si, sj, wi, wj, amount, log, exp):
    return si + amount, sj - amount


def _libm(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """fn (a math-module function) applied elementwise: np.log and np.exp
    may differ from libm in the last bit."""
    return lambda x: np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _exp_or_inf(x: float) -> float:
    """math.exp, or inf where it raises: the row gets a non-finite coordinate."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# log_chains' bound is in units of 64 epsilons: libm's log and exp are each
# within an ulp of the true value, and the weighted kernel rounds six times
# before its exp, so 8 cover a trade; 64 leave an 8x margin.  A chain counts
# only with a bound under 2**-20 and every state within [2**-1000, 2**1000],
# far from libm's underflow and overflow.
_EPS = float(np.finfo(float).eps)
_SCREEN_ULPS = 64.0 * _EPS
_SCREEN_CAP, _SCREEN_RANGE = 2.0 ** -20, (2.0 ** -1000, 2.0 ** 1000)


class _Pair:
    """A built-in rule's trade, kernel(s_i, s_j, w_i, w_j, amount, log, exp).
    Called, it is swap_in: the kernel on floats, as the trusted step runs it.
    rows, the rule's swap_batch, runs it on gathered rows with libm per
    element, equal to swap_in bit for bit; log_chains bounds whole chains.
    A wrapper, even one made by functools.wraps, is not a _Pair."""

    __slots__ = ("kernel", "w")

    def __init__(self, kernel: Callable[..., tuple], w: np.ndarray):
        self.kernel, self.w = kernel, w

    def __call__(self, s: np.ndarray, i: int, j: int, amount: float) -> np.ndarray:
        out = s.copy()
        # On Python floats an overflow makes inf without a numpy warning.
        out[i], out[j] = self.kernel(float(s[i]), float(s[j]), float(self.w[i]),
                                     float(self.w[j]), float(amount), math.log, math.exp)
        return out

    @np.errstate(over="ignore")
    def rows(self, s: np.ndarray, i: np.ndarray, j: np.ndarray,
             amount: np.ndarray) -> np.ndarray:
        rows = np.arange(s.shape[0])
        out = s.copy()
        out[rows, i], out[rows, j] = self.kernel(s[rows, i], s[rows, j], self.w[i], self.w[j],
                                                 amount, _libm(math.log), _libm(_exp_or_inf))
        return out

    def log_chains(self, start, i, j, fractions) -> tuple[np.ndarray, np.ndarray]:
        """(logs, delta): the (B, L + 1, n) logs of the chains from start that
        trade fractions (B, L) of reserve i into j, and a (B,) bound delta,
        |log(swap_batch's chain) - logs| <= delta, inf where a chain may leave
        the counted range.  A trade of fraction x moves log s by
        log1p(x) (e_i - (w_i / w_j) e_j) whatever the state, so logs is one
        cumulative sum; swap_batch's errors add up along it, as new_j depends
        on s_i only through new_i / s_i."""
        rows, steps = np.arange(len(i))[:, None], np.arange(1, i.shape[1] + 1)
        ratio = self.w[i] / self.w[j]
        step = np.log1p(fractions)
        logs = np.zeros((len(i), steps.size + 1, self.w.size))
        logs[:, 0] = np.log(start)
        logs[rows, steps, i] = step
        logs[rows, steps, j] = -ratio * step
        np.cumsum(logs, axis=1, out=logs)
        top = np.maximum(logs.max(axis=(1, 2)), -logs.min(axis=(1, 2)))
        # A trade's log new_j is within 64 eps ((|log s_i| + |log s_j| + |log
        # new_i| + w_i) / w_j + 2) of the exact one: the exp argument's error is
        # at most the sum of |log|s over w_j, new_i rounds once, and by w_i / w_j
        # through the exp; the exp adds its ulp.  Summed with each |log| at most
        # top, then the rounding of np.log, log1p, the ratio and the sum.
        delta = _SCREEN_ULPS * (3.0 * top * (1.0 / self.w[j]).sum(axis=1) + ratio.sum(axis=1)
                                + 2.0 * steps.size)
        delta += 4.0 * (steps.size + 2) * _EPS * (top + (step * (1.0 + ratio)).sum(axis=1))
        counts = (top + delta < math.log(_SCREEN_RANGE[1])) & (delta < _SCREEN_CAP)
        return logs, np.where(counts, delta, math.inf)


def _pair_rule(name: str, kernel: Callable[..., tuple], w: np.ndarray,
               weights: np.ndarray | None) -> SwapRule:
    """A rule whose swap_in is _Pair(kernel, w) and whose swap_batch is its rows."""
    pair = _Pair(kernel, w)
    return SwapRule(name=name, dimension=int(w.size), swap_in=pair, weights=weights,
                    swap_batch=pair.rows)


def _screen_of(rule: SwapRule) -> _Pair | None:
    """The _Pair whose rows are rule.swap_batch, which SwapRule makes its
    swap_in, if its kernel is the weighted one that log_chains bounds."""
    pair = getattr(rule.swap_batch, "__self__", None)
    return pair if type(pair) is _Pair and pair.kernel is _weighted_pair else None


def weighted_product(weights: Sequence[float]) -> SwapRule:
    """Rule holding prod s_i**w_i fixed; a pair trade touches only (i, j)."""
    w = as_weights(weights)
    if w.size == 2:
        name = f"wgm:{_format_weight(w[0])}"
    else:
        name = "wprod:" + ",".join(_format_weight(v) for v in w)
    return _pair_rule(name, _weighted_pair, w, weights=w)


def wgm(weight: float) -> SwapRule:
    """Two-token weighted rule holding x**w * y**(1-w) fixed."""
    require_real("wgm weight", weight)
    if not (0.0 < weight < 1.0):
        raise ConfigError(f"wgm weight must lie strictly in (0, 1), got {weight!r}")
    return weighted_product((float(weight), 1.0 - float(weight)))


def product() -> SwapRule:
    """Constant-product rule xy = k, the equal-weight special case."""
    return replace(wgm(0.5), name="product")


def constant_sum() -> SwapRule:
    """Rule holding x + y fixed.  Violates validity and unit invariance."""
    return _pair_rule("csum", _sum_pair, np.ones(2), weights=None)


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
    if not isinstance(text, str):
        raise ConfigError(f"a rule spec must be a string, got {text!r}")
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
# step, _stepper.  _walk runs the state checks once, the move checks once per
# move (once per walk, as arrays, for moves the library drew) and a step per move.

def _check_state(rule: SwapRule, s) -> np.ndarray:
    """Read-only float copy of s, which must be a state in rule's domain."""
    a = as_reserves(s)
    if a.size != rule.dimension:
        raise UsageError(f"rule {rule.name!r} is {rule.dimension}-token, state has {a.size}")
    # The default domain is the positive orthant; test it without is_valid's copy.
    if not (_positive(a) if rule.domain is is_valid else rule.domain(a)):
        raise DomainError(f"state {a.tolist()} is outside the domain of rule {rule.name!r}")
    return a


def _check_move(n: int, i, j, amount) -> None:
    if not (_is_index(i) and _is_index(j) and i != j and 0 <= i < n and 0 <= j < n):
        raise UsageError(f"bad token pair ({i}, {j}) for dimension {n}")
    if not math.isfinite(read_float(amount)):
        raise UsageError(f"amount must be a finite number, got {amount!r}")
    if amount < 0.0:
        raise UsageError(f"amount must be nonnegative, got {amount!r}")


def _is_index(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_drawn(n: int, i, j, x) -> tuple[memoryview, memoryview, memoryview]:
    """Drawn columns i, j, x as int, int and float views, once checked to be valid moves."""
    i, j, x = np.asarray(i), np.asarray(j), np.asarray(x, float)
    if not (i.dtype.kind == j.dtype.kind == "i" and i.ndim == 1 and i.shape == j.shape == x.shape
            and np.all((i != j) & (np.minimum(i, j) >= 0) & (np.maximum(i, j) < n)
                       & (x >= 0.0) & (x < math.inf))):
        raise InternalError(f"drawn moves are not valid moves for dimension {n}")
    return memoryview(i), memoryview(j), memoryview(x)


def _failed_at(rule: SwapRule, state: list, i, j, amount, exc: Exception | None = None) -> str:
    """NumericError text for a step that raised exc, or that made a non-finite state."""
    where = f"at {state}, pair ({i}, {j}), amount {amount!r}"
    if exc is None:
        return f"rule {rule.name!r} produced a non-finite result {where}"
    return f"rule {rule.name!r} raised {type(exc).__name__} {where}: {exc}"


def _stepper(rule: SwapRule, fee: float = 0.0):
    """step(s, i, j, amount): the raw post-trade state of a checked move from
    a state s in rule's domain, both lists of floats.  A _Pair's kernel
    runs on the floats, any other swap_in on a read-only array.  A nonzero
    fee prices (1 - fee) * amount through the rule, banks the full amount in
    reserve i, and pays out of j what the priced trade does."""
    swap_in, pair = rule.swap_in, type(rule.swap_in) is _Pair
    kernel, w = (swap_in.kernel, swap_in.w.tolist()) if pair else (None, None)
    log, exp, inf = math.log, math.exp, math.inf

    def step(s: list, i: int, j: int, amount) -> list:
        priced = (1.0 - fee) * amount if fee else amount
        out = s
        if priced != 0.0:
            try:
                if pair:
                    new_i, new_j = kernel(s[i], s[j], w[i], w[j], float(priced), log, exp)
                    finite = -inf < new_i < inf and -inf < new_j < inf
                    out = s.copy()
                    out[i], out[j] = new_i, new_j
                else:
                    a = np.asarray(swap_in(_freeze(np.array(s)), i, j, float(priced)), float)
                    out = a.tolist()
                    finite = a.shape == (len(s),) and all(map(math.isfinite, out))
            except AmmError:
                raise
            except Exception as exc:
                raise NumericError(_failed_at(rule, s, i, j, priced, exc)) from exc
            if not finite:
                raise NumericError(_failed_at(rule, s, i, j, priced))
        if fee:
            paid_out = s[j] - out[j]
            out = s.copy()
            out[i], out[j] = s[i] + float(amount), s[j] - paid_out
        return out

    return step


def _swap(rule: SwapRule, s, i: int, j: int, amount, fee: float = 0.0) -> np.ndarray:
    """swap() with a checked fee: the state and move checks, then one step."""
    a = _check_state(rule, s)
    _check_move(a.size, i, j, amount)
    return _freeze(np.array(_stepper(rule, fee)(a.tolist(), i, j, amount)))


def swap(rule: SwapRule, s, i: int, j: int, amount: float) -> np.ndarray:
    """Trade amount units of token i into the pool, receiving token j.

    Token indices must be integers and amount a finite nonnegative real
    (numpy scalars count; bools do not).  Returns the raw post-trade
    state.  The output is not required to be valid; validity of outputs
    is the harness's business.
    """
    return _swap(rule, s, i, j, amount)


class _Walk(NamedTuple):
    """A walk's states as one read-only (m, n) array, the moves it tried as columns
    i, j and pinned amount (i and j may run on past the last), and None or what
    ended step m: an AmmError or the out-of-domain state."""

    states: np.ndarray
    tried: tuple[Sequence, Sequence, Sequence]
    failure: AmmError | np.ndarray | None

    @property
    def moves(self) -> list[Move]:
        return list(zip(*self.tried))


def _walk(rule: SwapRule, s0, moves, relative: bool = False, fee: float = 0.0) -> _Walk:
    """The walk from s0, checked as in swap(), through moves (i, j, amount), each
    checked at its own step, or when relative through the drawn columns i, j and
    fraction of reserve i, up to the first step that raises AmmError or leaves the
    domain."""
    start = _check_state(rule, s0)
    n = start.size
    step, default, inf = _stepper(rule, fee), rule.domain is is_valid, math.inf
    if relative:
        i_col, j_col, x_col = _check_drawn(n, *moves)
        tried = (i_col, j_col, array("d"))
        moves = zip(i_col, j_col, x_col)
    else:
        tried = ([], [], [])
        try:
            moves = iter(moves)
        except TypeError:
            raise UsageError(f"moves must be a sequence of (i, j, amount), got {moves!r}") from None
    pinned = tried[2]
    current = start.tolist()
    states = array("d", current)
    failure = None
    for move in moves:
        try:
            i, j, x = move
        except (TypeError, ValueError):
            failure = UsageError(f"a move is three values (i, j, amount), got {move!r}")
            break
        if relative:
            amount = x * current[i]
        else:
            amount = x
            tried[0].append(i)
            tried[1].append(j)
        pinned.append(amount)
        try:
            if not (relative and amount < inf):
                _check_move(n, i, j, amount)
            current = step(current, i, j, amount)
            # The fee leg can overflow reserve i after the priced trade passed;
            # no step makes a NaN, so the default domain is min > 0 without inf.
            if not (0.0 < min(current) and inf not in current if default
                    else rule.domain(_freeze(np.array(current)))):
                failure = _freeze(np.array(current))
                break
        except AmmError as exc:
            failure = exc
            break
        states.fromlist(current)
    return _Walk(_freeze(np.frombuffer(states).reshape(-1, n)), tried, failure)


def _describe_exit(walk: _Walk) -> str:
    """'at step k: swap(...) = ...' for a walk that left the domain, 'at step k: error' else."""
    k = len(walk.states)
    if isinstance(walk.failure, AmmError):
        return f"at step {k}: {walk.failure}"
    i, j, amount = (column[k - 1] for column in walk.tried)
    return (f"at step {k}: swap({walk.states[-1].tolist()}, {i}, {j}, "
            f"{amount!r}) = {walk.failure.tolist()}")


def swap_rows(rule: SwapRule, s: np.ndarray, i: np.ndarray, j: np.ndarray,
              amount: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """swap() on every row through rule.swap_batch.

    Returns the outputs and a mask of the rows on which swap() returns
    rather than raises; rows swap() would reject are computed on a stand-in
    and masked out.  For rules whose domain is the default one.
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
    trajectory = Trajectory(states=walk.states, moves=done)
    if walk.failure is not None:
        raise ChainError(f"chain left the domain of {rule.name!r} {_describe_exit(walk)}",
                         step=len(walk.states) - 1, partial=trajectory)
    return trajectory
