"""Trading fees and what they do to the pool invariant.

A fee rate f keeps the post-trade state off the original orbit: only
(1 - f) * dx is priced through the rule, but the full dx lands in the
input reserve, so each trade pushes the invariant up.  Asymmetric
per-token scalings move the invariant by a predictable factor given by
scaling_factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import AmmError, ConfigError, UsageError
from .rules import Move, SwapRule, _check_move, _check_state, _step, _walk, swap
from .state import as_reserves, as_weights, rel_close

MATCH_TOL = 1e-12


def _check_fee(fee: float) -> float:
    if not (isinstance(fee, (int, float)) and math.isfinite(fee)):
        raise ConfigError(f"fee must be a finite number, got {fee!r}")
    if not (0.0 <= fee < 1.0):
        raise ConfigError(f"fee must lie in [0, 1), got {fee!r}")
    return float(fee)


def fee_swap(rule: SwapRule, s, i: int, j: int, amount: float, fee: float) -> np.ndarray:
    """Trade with a fee: price (1-fee)*amount, but bank the full amount.

    With fee == 0 this is exactly swap().  Otherwise the output leg is
    settled from the effective input and the fee stays in reserve i.
    """
    fee = _check_fee(fee)
    a = _check_state(rule, s)
    _check_move(a.size, i, j, amount)
    return _step(rule, a, i, j, amount, fee)


@dataclass(frozen=True)
class FeeDecomposition:
    """Three routes to the same fee trade, and how far apart they land.

    direct banks the fee as part of one trade; composed swaps the
    effective amount and then injects the fee; reversed injects the fee
    first and swaps on the shifted orbit.  direct and composed must agree
    to MATCH_TOL; reversed pays out strictly less whenever fee*amount > 0,
    which is why the order of the two steps matters.
    """

    direct: np.ndarray
    composed: np.ndarray
    reversed_order: np.ndarray
    out_direct: float
    out_composed: float
    out_reversed: float
    order_gap: float
    match_ok: bool
    order_ok: bool
    passed: bool


def decompose_check(rule: SwapRule, s, i: int, j: int, amount: float, fee: float) -> FeeDecomposition:
    """Compare the fee trade against its two-step decompositions."""
    fee = _check_fee(fee)
    a = as_reserves(s)
    effective = (1.0 - fee) * amount
    held_back = fee * amount

    direct = fee_swap(rule, a, i, j, amount, fee)

    composed = swap(rule, a, i, j, effective).copy()
    composed[i] = composed[i] + held_back
    composed.flags.writeable = False

    shifted = a.copy()
    shifted[i] = shifted[i] + held_back
    reversed_order = swap(rule, shifted, i, j, effective)

    out_direct = float(a[j] - direct[j])
    out_composed = float(a[j] - composed[j])
    out_reversed = float(a[j] - reversed_order[j])
    order_gap = out_composed - out_reversed

    match_ok = rel_close(direct, composed, MATCH_TOL)
    order_ok = (order_gap > 0.0) if held_back > 0.0 else True
    return FeeDecomposition(
        direct=direct,
        composed=composed,
        reversed_order=reversed_order,
        out_direct=out_direct,
        out_composed=out_composed,
        out_reversed=out_reversed,
        order_gap=order_gap,
        match_ok=match_ok,
        order_ok=order_ok,
        passed=bool(match_ok and order_ok),
    )


@dataclass(frozen=True)
class DriftSeries:
    """States and invariant values along a fee-charging trade sequence."""

    rule: str
    fee: float
    states: tuple[np.ndarray, ...]
    invariant_values: tuple[float, ...]

    def __post_init__(self):
        if len(self.states) != len(self.invariant_values):
            raise UsageError("drift series needs one invariant value per state")


def fee_drift(rule: SwapRule, s0, trades: Sequence[Move], fee: float) -> DriftSeries:
    """Fold fee trades from s0, recording the invariant after every step.

    The series includes the starting state, so it has len(trades) + 1
    entries.  The rule must declare a weight vector.
    """
    trades = ((int(i), int(j), float(amount)) for i, j, amount in trades)
    return _fold(rule, s0, trades, fee)[0]


def _fold(rule: SwapRule, s0, trades: Iterable[tuple], fee: float,
          relative: bool = False) -> tuple[DriftSeries, list[Move]]:
    """fee_drift over trades (i, j, x) as rules._walk takes them, and the
    trades with amounts pinned.  Leaving the domain raises as swap() would."""
    fee = _check_fee(fee)
    if rule.weights is None:
        raise UsageError(f"rule {rule.name!r} declares no invariant to track")
    w = as_weights(rule.weights)
    walk = _walk(rule, s0, trades, relative=relative, fee=fee)
    if isinstance(walk.failure, AmmError):
        raise walk.failure
    if walk.failure is not None:
        _check_state(rule, walk.failure)  # raises, as swap() would on the next trade
    # weighted_gmean's own float operations, one state at a time: a
    # stacked log or matrix product may round differently.
    values = tuple(math.exp(float(np.dot(w, np.log(a)))) for a in walk.states)
    series = DriftSeries(rule=rule.name, fee=fee, states=tuple(walk.states),
                         invariant_values=values)
    return series, walk.moves


def scaling_factor(weights, factors) -> float:
    """Factor by which per-token rescaling moves the invariant: prod f_i**w_i."""
    w = as_weights(weights)
    f = np.asarray(factors, dtype=float)
    if f.shape != w.shape:
        raise UsageError(f"factor dimension {f.shape} does not match weights {w.shape}")
    if not np.all(np.isfinite(f)) or not np.all(f > 0.0):
        raise ConfigError(f"scale factors must be positive and finite, got {f.tolist()}")
    return float(math.exp(float(np.dot(w, np.log(f)))))


def drift_to_csv(series: DriftSeries) -> str:
    """CSV of the drift series; two-token header is step,x,y,phi."""
    n = series.states[0].size
    if n == 2:
        header = "step,x,y,phi"
    else:
        header = "step," + ",".join(f"x{k + 1}" for k in range(n)) + ",phi"
    lines = [header]
    for step, (state, value) in enumerate(zip(series.states, series.invariant_values)):
        cells = [str(step)] + [format(float(v), ".17g") for v in state]
        cells.append(format(float(value), ".17g"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
