"""Trading fees and what they do to the pool invariant.

A fee rate f keeps the post-trade state off the original orbit: only
(1 - f) * dx is priced through the rule, but the full dx lands in the
input reserve, so each trade pushes the invariant up.  Asymmetric
per-token scalings move the invariant by a predictable factor given by
scaling_factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import AmmError, ConfigError, DomainError, UsageError, require_real
from .rules import Move, SwapRule, _check_move, _check_state, _swap, _Walk, _walk, swap
from .state import _csv, _factors, _freeze, _gmean, _width, as_weights, rel_close

MATCH_TOL = 1e-12


def _check_fee(fee: float) -> float:
    require_real("fee", fee)
    if not (0.0 <= fee < 1.0):
        raise ConfigError(f"fee must lie in [0, 1), got {fee!r}")
    return float(fee)


def fee_swap(rule: SwapRule, s, i: int, j: int, amount: float, fee: float) -> np.ndarray:
    """Trade with a fee: price (1-fee)*amount, but bank the full amount.

    With fee == 0 this is exactly swap().  Otherwise the output leg is
    settled from the effective input and the fee stays in reserve i.
    """
    return _swap(rule, s, i, j, amount, _check_fee(fee))


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
    a = _check_state(rule, s)
    _check_move(a.size, i, j, amount)
    effective = (1.0 - fee) * amount
    held_back = fee * amount

    direct = fee_swap(rule, a, i, j, amount, fee)

    composed = swap(rule, a, i, j, effective).copy()
    composed[i] = composed[i] + held_back
    _freeze(composed)

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
    """A fee walk's states as one read-only (m, n) array, and the (m,) invariants at them."""

    rule: str
    fee: float
    states: np.ndarray
    invariant_values: np.ndarray

    def __post_init__(self):
        if len(self.states) != len(self.invariant_values):
            raise UsageError("drift series needs one invariant value per state")


def fee_drift(rule: SwapRule, s0, trades: Sequence[Move], fee: float) -> DriftSeries:
    """Fold fee trades from s0, recording the invariant after every step.

    The series includes the starting state, so it has len(trades) + 1
    entries.  The rule must declare a weight vector.
    """
    return _fold(rule, s0, trades, fee)[0]


def _fold(rule: SwapRule, s0, trades, fee: float,
          relative: bool = False) -> tuple[DriftSeries, _Walk]:
    """fee_drift over trades (i, j, x) as rules._walk takes them, and the
    walk.  Leaving the domain raises as swap() would."""
    fee = _check_fee(fee)
    if rule.weights is None:
        raise UsageError(f"rule {rule.name!r} declares no invariant to track")
    w = as_weights(rule.weights)
    if w.shape != (rule.dimension,):
        raise UsageError(f"weight dimension {w.shape} does not match state dimension "
                         f"{(rule.dimension,)}")
    walk = _walk(rule, s0, trades, relative=relative, fee=fee)
    if isinstance(walk.failure, AmmError):
        raise walk.failure
    if walk.failure is not None:
        _check_state(rule, walk.failure)  # raises, as swap() would on the next trade
    values = _freeze(np.array([_gmean(w, row) for row in np.log(walk.states)]))
    return DriftSeries(rule=rule.name, fee=fee, states=walk.states, invariant_values=values), walk


def scaling_factor(weights, factors) -> float:
    """Factor by which per-token rescaling moves the invariant: prod f_i**w_i."""
    w = as_weights(weights)
    try:
        f = _factors(factors, w.shape)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    return _gmean(w, np.log(f))


def drift_to_csv(series: DriftSeries) -> str:
    """CSV of the drift series; two-token header is step,x,y,phi."""
    return "".join(_drift_csv(series))


def _drift_csv(series: DriftSeries) -> Iterator[str]:
    n = _width(series.states)
    names = ["x", "y"] if n == 2 else [f"x{k + 1}" for k in range(n)]
    return _csv(",".join(["step", *names, "phi"]), np.arange(len(series.states)),
                series.states, series.invariant_values)
