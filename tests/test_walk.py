"""The walker against a reference oracle.

reference_walk is a per-step walker written out here from the rule's
swap_in and domain: swap()'s move checks, the kernel call with its
zero-amount shortcut, error wrap and finite check, fee_swap's fee leg,
and the domain test.  _walk must match it on the states' bytes, the
pinned moves, and the failure's type and message or exit state.
"""

import functools
import gc
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ammorbit import (AmmError, ChainError, InternalError, MalformedInputError, NumericError,
                      SamplingError, TrialConfig, UsageError, chain, check_pareto, constant_sum,
                      fee_drift, parse_rule, product, sample_orbit, weighted_product, wgm)
from ammorbit import cli
from ammorbit.fees import _fold, fee_swap
from ammorbit.rules import _check_move, _check_state, _walk, is_valid
from ammorbit.state import _freeze


def reference_step(rule, s, i, j, amount, fee):
    """The post-trade state of a checked state s, as a read-only array."""
    _check_move(rule.dimension, i, j, amount)
    priced = (1.0 - fee) * amount if fee else amount
    out = s
    if priced != 0.0:
        where = f"at {s.tolist()}, pair ({i}, {j}), amount {priced!r}"
        try:
            out = np.asarray(rule.swap_in(s, i, j, float(priced)), dtype=float)
        except AmmError:
            raise
        except Exception as exc:
            raise NumericError(
                f"rule {rule.name!r} raised {type(exc).__name__} {where}: {exc}") from exc
        if not np.isfinite(out).all():
            raise NumericError(f"rule {rule.name!r} produced a non-finite result {where}")
    if fee:
        # Bank the full amount in reserve i; pay out of j what the priced trade does.
        paid_out = float(s[j]) - float(out[j])
        out = s.copy()
        out[i] = float(s[i]) + float(amount)
        out[j] = float(s[j]) - paid_out
    return _freeze(np.array(out))


def in_domain(rule, s):
    # The default domain is the positive orthant; is_valid raises on an
    # infinite coordinate rather than answering.
    if rule.domain is is_valid:
        return bool(np.all((s > 0.0) & (s < math.inf)))
    return rule.domain(s)


def reference_walk(rule, s0, moves, relative=False, fee=0.0):
    """(states, pinned moves, failure): the walk one reference_step at a time."""
    current = _check_state(rule, s0)
    if relative:
        moves = zip(*moves)
    states, pinned = [current], []
    for i, j, x in moves:
        # A drawn fraction of a huge reserve may overflow to inf, which the step refuses.
        with np.errstate(over="ignore"):
            amount = float(x * current[i]) if relative else x
        pinned.append((i, j, amount))
        try:
            current = reference_step(rule, current, i, j, amount, fee)
            inside = in_domain(rule, current)
        except AmmError as exc:
            return states, pinned, exc
        if not inside:
            return states, pinned, current
        states.append(current)
    return states, pinned, None


def assert_walks_match(rule, s0, moves, relative=False, fee=0.0):
    """_walk against reference_walk; returns the walk."""
    moves = tuple(moves) if relative else list(moves)
    states, pinned, failure = reference_walk(rule, s0, moves, relative, fee)
    walk = _walk(rule, s0, moves, relative, fee)
    assert walk.states.tobytes() == np.stack(states).tobytes()
    assert walk.states.shape == (len(states), rule.dimension)
    assert repr(walk.moves) == repr(pinned)
    if isinstance(failure, AmmError):
        assert type(walk.failure) is type(failure)
        assert str(walk.failure) == str(failure)
    elif failure is None:
        assert walk.failure is None
    else:
        assert isinstance(walk.failure, np.ndarray)
        assert walk.failure.tobytes() == failure.tobytes()
    return walk


def drawn_moves(rng, n, count, lo=1e-3, hi=1.0):
    """Columns (i, j, fraction) as the library draws them: lists of Python values."""
    i = rng.integers(0, n, count)
    j = (i + rng.integers(1, n, count)) % n
    x = np.exp(rng.uniform(math.log(lo), math.log(hi), count))
    return i.tolist(), j.tolist(), x.tolist()


def caller_moves(rng, n, count, scale):
    """Absolute moves, every fifth one of amount 0."""
    i, j, x = drawn_moves(rng, n, count)
    amounts = [0.0 if k % 5 == 0 else a * scale for k, a in enumerate(x)]
    return list(zip(i, j, amounts))


RULES = [wgm(w) for w in (1e-6, 0.1, 0.25, 0.3, 0.5, 0.7, 0.8, 0.9, 0.999999)] + [
    product(), constant_sum(), weighted_product([0.2, 0.3, 0.5]),
    weighted_product([0.1, 0.2, 0.3, 0.4])]


@pytest.mark.parametrize("fee", [0.0, 0.003])
@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_relative_walks_match_the_reference(rule, fee):
    rng = np.random.default_rng(11)
    start = np.exp(rng.uniform(-3.0, 3.0, rule.dimension)).tolist()
    assert_walks_match(rule, start, drawn_moves(rng, rule.dimension, 400), True, fee)


@pytest.mark.parametrize("fee", [0.0, 0.003])
@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_absolute_walks_with_zero_amounts_match_the_reference(rule, fee):
    rng = np.random.default_rng(12)
    start = np.exp(rng.uniform(-3.0, 3.0, rule.dimension)).tolist()
    assert_walks_match(rule, start, caller_moves(rng, rule.dimension, 400, 0.5), False, fee)


@pytest.mark.parametrize("fee", [0.0, 0.003])
def test_csum_overdraw_exits_match_the_reference(fee):
    rule = constant_sum()
    walk = assert_walks_match(rule, [1.0, 1.0], [(0, 1, 0.5), (0, 1, 0.75)], False, fee)
    assert walk.failure.tolist()[1] <= 0.0 and len(walk.states) == 2
    rng = np.random.default_rng(13)
    walk = assert_walks_match(rule, [1.0, 2.0], drawn_moves(rng, 2, 200, hi=1.5), True, fee)
    assert isinstance(walk.failure, np.ndarray)


def test_zero_amounts_and_int_amounts_match_the_reference():
    # With fee 0.9, the priced part of 5e-324 rounds to 0.0: the step then
    # skips the kernel, which from (2, 3) would not give back 3.0 exactly.
    for rule in (wgm(0.3), constant_sum(), weighted_product([0.2, 0.3, 0.5])):
        n = rule.dimension
        moves = [(0, 1, 5e-324), (0, 1, 0), (1, 0, 0.0), (0, 1, -0.0), (1, 0, 2),
                 (0, 1, np.float32(0.25)), (1, 0, np.int64(1)), (n - 1, 0, 5e-324)]
        for fee in (0.0, 0.003, 0.9):
            assert_walks_match(rule, [2.0, 3.0] + [1.0] * (n - 2), moves, False, fee)


def test_math_exp_overflow_raises_the_same_numeric_error():
    # exp's argument rounds past log(max float) next to the largest reserve.
    rule = wgm(0.8933989084592538)
    start = [2.25938280964016e-282, sys.float_info.max]
    for relative, moves in ((True, ([0], [1], [1e-17])), (False, [(0, 1, 2.25938280964016e-299)])):
        walk = assert_walks_match(rule, start, moves, relative)
        assert "raised OverflowError" in str(walk.failure)
    walk = assert_walks_match(rule, start, ([0], [1], [1e-17 / 0.997]), True, 0.003)
    assert "raised OverflowError" in str(walk.failure)


def test_overflowing_relative_amounts_match_the_reference():
    # Fractions up to 1e300 of the input reserve: the pinned amount can
    # overflow to inf (a UsageError) or the output reserve underflow to 0.
    failures = set()
    for seed in range(6):
        rng = np.random.default_rng(seed)
        for rule in (wgm(0.5), wgm(0.9), constant_sum(), weighted_product([0.2, 0.3, 0.5])):
            for fee in (0.0, 0.003):
                moves = drawn_moves(rng, rule.dimension, 64, hi=1e300)
                walk = assert_walks_match(rule, [1.0] * rule.dimension, moves, True, fee)
                failures.add(type(walk.failure).__name__)
                if isinstance(walk.failure, UsageError):
                    assert str(walk.failure) == "amount must be a finite number, got inf"
    assert {"UsageError", "ndarray"} <= failures


def test_three_token_fee_walk_exits_on_a_zero_reserve():
    # At trade 19,099 reserve 0 holds 5e-324, the priced output exp()
    # underflows to 0.0, and the fee leg s_j - (s_j - priced_j) pays all of
    # it out.  The exit is pinned here as the walk reaches it today.
    rule = parse_rule("wprod:0.2,0.3,0.5")
    trades = cli._random_trades(7, 3, 30000)
    walk = assert_walks_match(rule, [1.0, 1.0, 1.0], trades, True, 0.003)
    assert len(walk.states) == 19099
    assert walk.failure.tolist() == [0.0, 6.632243107104603e-64, 1.2196228189196703e+169]


def test_fee_leg_overflow_ends_the_walk_on_its_non_finite_state():
    # The priced trade is finite, but banking the full amount overflows
    # reserve i: the walk must stop there, not trade on from inf.
    assert fee_swap(wgm(0.5), [1e308, 1.0], 0, 1, 8e307, 0.5).tolist() == [
        math.inf, 0.7142857142857606]
    for rule in (wgm(0.5), parse_rule("wprod:0.2,0.3,0.5")):
        start = [1e308] + [1.0] * (rule.dimension - 1)
        for relative, trades in ((False, [(0, 1, 8e307), (0, 1, 1.0)]),
                                 (True, ([0, 0], [1, 1], [0.8, 0.1]))):
            walk = assert_walks_match(rule, start, trades, relative, 0.5)
            assert len(walk.states) == 1 and walk.failure[0] == math.inf
            with pytest.raises(MalformedInputError,
                               match=r"^non-finite reserve coordinate in \[inf, "):
                if relative:
                    _fold(rule, start, trades, 0.5, relative=True)
                else:
                    fee_drift(rule, start, trades, 0.5)


@pytest.mark.parametrize("fee", [0.0, 0.003])
def test_wrapped_swap_in_and_custom_domain_are_called_on_every_step(fee):
    rule = wgm(0.3)
    calls = []

    @functools.wraps(rule.swap_in)
    def wrapped(s, *args):
        assert not s.flags.writeable
        calls.append(args)
        return rule.swap_in(s, *args)

    domain_calls = []

    def domain(s):
        assert not s.flags.writeable
        domain_calls.append(s.tolist())
        return is_valid(s)

    moves = caller_moves(np.random.default_rng(14), 2, 50, 0.5)
    nonzero = sum(1 for move in moves if move[2] != 0.0)
    for variant, counter, expected in ((replace(rule, swap_in=wrapped), calls, nonzero),
                                       (replace(rule, domain=domain), domain_calls, 51)):
        walk = assert_walks_match(variant, [1.0, 2.0], moves, False, fee)
        assert walk.failure is None and len(walk.states) == 51
        before = len(counter)
        _walk(variant, [1.0, 2.0], moves, False, fee)
        # The domain is also asked about the start, once.
        assert len(counter) - before == expected
    assert domain_calls[-50:] == walk.states[1:].tolist()


def test_drawn_moves_are_checked_once_as_arrays():
    for bad in (([0], [0], [0.5]), ([0], [2], [0.5]), ([0], [1], [-0.5]),
                ([0], [1], [math.inf]), ([0, 1], [1], [0.5])):
        with pytest.raises(InternalError):
            _walk(wgm(0.5), [1.0, 1.0], bad, relative=True)


def test_caller_moves_are_checked_at_their_own_step():
    rule = constant_sum()
    # Step 1 leaves the domain; the bad pair at step 2 is never reached.
    with pytest.raises(ChainError) as err:
        chain(rule, [1.0, 1.0], [(0, 1, 5.0), (0, 7, 1.0)])
    assert err.value.step == 0 and "at step 1:" in str(err.value)
    # A bad move before any exit raises its own error, as swap() words it.
    cases = [((0, 0, 1.0), "bad token pair (0, 0) for dimension 2"),
             ((0, 1, -1.0), "amount must be nonnegative, got -1.0"),
             ((0, 1, math.nan), "amount must be a finite number, got nan"),
             ((0, 1, True), "amount must be a finite number, got True"),
             ((0.0, 1, 1.0), "bad token pair (0.0, 1) for dimension 2")]
    for bad, message in cases:
        for r in (rule, wgm(0.5)):
            with pytest.raises(UsageError) as err:
                chain(r, [1.0, 1.0], [(0, 1, 0.1), bad, (0, 1, 5.0)])
            assert str(err.value) == message
    with pytest.raises(UsageError, match="bad token pair"):
        fee_drift(wgm(0.5), [1.0, 1.0], [(0, 1, 0.1), (0, 2, 0.1)], 0.003)


def test_walk_results_are_the_walks_read_only_arrays():
    rule = wgm(0.3)
    capped = replace(rule, domain=lambda s: bool(np.all(s > 0.0) and s[0] < 2.0))
    orbit = sample_orbit(rule, [1.0, 2.0], 40, seed=3)
    drift = fee_drift(rule, [1.0, 2.0], [(0, 1, 0.5), (1, 0, 0.25), (0, 1, 0.0)], 0.003)
    trajectory = chain(rule, [1.0, 2.0], [(0, 1, 0.5), (1, 0, 0.25)])
    with pytest.raises(SamplingError) as sampling:
        sample_orbit(capped, [1.0, 2.0], 40, seed=3)
    with pytest.raises(ChainError) as chained:
        chain(capped, [1.0, 2.0], [(0, 1, 0.5), (0, 1, 5.0)])
    for array, shape in ((orbit.states, (41, 2)), (drift.states, (4, 2)),
                         (trajectory.states, (3, 2)), (sampling.value.partial.states, (15, 2)),
                         (chained.value.partial.states, (2, 2)), (drift.invariant_values, (4,))):
        assert isinstance(array, np.ndarray) and array.shape == shape and array.dtype == float
        assert not array.flags.writeable
        row = array[-1] if array.ndim == 2 else array
        with pytest.raises(ValueError):
            row[0] = 1.0
        with pytest.raises(ValueError):
            row += 1.0


def test_packed_walk_columns_read_as_python_numbers_after_collection():
    # A walk keeps its states in one packed buffer and its drawn columns as
    # views: moves read back as Python ints and floats, and tables as
    # read-only C-contiguous float64 arrays that outlive the walk's locals.
    rule = wgm(0.3)
    capped = replace(rule, domain=lambda s: bool(np.all(s > 0.0) and s[0] < 2.0))
    trades = cli._random_trades(7, 2, 50)
    want, _, _ = reference_walk(rule, [1.0, 2.0], trades, True, 0.003)
    walk = _walk(rule, [1.0, 2.0], trades, relative=True, fee=0.003)
    drift = _fold(rule, [1.0, 2.0], trades, 0.003, relative=True)[0]
    values = drift.invariant_values.tolist()
    orbit = sample_orbit(rule, [1.0, 2.0], 40, seed=3)
    with pytest.raises(SamplingError) as sampling:
        sample_orbit(capped, [1.0, 2.0], 40, seed=3)
    partial = sampling.value.partial
    trajectory = chain(rule, [1.0, 2.0], [(0, 1, 0.5), (1, 0, 0.25)])
    witness = check_pareto(constant_sum(), TrialConfig(seed=7, trials=10)).witness
    del trades, sampling
    gc.collect()
    litter = [[float(k)] * 4 for k in range(10**4)]  # reuses memory the collection freed
    for moves in (walk.moves, trajectory.moves, witness.inputs["moves"]):
        assert moves and all(list(map(type, move)) == [int, int, float] for move in moves)
    for array in (walk.states, drift.states, partial.states, drift.invariant_values):
        assert array.dtype == np.float64 and array.flags.c_contiguous
        assert not array.flags.writeable
    assert walk.states.tobytes() == drift.states.tobytes() == np.stack(want).tobytes()
    assert 0 < len(partial.states) < 41
    assert partial.states.tobytes() == orbit.states[:len(partial.states)].tobytes()
    assert drift.invariant_values.tolist() == values
    del litter


def test_orbit_sampling_holds_little_more_than_it_keeps():
    # What is kept is the walk's states array and its logs, 0.96 MB; the
    # peak exceeds it by the move columns, the pinned amounts and the
    # Philox words the fractions are read from.
    rule = wgm(0.5)
    sample_orbit(rule, [1.0, 1.0], 64)
    tracemalloc.start()
    try:
        sample = sample_orbit(rule, [1.0, 1.0], 30000)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sample.states) == 30001
    assert kept < 1.2e6 and peak < 2.5e6, (kept, peak)


def test_fee_fold_holds_little_more_than_it_keeps():
    # States, invariants and pinned amounts, 0.33 MB, are kept; the trades'
    # columns are read through views, not copied.
    rule = product()
    trades = cli._random_trades(7, 2, 10**4)
    _fold(rule, [1.0, 1.0], cli._random_trades(7, 2, 64), 0.003, relative=True)
    tracemalloc.start()
    try:
        series, walk = _fold(rule, [1.0, 1.0], trades, 0.003, relative=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series.states) == len(walk.tried[2]) + 1 == 10**4 + 1
    assert peak < 1.2e6, peak


def test_drawn_trades_hold_their_columns_and_one_block_of_draws():
    # Three packed columns, 1.6 MB, and the draws of one 4,096-trade block.
    cli._random_trades(7, 2, 64)
    tracemalloc.start()
    try:
        trades = cli._random_trades(7, 2, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(column) for column in trades] == [10**5] * 3
    assert peak < 3e6, peak
