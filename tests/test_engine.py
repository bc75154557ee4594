"""The batched trial engine against its scalar reference.

A rule with swap_batch is checked a block of trials at a time; the same
rule with swap_batch=None runs one trial at a time through the
predicates.  Both must give identical reports, down to the witness.
"""

import dataclasses
import json

import numpy as np
import pytest

from ammorbit import (
    InternalError,
    SwapRule,
    TrialConfig,
    check_all,
    check_pareto,
    check_validity_invariance,
    constant_sum,
    parse_rule,
    product,
    report_to_dict,
    shrink,
    weighted_product,
    wgm,
)
from ammorbit import axioms
from ammorbit.rand import log_uniform, trial_draws, trial_rng
from ammorbit.rules import _PairBatch, _screen_of

RULES = [f"wgm:{w}" for w in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)] + [
    "wgm:1e-6", "product", "wprod:0.2,0.3,0.5"]
SEEDS = [0, 7, 2**63 + 5]


def scalar(rule: SwapRule) -> SwapRule:
    return dataclasses.replace(rule, swap_batch=None)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("text", RULES)
def test_batched_reports_match_scalar_reference(text, seed):
    rule = parse_rule(text)
    assert rule.swap_batch is not None
    cfg = TrialConfig(seed=seed, trials=500)
    batched = [report_to_dict(r) for r in check_all(rule, cfg)]
    reference = [report_to_dict(r) for r in check_all(scalar(rule), cfg)]
    assert batched == reference


@pytest.mark.parametrize("ranges", [
    # amounts and rescaled states overflow to inf
    {"state_range": (1e-300, 1e300), "amount_range": (1e-30, 1e30)},
    # amounts underflow to zero, which swap() passes through untouched
    {"state_range": (1e-310, 1e-290), "amount_range": (1e-40, 1e-10)},
], ids=["overflow", "underflow"])
@pytest.mark.parametrize("text", ["wgm:0.3", "wgm:1e-6", "wprod:0.2,0.3,0.5"])
def test_batched_reports_match_at_extreme_ranges(text, ranges):
    rule = parse_rule(text)
    for seed in (0, 7):
        cfg = TrialConfig(seed=seed, trials=300, **ranges)
        batched = [report_to_dict(r) for r in check_all(rule, cfg)]
        assert batched == [report_to_dict(r) for r in check_all(scalar(rule), cfg)]


def extreme_inputs(rng: np.random.Generator, n: int, count: int):
    # Half the rows near 1, where np.log differs from libm most often,
    # half at extreme magnitudes.
    half = count // 2
    s = np.concatenate([log_uniform(rng, 0.5, 2.0, (half, n)),
                        log_uniform(rng, 1e-300, 1e300, (count - half, n))])
    i = rng.integers(0, n, count)
    j = (i + rng.integers(1, n, count)) % n
    amount = np.concatenate([s[np.arange(half), i[:half]] * log_uniform(rng, 1e-3, 1.0, half),
                             log_uniform(rng, 1e-300, 1e300, count - half)])
    # A tiny trade out of a reserve at the largest double: rounding can
    # push exp past it, so swap_in raises OverflowError for some weights.
    s[-1] = 1.0
    s[-1, 1] = np.finfo(float).max
    i[-1], j[-1], amount[-1] = 0, 1, 1e-300
    # The largest trade into the largest reserve: the input reserve
    # overflows to inf.
    s[-2] = np.finfo(float).max
    i[-2], j[-2], amount[-2] = 0, 1, np.finfo(float).max
    return s, i, j, amount


@pytest.mark.parametrize("rule", [wgm(1e-6), wgm(0.08), wgm(0.3), wgm(1.0 - 1e-6),
                                  weighted_product([0.2, 0.3, 0.5]),
                                  weighted_product([1e-6, 0.5, 0.5 - 1e-6]),
                                  weighted_product([0.1, 0.2, 0.3, 0.4]),
                                  product(), constant_sum()],
                         ids=lambda r: r.name)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_swap_batch_matches_swap_in_bit_for_bit(rule):
    s, i, j, amount = extreme_inputs(trial_rng(2030, rule.dimension), rule.dimension, 10_000)
    batch = rule.swap_batch(s, i, j, amount)
    for row in range(len(s)):
        try:
            want = rule.swap_in(s[row], int(i[row]), int(j[row]), float(amount[row]))
        except OverflowError:
            assert not np.all(np.isfinite(batch[row])), row
            continue
        assert batch[row].tobytes() == np.asarray(want).tobytes(), row
    if rule.name == "csum":
        # The cases the kernel must carry through: an overflowing input
        # reserve and trades that overdraw the output reserve.
        assert not np.all(np.isfinite(batch[-2]))
        assert np.any(batch < 0.0)


@pytest.mark.parametrize("w", [0.3, 0.9])
def test_overflowing_swap_is_a_violation_on_both_paths(w):
    big = float(np.finfo(float).max)
    cfg = TrialConfig(seed=3, trials=50, state_range=(big, big), amount_range=(1e-300, 1e-300))
    batched = report_to_dict(check_validity_invariance(wgm(w), cfg))
    assert not batched["passed"]
    assert "OverflowError" in batched["witness"]["observed"]
    assert batched == report_to_dict(check_validity_invariance(scalar(wgm(w)), cfg))


SCREENED = [wgm(1e-6), wgm(0.08), wgm(0.3), wgm(0.9), wgm(1.0 - 1e-6), product(),
            weighted_product([0.2, 0.3, 0.5]), weighted_product([1e-6, 0.5, 0.5 - 1e-6]),
            weighted_product([0.1, 0.2, 0.3, 0.4]),
            weighted_product([1e-6, 0.3, 0.3, 0.4 - 1e-6])]


@pytest.mark.parametrize("rule", SCREENED, ids=lambda r: r.name)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_screen_is_within_an_eighth_of_its_bound_and_vouches_for_no_libm_failure(rule):
    screen = _screen_of(rule)
    vouched_rows = 0
    for chunk in range(4):
        s, i, j, amount = extreme_inputs(trial_rng(2040 + chunk, rule.dimension),
                                         rule.dimension, 250_000)
        exact = rule.swap_batch(s, i, j, amount)
        out, bound = screen.screen(s, i, j, amount)
        vouched = np.isfinite(out).all(axis=1)
        # A row is vouched for whole or not at all, and never where libm
        # overflows, underflows to zero or raises.
        assert not np.any(np.isnan(out[vouched])) and np.all(np.isnan(out[~vouched]))
        assert not np.any(vouched & ~(np.isfinite(exact) & (exact > 0.0)).all(axis=1))
        distance = np.abs(out - exact)[vouched]
        assert np.all(distance <= bound[vouched] / 8.0 * np.abs(out[vouched]))
        vouched_rows += int(vouched.sum())
    # Most rows are vouched for, at extreme weights those that trade into
    # the light token too.
    assert vouched_rows > 400_000


def reports(rule, cfg, check=check_all):
    found = check(rule, cfg)
    return [report_to_dict(r) for r in (found if isinstance(found, list) else [found])]


BIG = float(np.finfo(float).max)
OVERFLOW = {"state_range": (BIG, BIG), "amount_range": (1e-300, 1e-300)}


@pytest.mark.parametrize("case", [
    *[(text, seed, {}, check_all) for text in ("wgm:0.3", "product", "wprod:0.2,0.3,0.5",
                                               "wgm:1e-6") for seed in (0, 7, 2**63 + 5)],
    *[(f"wgm:{w}", 3, OVERFLOW, check_validity_invariance) for w in (0.3, 0.9)],
], ids=lambda c: f"{c[0]}-{c[1]}-{'overflow' if c[2] else 'default'}")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_screen_perturbed_by_its_bound_changes_no_report(monkeypatch, case):
    text, seed, ranges, check = case
    rng = trial_rng(seed, 99)
    calls = []
    true_screen = _PairBatch.screen

    def perturbed(self, s, i, j, amount):
        out, bound = true_screen(self, s, i, j, amount)
        calls.append(len(s))
        return out * (1.0 + rng.choice([-1.0, 1.0], out.shape) * bound), bound

    monkeypatch.setattr(_PairBatch, "screen", perturbed)
    rule = parse_rule(text)
    cfg = TrialConfig(seed=seed, trials=300, **ranges)
    assert reports(rule, cfg, check) == reports(scalar(rule), cfg, check)
    assert calls


@pytest.mark.parametrize("text,tolerance", [("wgm:0.3", 1e-13), ("product", 1e-15)])
def test_a_tight_tolerance_sends_no_validity_or_pareto_row_to_swap_batch(
        monkeypatch, text, tolerance):
    # Validity and Pareto verdicts never read the tolerance, so the screen
    # clears their rows at any tolerance.
    exact_rows = dict.fromkeys(axioms._ENGINE, 0)
    for axiom, (draw, judge) in list(axioms._ENGINE.items()):
        def counted(rule, cfg, drawn, screen, axiom=axiom, judge=judge):
            if not screen:
                exact_rows[axiom] += len(next(iter(drawn.values())))
            return judge(rule, cfg, drawn, screen)

        monkeypatch.setitem(axioms._ENGINE, axiom, (draw, counted))
    rule = parse_rule(text)
    cfg = TrialConfig(seed=7, trials=2000, tolerance=tolerance)
    batched = reports(rule, cfg)
    assert exact_rows["validity_invariance"] == exact_rows["pareto_efficiency"] == 0
    assert batched == reports(scalar(rule), cfg)


def leaky_swap_in(s, i, j, amount):
    out = s[j] - (s[i] * s[j]) / (s[i] + amount)
    new = np.array(s, dtype=float)
    new[i] = s[i] + 0.99 * amount
    new[j] = s[j] - out
    return new


def leaky_swap_batch(s, i, j, amount):
    rows = np.arange(len(s))
    si = s[rows, i]
    sj = s[rows, j]
    out = sj - (si * sj) / (si + amount)
    new = s.copy()
    new[rows, i] = si + 0.99 * amount
    new[rows, j] = sj - out
    return new


def test_leaky_rule_fails_at_the_same_trial_with_the_same_witness():
    leaky = SwapRule(name="leaky", dimension=2, swap_in=leaky_swap_in,
                     swap_batch=leaky_swap_batch)
    cfg = TrialConfig(seed=7, trials=200)
    batched = check_pareto(leaky, cfg)
    assert not batched.passed
    assert report_to_dict(batched) == report_to_dict(check_pareto(scalar(leaky), cfg))


@pytest.mark.parametrize("seed", [0, 7, 123, 2**63 + 5])
def test_leaky_three_token_rule_fails_pareto_with_the_same_witness(seed):
    leaky = SwapRule(name="leaky3", dimension=3, swap_in=leaky_swap_in,
                     swap_batch=leaky_swap_batch)
    cfg = TrialConfig(seed=seed, trials=200)
    batched = report_to_dict(check_pareto(leaky, cfg))
    assert not batched["passed"]
    assert "dominating_index" in batched["witness"]["observed"]
    assert json.dumps(batched) == json.dumps(report_to_dict(check_pareto(scalar(leaky), cfg)))


def test_custom_swap_batch_is_never_screened(monkeypatch):
    def no_screen(self, *args):
        raise RuntimeError("a custom swap_batch was screened")

    monkeypatch.setattr(_PairBatch, "screen", no_screen)
    leaky = dataclasses.replace(wgm(0.3), swap_in=leaky_swap_in, swap_batch=leaky_swap_batch)
    assert _screen_of(leaky) is None
    cfg = TrialConfig(seed=7, trials=200)
    batched = reports(leaky, cfg, check_pareto)
    assert not batched[0]["passed"]
    assert batched == reports(scalar(leaky), cfg, check_pareto)
    # A replaced swap_batch alone judges too: its flagged trial does not
    # replay through wgm's own swap_in.
    assert _screen_of(dataclasses.replace(wgm(0.3), swap_batch=leaky_swap_batch)) is None
    with pytest.raises(InternalError):
        check_pareto(dataclasses.replace(wgm(0.3), swap_batch=leaky_swap_batch), cfg)
    # replace() keeps a built-in screen; csum's kernel calls no libm, so it has none.
    rule = product()
    assert _screen_of(rule) is rule.swap_batch
    assert _screen_of(constant_sum()) is None


def test_csum_with_batch_kernel_matches_reference():
    csum = constant_sum()
    assert csum.swap_batch is not None
    cfg = TrialConfig(seed=11, trials=300)
    batched = [report_to_dict(r) for r in check_all(csum, cfg)]
    assert batched == [report_to_dict(r) for r in check_all(scalar(csum), cfg)]
    assert [r["passed"] for r in batched] == [False, False, False, True]


def test_engine_raises_internal_error_when_predicate_disagrees(monkeypatch):
    monkeypatch.setitem(axioms._PREDICATES, "validity_invariance",
                        lambda rule, inputs, tol: (False, None, None))
    with pytest.raises(InternalError):
        check_validity_invariance(constant_sum(), TrialConfig(seed=7, trials=100))


def test_shrink_raises_internal_error_when_violation_is_lost(monkeypatch):
    report = check_validity_invariance(constant_sum(), TrialConfig(seed=7, trials=100))
    calls = []

    def replays_once(rule, inputs, tol):
        calls.append(inputs)
        return len(calls) == 1, None, None

    monkeypatch.setitem(axioms._PREDICATES, "validity_invariance", replays_once)
    with pytest.raises(InternalError):
        shrink(report, constant_sum())


def test_shrunk_chain_moves_are_lists():
    report = shrink(check_pareto(constant_sum(), TrialConfig(seed=7, trials=100)),
                    constant_sum())
    assert all(isinstance(move, list) for move in report.witness.inputs["moves"])


def scalar_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    # The one-at-a-time pair draw the engine's reader must reproduce.
    i = int(rng.integers(0, n))
    j = int(rng.integers(0, n - 1)) if n > 2 else 0
    return i, j + (j >= i)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_trial_streams_match_trial_rng(seed):
    trials = [0, 1, 5, 2**40 + 3]
    draws = trial_draws(seed, trials)
    ints = draws.integers([3])
    doubles = draws.log_uniform(1e-3, 1e3, 5)
    pairs = draws.integers([5, 4, 7])
    for k, trial in enumerate(trials):
        want = trial_rng(seed, trial)
        assert ints[k].tolist() == [want.integers(0, 3)]
        assert doubles[k].tolist() == log_uniform(want, 1e-3, 1e3, 5).tolist()
        assert pairs[k].tolist() == want.integers(0, [5, 4, 7]).tolist()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_chain_pair_draw_matches_scalar_pair_draws(n):
    cfg = TrialConfig(chain_length=33)
    trials = np.arange(50)
    draws = trial_draws(3, trials)
    drawn = axioms._draw_chain(draws, trials, cfg, n)
    after = draws.integers([7]), draws.log_uniform(1e-3, 1.0, 1)
    for trial in trials.tolist():
        rng = trial_rng(3, trial)
        assert drawn["start"][trial].tolist() == log_uniform(rng, *cfg.state_range, n).tolist()
        fractions = log_uniform(rng, *cfg.amount_range, cfg.chain_length)
        assert drawn["fractions"][trial].tolist() == fractions.tolist()
        pairs = [scalar_pair(rng, n) for _ in range(cfg.chain_length)]
        assert list(zip(drawn["token_in"][trial].tolist(),
                        drawn["token_out"][trial].tolist())) == pairs
        # Both streams stop at the same word and the same cached half.
        assert after[0][trial, 0] == rng.integers(0, 7)
        assert after[1][trial, 0] == log_uniform(rng, 1e-3, 1.0)


def test_sorted_frontier_never_clears_a_dominated_chain():
    # Four-state chains whose steps in x and y sit within a few dominance
    # margins, shuffled along the chain, so rounding decides many cases.
    rng = trial_rng(2031, 0)
    x = np.cumprod(1.0 + rng.uniform(0.0, 6e-12, (4000, 4)), axis=1)
    y = np.cumprod(1.0 - rng.uniform(-2e-12, 6e-12, (4000, 4)), axis=1)
    order = rng.permutation(4)
    x, y = x[:, order], y[:, order]
    chains = np.stack([x, y], axis=2)
    cleared = axioms._strict_frontier(x, y)
    dominated = axioms._dominance(chains).any(axis=(1, 2))
    assert not np.any(cleared & dominated)
    assert np.any(cleared) and np.any(dominated)
