"""The batched trial engine against its scalar reference.

A rule with swap_batch is checked a block of trials at a time; the same
rule with swap_batch=None runs one trial at a time through the
predicates.  Both must give identical reports, down to the witness.
"""

import dataclasses
import decimal
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ammorbit.rules import _Pair, _screen_of, swap_rows

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


def reports(rule, cfg, check=check_all):
    found = check(rule, cfg)
    return [report_to_dict(r) for r in (found if isinstance(found, list) else [found])]


BIG = float(np.finfo(float).max)
OVERFLOW = {"state_range": (BIG, BIG), "amount_range": (1e-300, 1e-300)}


@pytest.mark.parametrize("case", [
    *[(text, seed, {}, check_all) for text in ("wgm:0.3", "product", "wprod:0.2,0.3,0.5",
                                               "wgm:1e-6") for seed in (0, 7, 2**63 + 5)],
    # Chains that start at the largest double: log_chains vouches for none.
    *[(f"wgm:{w}", 3, OVERFLOW, check_pareto) for w in (0.3, 0.9)],
], ids=lambda c: f"{c[0]}-{c[1]}-{'overflow' if c[2] else 'default'}")
def test_screen_perturbed_by_its_bound_changes_no_report(monkeypatch, case):
    text, seed, ranges, check = case
    # Each chain's logs move by its delta, with random signs per coordinate.
    rng = trial_rng(seed, 99)
    chain_calls = []
    true_chains = _Pair.log_chains

    def perturbed_chains(self, start, i, j, fractions):
        logs, delta = true_chains(self, start, i, j, fractions)
        chain_calls.append(len(start))
        shift = np.where(np.isfinite(delta), delta, 0.0)[:, None, None]
        return logs + rng.choice([-1.0, 1.0], logs.shape) * shift, delta

    monkeypatch.setattr(_Pair, "log_chains", perturbed_chains)
    rule = parse_rule(text)
    cfg = TrialConfig(seed=seed, trials=300, **ranges)
    assert reports(rule, cfg, check) == reports(scalar(rule), cfg, check)
    assert chain_calls


def counted_exact_rows(monkeypatch) -> dict:
    """Rows each axiom's exact stage sees, counted as the run goes: the
    validity, unit and symmetry rows sent to swap_batch, and the chains
    that reach the scalar verdict."""
    exact_rows = dict.fromkeys(axioms._ENGINE, 0)
    for axiom, (draw, judge) in list(axioms._ENGINE.items()):
        def counted(rule, cfg, drawn, axiom=axiom, judge=judge):
            if axiom != "pareto_efficiency":
                exact_rows[axiom] += len(next(iter(drawn.values())))
            return judge(rule, cfg, drawn)

        monkeypatch.setitem(axioms._ENGINE, axiom, (draw, counted))
    verdict = axioms._scalar_verdict

    def counted_verdict(rule, cfg, axiom, trial):
        if axiom == "pareto_efficiency":
            exact_rows[axiom] += 1
        return verdict(rule, cfg, axiom, trial)

    monkeypatch.setattr(axioms, "_scalar_verdict", counted_verdict)
    return exact_rows


@pytest.mark.parametrize("text", ["wgm:0.3", "product", "wprod:0.2,0.3,0.5"])
def test_every_single_swap_row_reaches_swap_batch_and_no_chain_does(monkeypatch, text):
    # Rows drawn per axiom, counted before counted_exact_rows wraps the judges.
    drawn_rows = dict.fromkeys(axioms._ENGINE, 0)
    for axiom, (draw, judge) in list(axioms._ENGINE.items()):
        def counted_draw(draws, trials, cfg, n, axiom=axiom, draw=draw):
            drawn_rows[axiom] += len(trials)
            return draw(draws, trials, cfg, n)

        monkeypatch.setitem(axioms._ENGINE, axiom, (counted_draw, judge))
    exact_rows = counted_exact_rows(monkeypatch)
    rule = parse_rule(text)
    cfg = TrialConfig(seed=7, trials=2000)
    batched = reports(rule, cfg)
    single_swap = [a for a in axioms._ENGINE if a != "pareto_efficiency"]
    assert all(exact_rows[a] == drawn_rows[a] for a in single_swap)
    assert all(drawn_rows[r["axiom"]] >= r["trials"] for r in batched)
    assert exact_rows["pareto_efficiency"] == 0 and drawn_rows["pareto_efficiency"] == 2000
    assert batched == reports(scalar(rule), cfg)


@pytest.mark.parametrize("text", ["wgm:0.3", "product", "wprod:0.2,0.3,0.5"])
def test_the_certificate_clears_every_pareto_chain_at_the_default_tolerance(monkeypatch, text):
    exact_rows = counted_exact_rows(monkeypatch)
    for seed in SEEDS:
        assert check_pareto(parse_rule(text), TrialConfig(seed=seed, trials=2000)).passed
    assert exact_rows["pareto_efficiency"] == 0


def test_chains_the_certificate_does_not_clear_reach_the_scalar_verdict(monkeypatch):
    exact_rows = counted_exact_rows(monkeypatch)
    assert check_pareto(parse_rule("wprod:0.01,0.01,0.98"),
                        TrialConfig(seed=7, trials=10_000)).passed
    assert exact_rows["pareto_efficiency"] > 0


@pytest.mark.parametrize("text", ["csum", "wgm:1e-6", "wgm:0.999999"])
def test_a_failing_chain_is_walked_once_and_replayed_once(monkeypatch, text):
    # The first violating chain ends the block: no chain after it is walked.
    walks = []
    walk = axioms._walk

    def counted(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(axioms, "_walk", counted)
    report = check_pareto(parse_rule(text), TrialConfig(seed=7, trials=10_000))
    assert not report.passed and report.trials == 1
    assert len(walks) == 2


def test_a_replaced_domain_is_judged_by_swap_on_every_route():
    # Reserve 0 capped at 2, which the batch path and log_chains never check.
    capped = dataclasses.replace(wgm(0.3),
                                 domain=lambda s: bool(np.all(s > 0.0) and s[0] < 2.0))
    assert _screen_of(capped) is None and capped.swap_batch is None
    cfg = TrialConfig(seed=7, trials=200)
    batched = reports(capped, cfg)
    assert batched == reports(scalar(capped), cfg)
    assert not any(r["passed"] for r in batched)
    assert "outside the domain" in batched[0]["witness"]["observed"]


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

    monkeypatch.setattr(_Pair, "log_chains", no_screen)
    leaky = dataclasses.replace(wgm(0.3), swap_in=leaky_swap_in, swap_batch=leaky_swap_batch)
    assert _screen_of(leaky) is None
    cfg = TrialConfig(seed=7, trials=200)
    batched = reports(leaky, cfg, check_pareto)
    assert not batched[0]["passed"]
    assert batched == reports(scalar(leaky), cfg, check_pareto)
    # A replaced swap_batch alone judges validity too: its flagged trial
    # does not replay through wgm's own swap_in.
    broken = dataclasses.replace(wgm(0.3), swap_batch=lambda s, i, j, amount: s * np.nan)
    assert _screen_of(broken) is None
    with pytest.raises(InternalError):
        check_validity_invariance(broken, cfg)
    # replace() keeps a built-in log_chains; csum's kernel calls no libm, so it has none.
    rule = product()
    assert _screen_of(rule) is rule.swap_in
    assert _screen_of(constant_sum()) is None


def test_a_replaced_swap_in_is_judged_by_swap_alone():
    # Product's batch and certificate are not csum's: csum's swap_in judges alone.
    cfg = TrialConfig(seed=7, trials=1000)
    mixed = dataclasses.replace(product(), name="sum-in-product",
                                swap_in=constant_sum().swap_in)
    assert mixed.swap_batch is None and _screen_of(mixed) is None
    want = [{**r, "rule": "sum-in-product"} for r in reports(constant_sum(), cfg)]
    assert reports(mixed, cfg) == want
    assert not all(r["passed"] for r in want)
    leaky = dataclasses.replace(product(), name="leaky", swap_in=leaky_swap_in)
    assert leaky.swap_batch is None
    batched = reports(leaky, cfg, check_pareto)
    assert not batched[0]["passed"]
    plain = SwapRule(name="leaky", dimension=2, swap_in=leaky_swap_in)
    assert batched == reports(plain, cfg, check_pareto)


def test_a_borrowed_built_in_swap_batch_is_dropped():
    borrowed = dataclasses.replace(wgm(0.3), swap_batch=wgm(0.7).swap_batch)
    assert borrowed.swap_batch is None and _screen_of(borrowed) is None
    cfg = TrialConfig(seed=7, trials=300)
    assert reports(borrowed, cfg) == reports(wgm(0.3), cfg)
    rule = wgm(0.3)
    assert dataclasses.replace(rule, name="renamed").swap_batch is rule.swap_batch


def test_pareto_chains_are_walked_through_swap_not_a_custom_swap_batch():
    def raising(s, i, j, amount):
        raise RuntimeError("a Pareto chain was walked through swap_batch")

    rule = dataclasses.replace(wgm(0.3), swap_batch=raising)
    cfg = TrialConfig(seed=7, trials=200)
    report = check_pareto(rule, cfg)
    assert report.passed
    assert report_to_dict(report) == report_to_dict(check_pareto(scalar(rule), cfg))


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


# The Pareto judge: a chain's logs in one cumulative sum, within
# delta of the exact chain's, and the invariant-window certificate on them.

def exact_chains(rule: SwapRule, drawn: dict) -> tuple[np.ndarray, np.ndarray]:
    """The states of each drawn chain walked through swap_batch, bit for bit
    the states swap() reaches, and whether every step stayed valid."""
    i, j, x = drawn["token_in"], drawn["token_out"], drawn["fractions"]
    rows = np.arange(len(i))
    states = [np.asarray(drawn["start"], dtype=float)]
    alive = np.ones(len(i), dtype=bool)
    for k in range(i.shape[1]):
        current = states[-1]
        out, ok = swap_rows(rule, current, i[:, k], j[:, k], x[:, k] * current[rows, i[:, k]])
        alive &= ok & (out > 0.0).all(axis=1)
        states.append(np.where(alive[:, None], out, current))
    return np.stack(states, axis=1), alive


def certified(rule: SwapRule, drawn: dict) -> np.ndarray:
    batch = _screen_of(rule)
    logs, delta = batch.log_chains(drawn["start"], drawn["token_in"], drawn["token_out"],
                                   drawn["fractions"])
    return axioms._certified(logs, delta, batch.w)


def flagged(rule: SwapRule, drawn: dict) -> np.ndarray:
    """The scalar verdict of each drawn chain."""
    cfg = TrialConfig(chain_length=drawn["fractions"].shape[1])
    return np.array([axioms._scalar_verdict(rule, cfg, "pareto_efficiency",
                                            axioms._trial(drawn, k))[1]
                     for k in range(len(drawn["start"]))], dtype=bool)


def test_certificate_never_clears_a_near_return_chain_the_exact_judge_flags():
    # Trade x from i to j, then y back from j to i with log1p(y) =
    # (w_i / w_j) log1p(x) + e: the chain returns to its start but for e on
    # coordinate j and -e w_j / w_i on i.  With |e| a few margins, rounding
    # decides whether the return dominates the start.
    cleared_any = flagged_any = False
    for text in ("wgm:0.3", "product", "wprod:0.2,0.3,0.5"):
        rule = parse_rule(text)
        w, n, count = rule.weights, rule.dimension, 4000
        rng = trial_rng(2032, n)
        i = rng.integers(0, n, count)
        j = (i + rng.integers(1, n, count)) % n
        x = log_uniform(rng, 1e-3, 1.0, count)
        e = rng.choice([-1.0, 1.0], count) * log_uniform(rng, 1e-14, 1e-6, count)
        y = np.expm1(np.log1p(x) * w[i] / w[j] + e)
        drawn = {"start": log_uniform(rng, 1e-6, 1e6, (count, n)),
                 "token_in": np.stack([i, j], axis=1), "token_out": np.stack([j, i], axis=1),
                 "fractions": np.stack([x, y], axis=1)}
        cleared, bad = certified(rule, drawn), flagged(rule, drawn)
        assert not np.any(cleared & bad), text
        cleared_any |= bool(cleared.any())
        flagged_any |= bool(bad.any())
    assert cleared_any and flagged_any


EXTREME = (1e-300, 1e300)


@pytest.mark.parametrize("weights,state_range,amount_range", [
    *[(w, EXTREME, amounts) for w in ([0.3, 0.7], [1e-6, 1.0 - 1e-6], [0.2, 0.3, 0.5],
                                      [1e-6, 0.5, 0.5 - 1e-6])
      for amounts in ((1e-30, 1e30), (1e-40, 1e-10))],
    # Chains trading into a 1e-6 weight stay in range only for tiny trades.
    ([1e-6, 1.0 - 1e-6], (1e-6, 1e6), (1e-40, 1e-10)),
], ids=str)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_log_chains_are_within_an_eighth_of_delta_of_the_exact_logs(weights, state_range,
                                                                      amount_range):
    # The exact chain's states logged at 50 digits, so the oracle adds no
    # rounding of its own.  At weights near 0, few chains are vouched for.
    rule = weighted_product(weights)
    cfg = TrialConfig(chain_length=8, state_range=state_range, amount_range=amount_range)
    trials = np.arange(2000)
    drawn = axioms._draw_chain(trial_draws(11, trials), trials, cfg, rule.dimension)
    logs, delta = _screen_of(rule).log_chains(drawn["start"], drawn["token_in"],
                                              drawn["token_out"], drawn["fractions"])
    states, alive = exact_chains(rule, drawn)
    vouched = np.flatnonzero(np.isfinite(delta))
    assert alive[vouched].all()
    ln = decimal.Context(prec=50).ln
    worst = 0.0
    for b in vouched[:40].tolist():
        distance = max(abs(float(ln(decimal.Decimal(value)) - decimal.Decimal(u)))
                       for value, u in zip(states[b].ravel().tolist(), logs[b].ravel().tolist()))
        worst = max(worst, distance / delta[b])
    assert 0.0 < worst <= 1.0 / 8.0
    assert vouched.size


CERTIFIED = [wgm(0.3), product(), wgm(1e-6), weighted_product([0.2, 0.3, 0.5]),
             weighted_product([0.1, 0.2, 0.3, 0.4])]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_certified_chain_has_no_dominating_pair_on_the_exact_path(data):
    rule = data.draw(st.sampled_from(CERTIFIED), label="rule")
    n = rule.dimension
    length = data.draw(st.integers(1, 8), label="length")
    exponents = st.floats(-700.0, 700.0)
    start = np.exp(data.draw(st.lists(exponents, min_size=n, max_size=n), label="start"))
    x = np.exp(data.draw(st.lists(st.floats(-90.0, 70.0), min_size=length, max_size=length),
                         label="fraction exponents"))
    i = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=length, max_size=length),
                           label="token_in"))
    j = (i + np.array(data.draw(st.lists(st.integers(1, n - 1), min_size=length,
                                         max_size=length), label="offsets"))) % n
    drawn = {"start": start[None], "token_in": i[None], "token_out": j[None],
             "fractions": x[None]}
    if certified(rule, drawn)[0]:
        assert not flagged(rule, drawn)[0]
