"""Randomized axiom checks: soundness on conforming rules, detection on
broken ones, witness replay, shrinking, and report determinism."""

import json

import numpy as np
import pytest

from ammorbit import (
    ConfigError,
    SwapRule,
    TrialConfig,
    UsageError,
    as_reserves,
    check_all,
    check_pareto,
    check_token_symmetry,
    check_unit_invariance,
    check_validity_invariance,
    constant_sum,
    product,
    rel_close,
    report_to_dict,
    scale,
    shrink,
    swap,
    weighted_product,
    wgm,
)
from ammorbit import axioms
from ammorbit.rand import PRNG_ID


def leaky_rule() -> SwapRule:
    """Constant-product payout on the full input, but only 99% credited.

    The pool leaks value, so chains revisit dominated territory.
    """

    def swap_in(s, i, j, amount):
        out = s[j] - (s[i] * s[j]) / (s[i] + amount)
        new = np.array(s, dtype=float)
        new[i] = s[i] + 0.99 * amount
        new[j] = s[j] - out
        return new

    return SwapRule(name="leaky", dimension=2, swap_in=swap_in)


def crashing_rule() -> SwapRule:
    def swap_in(s, i, j, amount):
        raise RuntimeError("synthetic rule bug")

    return SwapRule(name="crashy", dimension=2, swap_in=swap_in)


class TestTrialConfig:
    def test_defaults(self):
        cfg = TrialConfig()
        assert cfg.trials == 1000
        assert cfg.chain_length == 32
        assert cfg.tolerance == 1e-9

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TrialConfig(trials=0)
        with pytest.raises(ConfigError):
            TrialConfig(chain_length=-1)
        with pytest.raises(ConfigError):
            TrialConfig(amount_range=(1.0, 0.5))
        with pytest.raises(ConfigError):
            TrialConfig(state_range=(-1.0, 10.0))
        with pytest.raises(ConfigError):
            TrialConfig(tolerance=0.0)

    @pytest.mark.parametrize("field", ["seed", "trials", "chain_length"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "3", None])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ConfigError):
            TrialConfig(**{field: value})

    @pytest.mark.parametrize("kwargs", [
        {"amount_range": (1e-3,)},
        {"amount_range": ("a", 1.0)},
        {"amount_range": (True, 1.0)},
        {"state_range": None},
        {"state_range": (1.0, 2.0, 3.0)},
        {"tolerance": "x"},
        {"tolerance": None},
    ], ids=repr)
    def test_rejects_malformed_ranges_and_tolerance(self, kwargs):
        with pytest.raises(ConfigError):
            TrialConfig(**kwargs)

    def test_accepts_numpy_reals(self):
        cfg = TrialConfig(amount_range=(np.float64(1e-3), np.float32(0.5)),
                          state_range=[np.int64(1), 100.0], tolerance=np.float64(1e-9),
                          trials=50)
        assert check_unit_invariance(wgm(0.3), cfg).passed

    def test_accepts_numpy_integers(self):
        ref = TrialConfig(seed=7, trials=50, chain_length=8)
        for seed_type in (np.int64, np.int32, np.uint32, np.uint64):
            cfg = TrialConfig(seed=seed_type(7), trials=np.int64(50), chain_length=np.int32(8))
            assert report_to_dict(check_pareto(wgm(0.3), cfg)) == \
                report_to_dict(check_pareto(wgm(0.3), ref))
            assert report_to_dict(check_unit_invariance(constant_sum(), cfg)) == \
                report_to_dict(check_unit_invariance(constant_sum(), ref))


class TestSoundRulesPass:
    @pytest.mark.parametrize("w", [0.1, 0.5, 0.9])
    def test_weighted_rules_satisfy_universal_axioms(self, w):
        cfg = TrialConfig(seed=7, trials=1000)
        rule = wgm(w)
        assert check_validity_invariance(rule, cfg).passed
        assert check_pareto(rule, cfg).passed
        assert check_unit_invariance(rule, cfg).passed

    def test_half_weight_is_token_symmetric(self):
        assert check_token_symmetry(wgm(0.5), TrialConfig(seed=7, trials=1000)).passed

    @pytest.mark.parametrize("w", [0.1, 0.3, 0.7])
    def test_skewed_weights_fail_token_symmetry_fast(self, w):
        rep = check_token_symmetry(wgm(w), TrialConfig(seed=7, trials=100))
        assert not rep.passed
        assert rep.witness is not None
        assert rep.witness.trial < 100

    def test_multi_token_rule_passes(self):
        cfg = TrialConfig(seed=7, trials=500)
        rule = weighted_product([0.5, 0.3, 0.2])
        assert check_validity_invariance(rule, cfg).passed
        assert check_pareto(rule, cfg).passed
        assert check_unit_invariance(rule, cfg).passed

    def test_check_all_bundles_reports(self):
        reports = check_all(product(), TrialConfig(seed=7, trials=300))
        names = [r.axiom for r in reports]
        assert names == ["validity_invariance", "pareto_efficiency",
                         "unit_invariance", "token_symmetry"]
        assert all(r.passed for r in reports)

    def test_check_all_skips_symmetry_beyond_two_tokens(self):
        reports = check_all(weighted_product([0.5, 0.3, 0.2]),
                            TrialConfig(seed=7, trials=100))
        assert [r.axiom for r in reports] == [
            "validity_invariance", "pareto_efficiency", "unit_invariance"]

    def test_token_symmetry_rejects_multi_token_rule(self):
        with pytest.raises(UsageError):
            check_token_symmetry(weighted_product([0.5, 0.3, 0.2]), TrialConfig())


class TestConstantSumCounterexamples:
    CFG = TrialConfig(seed=7, trials=100)

    def test_validity_fails_and_witness_replays(self):
        rep = check_validity_invariance(constant_sum(), self.CFG)
        assert not rep.passed
        w = rep.witness
        got = swap(constant_sum(), as_reserves(w.inputs["state"]),
                   w.inputs["token_in"], w.inputs["token_out"], w.inputs["amount"])
        assert list(got) == w.observed
        assert min(w.observed) <= 0.0

    def test_unit_invariance_fails_and_witness_replays(self):
        rep = check_unit_invariance(constant_sum(), self.CFG)
        assert not rep.passed
        w = rep.witness
        s = np.asarray(w.inputs["state"])
        f = np.asarray(w.inputs["factors"])
        i, j = w.inputs["token_in"], w.inputs["token_out"]
        dx = w.inputs["amount"]
        observed = swap(constant_sum(), s * f, i, j, float(f[i] * dx))
        expected = swap(constant_sum(), s, i, j, dx) * f
        assert list(observed) == w.observed
        assert list(expected) == w.expected

    def test_pareto_fails(self):
        rep = check_pareto(constant_sum(), self.CFG)
        assert not rep.passed

    def test_token_symmetry_holds(self):
        # x + y is symmetric, a useful control against over-flagging
        assert check_token_symmetry(constant_sum(), self.CFG).passed

    def test_divergent_diagram_frozen_example(self):
        # rescale X by 2: trading 2*0.5 in rescaled units must match
        # rescaling the original 0.5-unit trade, but here it does not
        left = swap(constant_sum(),
                    scale(as_reserves([1.0, 1.0]), (2.0, 1.0)), 0, 1, 1.0)
        right = scale(swap(constant_sum(), as_reserves([1.0, 1.0]), 0, 1, 0.5),
                      (2.0, 1.0))
        assert tuple(left) == (3.0, 0.0)
        assert tuple(right) == (3.0, 0.5)


class TestBrokenRuleDetection:
    def test_leak_flagged_by_pareto(self):
        rep = check_pareto(leaky_rule(), TrialConfig(seed=7, trials=200))
        assert not rep.passed
        pair = rep.witness.observed
        dominating = np.asarray(pair["dominating"])
        dominated = np.asarray(pair["dominated"])
        assert np.all(dominating >= dominated)
        assert np.any(dominating > dominated)

    def test_pareto_witness_chain_replays(self):
        rep = check_pareto(leaky_rule(), TrialConfig(seed=7, trials=200))
        w = rep.witness
        state = as_reserves(w.inputs["start"])
        states = [state]
        for i, j, amount in w.inputs["moves"]:
            state = swap(leaky_rule(), state, i, j, amount)
            states.append(state)
        pair = w.observed
        assert list(states[pair["dominating_index"]]) == pair["dominating"]
        assert list(states[pair["dominated_index"]]) == pair["dominated"]

    @pytest.mark.parametrize("move", [[0.7, 1, 0.5], [True, 0, 0.5], [0, 1]], ids=repr)
    def test_pareto_replay_checks_caller_moves(self, move):
        # A witness's moves are caller moves: swap()'s checks, not casts.
        violated, observed, _ = axioms._violates_pareto(
            product(), {"start": [1.0, 1.0], "moves": [[0, 1, 0.5], move]}, 1e-9)
        assert violated
        assert observed.startswith("error at step 2: ")

    def test_start_outside_a_custom_domain_is_a_failed_pareto_trial(self):
        # As in the other checks: a failed trial, not a raised DomainError.
        rule = SwapRule("d", 2, wgm(0.3).swap_in, domain=lambda s: bool(s[0] < 1e3))
        cfg = TrialConfig(trials=50)
        rep = check_pareto(rule, cfg)
        assert not rep.passed and rep.witness.inputs["moves"] == []
        assert rep.witness.inputs["start"][0] >= 1e3
        assert rep.witness.observed.startswith("error at step 1: ")
        assert axioms._violates_pareto(rule, rep.witness.inputs, cfg.tolerance)[0]
        small = shrink(rep, rule)
        assert small.witness.inputs["moves"] == [] and small.witness.inputs["start"][0] >= 1e3
        assert [r.axiom for r in check_all(rule, cfg) if not r.passed] == [
            "validity_invariance", "pareto_efficiency", "unit_invariance", "token_symmetry"]

    def test_rule_crash_counts_as_failure(self):
        rep = check_validity_invariance(crashing_rule(), TrialConfig(seed=7, trials=50))
        assert not rep.passed
        assert isinstance(rep.witness.observed, str)
        assert "error" in rep.witness.observed


class TestShrinking:
    def test_constant_sum_shrinks_to_unit_cell(self):
        rep = check_validity_invariance(constant_sum(), TrialConfig(seed=7, trials=100))
        small = shrink(rep, constant_sum())
        assert small.shrunk
        assert small.witness.inputs["state"] == [1.0, 1.0]
        assert small.witness.inputs["amount"] == 1.0
        assert small.witness.observed == [2.0, 0.0]

    def test_shrunk_witness_still_fails(self):
        rep = check_unit_invariance(constant_sum(), TrialConfig(seed=7, trials=100))
        small = shrink(rep, constant_sum())
        w = small.witness
        s = np.asarray(w.inputs["state"])
        f = np.asarray(w.inputs["factors"])
        i, j = w.inputs["token_in"], w.inputs["token_out"]
        dx = w.inputs["amount"]
        observed = swap(constant_sum(), s * f, i, j, float(f[i] * dx))
        expected = swap(constant_sum(), s, i, j, dx) * f
        # still violates at the checker's own tolerance, coordinatewise
        assert not rel_close(observed, expected, 1e-9)

    def test_pareto_witness_shrinks_its_moves_in_chain_order(self):
        # Move amounts are bisected first to last, each against the moves
        # already shrunk; another order stops at another witness.  Pinned
        # as the shrinker reaches it.
        rep = check_pareto(leaky_rule(), TrialConfig(seed=7, trials=200))
        small = shrink(rep, leaky_rule())
        moves = small.witness.inputs["moves"]
        assert small.witness.inputs["start"] == [1.0, 1.0] and len(moves) == 32
        assert [(k, move) for k, move in enumerate(moves) if move[2] != 0.0] == [
            (25, [0, 1, 4180.128450277834]), (27, [1, 0, 7.770526779663888e-07]),
            (28, [1, 0, 5.9931367655224074e-05]), (30, [0, 1, 816.3504366894954])]
        # The original report's witness is left as it was.
        assert rep.witness.inputs["moves"] != moves and not rep.shrunk

    def test_shrink_is_deterministic(self):
        rep = check_validity_invariance(constant_sum(), TrialConfig(seed=7, trials=100))
        a = report_to_dict(shrink(rep, constant_sum()))
        b = report_to_dict(shrink(rep, constant_sum()))
        assert a == b

    def test_shrink_refuses_passed_report(self):
        rep = check_validity_invariance(wgm(0.5), TrialConfig(seed=7, trials=50))
        with pytest.raises(UsageError):
            shrink(rep, wgm(0.5))

    def test_shrink_refuses_mismatched_rule(self):
        rep = check_validity_invariance(constant_sum(), TrialConfig(seed=7, trials=100))
        with pytest.raises(UsageError):
            shrink(rep, wgm(0.5))

    def test_shrink_offers_one_for_a_negative_coordinate(self):
        # A hand-edited witness: sqrt has no step from -1.0, so 1.0 is its
        # candidate, taken once the other coordinate reaches 1.0.
        inputs = {"state": [-1.0, 2.0], "token_in": 0, "token_out": 1, "amount": 1.0}
        rep = axioms.AxiomReport("validity_invariance", "csum", 1, False,
                                 axioms.Witness(inputs, None, None, 0, 0), 1e-9)
        small = shrink(rep, constant_sum())
        assert small.witness.inputs == {**inputs, "state": [1.0, 1.0]}
        assert small.witness.observed == [2.0, 0.0]


class TestReports:
    def test_dict_shape_and_prng_tag(self):
        rep = check_validity_invariance(wgm(0.5), TrialConfig(seed=3, trials=50))
        d = report_to_dict(rep)
        assert list(d.keys()) == ["axiom", "rule", "trials", "passed", "witness",
                                  "tolerance", "shrunk", "prng", "scope"]
        assert d["prng"] == PRNG_ID
        assert d["prng"] == "philox4x64(key = seed xor trial)"
        assert d["witness"] is None
        assert d["rule"] == "wgm:0.5"

    def test_validity_report_carries_scope_note(self):
        rep = check_validity_invariance(wgm(0.5), TrialConfig(trials=10))
        assert rep.scope is not None
        assert "forward" in rep.scope

    def test_failed_witness_fields(self):
        rep = check_validity_invariance(constant_sum(), TrialConfig(seed=7, trials=100))
        d = report_to_dict(rep)
        wit = d["witness"]
        assert list(wit.keys()) == ["inputs", "observed", "expected", "seed", "trial"]
        assert wit["seed"] == 7
        assert isinstance(wit["trial"], int)

    def test_reports_are_reproducible(self):
        cfg = TrialConfig(seed=11, trials=200)
        a = report_to_dict(check_unit_invariance(constant_sum(), cfg))
        b = report_to_dict(check_unit_invariance(constant_sum(), cfg))
        assert a == b

    def test_witnesses_hold_only_python_values(self, monkeypatch):
        # report_to_dict passes witness values through unconverted, so
        # every witness must be built from Python values alone.
        def strict(value):
            if isinstance(value, dict):
                return {k: strict(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [strict(v) for v in value]
            assert isinstance(value, (str, int, float, type(None))), value
            assert not isinstance(value, (np.generic, np.ndarray)), value
            return value

        monkeypatch.setattr(axioms, "_jsonable", strict)
        cfg = TrialConfig(seed=7, trials=200)
        failed = [r for r in check_all(constant_sum(), cfg) if not r.passed]
        failed.append(check_token_symmetry(wgm(0.3), cfg))
        assert {r.axiom for r in failed} == {"validity_invariance", "pareto_efficiency",
                                             "unit_invariance", "token_symmetry"}
        failed += [shrink(r, constant_sum()) for r in failed if r.rule == "csum"]
        for report in failed:
            json.dumps(report_to_dict(report), allow_nan=False)

    def test_trials_field_counts_executed_trials(self):
        # short-circuit on first failure: executed count, not requested count
        rep = check_validity_invariance(constant_sum(), TrialConfig(seed=7, trials=100))
        assert rep.trials == rep.witness.trial + 1
