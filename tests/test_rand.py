"""The vectorised Philox reader against numpy's Generator.

rand.Draws computes Philox4x64-10 words for a block of keys and reads
doubles and bounded integers off them.  Every draw the library makes
must equal, bit for bit, what numpy's Generator draws on the same key,
in the same order, with Lemire rejections handled as numpy does.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ammorbit import ConfigError, TrialConfig, axioms, cli, rand, sample_orbit, wgm
from ammorbit.rand import Draws, log_uniform, philox_words, trial_draws, trial_rng
from ammorbit.rules import _walk

ROOT = Path(__file__).resolve().parent.parent
KEYS = [0, 7, 2**63 + 5, 2**64 - 1]


@pytest.mark.parametrize("slab", [3, 8192])
def test_words_match_numpy_philox(monkeypatch, slab):
    # A slab of 3 blocks splits keys across kernel passes.
    monkeypatch.setattr(rand, "_SLAB", slab)
    keys = np.array(KEYS, dtype=np.uint64)
    got = philox_words(keys, 5)
    later = philox_words(keys, 3, first=5)
    for k, key in enumerate(KEYS):
        want = np.random.Philox(key=key).random_raw(32)
        assert got[k].tolist() == want[:20].tolist()
        assert later[k].tolist() == want[20:].tolist()


def test_reader_grows_past_its_hint():
    draws = Draws(np.array(KEYS, dtype=np.uint64), words=1)
    got = draws.log_uniform(1e-3, 1e3, 9)
    for k, key in enumerate(KEYS):
        want = log_uniform(trial_rng(key, 0), 1e-3, 1e3, 9)
        assert got[k].tolist() == want.tolist()


# The scalar draw order of each check, written against a numpy Generator.

def pair(rng, n):
    i = int(rng.integers(0, n))
    j = int(rng.integers(0, n - 1)) if n > 2 else 0
    return i, j + (j >= i)


def amount(rng, cfg, reserve):
    # Wide ranges overflow the amount to inf, as they do in the engine's draw.
    with np.errstate(over="ignore"):
        return float(log_uniform(rng, *cfg.amount_range) * reserve)


def reference(axiom, rng, trial, cfg, n):
    lo, hi = cfg.state_range
    if axiom == "validity_invariance":
        s = log_uniform(rng, lo, min(hi, 4.0 * lo) if trial % 4 == 3 else hi, n)
        i, j = pair(rng, n)
        return {"state": s.tolist(), "token_in": i, "token_out": j,
                "amount": amount(rng, cfg, s[i])}
    s = log_uniform(rng, lo, hi, n)
    if axiom == "pareto_efficiency":
        fractions = log_uniform(rng, *cfg.amount_range, cfg.chain_length)
        pairs = [pair(rng, n) for _ in range(cfg.chain_length)]
        return {"start": s.tolist(), "token_in": [p[0] for p in pairs],
                "token_out": [p[1] for p in pairs], "fractions": fractions.tolist()}
    if axiom == "unit_invariance":
        i, j = pair(rng, n)
        a = amount(rng, cfg, s[i])
        factors = log_uniform(rng, lo, hi, n)
        return {"state": s.tolist(), "factors": factors.tolist(), "token_in": i,
                "token_out": j, "amount": a}
    return {"state": s.tolist(), "amount": amount(rng, cfg, s[0])}


CONFIGS = [
    {},
    {"state_range": (2.0, 2.0)},
    {"amount_range": (0.25, 0.25)},
    {"state_range": (1e-300, 1e300), "amount_range": (1e-30, 1e30)},
]


PLANS = [(axiom, n, length)
         for axiom in sorted(axioms._AXIOMS)
         for n in ((2,) if axiom == "token_symmetry" else (2, 3, 5))
         # Only the chain draws depend on the chain length.
         for length in ((1, 3, 32, 33) if axiom == "pareto_efficiency" else (32,))]


@pytest.mark.parametrize("ranges", CONFIGS, ids=["default", "fixed-state", "fixed-amount", "wide"])
@pytest.mark.parametrize("axiom,n,length", PLANS)
def test_draw_plans_match_generator(axiom, n, length, ranges):
    cfg = TrialConfig(seed=2**63 + 5, chain_length=length, **ranges)
    trials = np.arange(40, 60)
    drawn = axioms._AXIOMS[axiom].draw(trial_draws(cfg.seed, trials), trials, cfg, n)
    for k, trial in enumerate(trials.tolist()):
        want = reference(axiom, trial_rng(cfg.seed, trial), trial, cfg, n)
        assert axioms._trial(drawn, k) == want


class ScalarStream:
    """numpy's Philox next_double, next_uint32 and bounded draw, one word at a time."""

    def __init__(self, words):
        self.words = list(words)
        self.pos = 0
        self.cache = None
        self.rejections = 0

    def next_double(self):
        word = self.words[self.pos]
        self.pos += 1
        return (word >> 11) * 2.0**-53

    def next_uint32(self):
        if self.cache is not None:
            half, self.cache = self.cache, None
            return half
        word = self.words[self.pos]
        self.pos += 1
        self.cache = word >> 32
        return word & 0xFFFFFFFF

    def bounded(self, high):
        rng = high - 1
        if rng == 0:
            return 0
        if rng == 0xFFFFFFFF:
            return self.next_uint32()
        scaled = self.next_uint32() * high
        if scaled & 0xFFFFFFFF < high:
            threshold = (0xFFFFFFFF - rng) % high
            while scaled & 0xFFFFFFFF < threshold:
                self.rejections += 1
                scaled = self.next_uint32() * high
        return scaled >> 32


def test_lemire_rejections_match_scalar_reference():
    # Zeroed halves are rejected under the bounds 3, 5, 6 and 7; the reader
    # must take those rejections in its one run, then stop at the word
    # the reference stops at, where the next double starts.
    rng = np.random.Generator(np.random.Philox(key=11))
    words = rng.integers(0, 2**63, (64, 24), dtype=np.uint64) * np.uint64(2)
    for row in range(0, 64, 3):
        words[row, row % 7] &= np.uint64(0xFFFFFFFF00000000)
        words[row, (row + 3) % 11] &= np.uint64(0xFFFFFFFF)
    words[5, :6] = 0
    highs = [3, 3, 2, 6, 1, 5, 3, 2**32, 6, 7, 7, 7]
    draws = Draws(np.zeros(64, dtype=np.uint64))
    draws.words = words
    got = draws.integers(highs)
    pos = draws.pos.copy()
    doubles = draws.log_uniform(1.0, 8.0, 2)
    rejections = 0
    for row in range(64):
        ref = ScalarStream(words[row].tolist())
        assert got[row].tolist() == [ref.bounded(h) for h in highs]
        assert pos[row] == ref.pos
        u = np.array([ref.next_double() for _ in range(2)])
        assert doubles[row].tolist() == np.exp(0.0 + (math.log(8.0) - 0.0) * u).tolist()
        rejections += ref.rejections
    assert rejections >= 20


def test_lemire_reader_matches_generator_on_rejected_draws():
    # Under the bound 2**31 + 1 the threshold is 2**31 - 1, so about
    # half of all draws are rejected.
    keys = np.arange(200, dtype=np.uint64)
    got = Draws(keys, words=2).integers([2**31 + 1, 3, 2**31 + 1])
    for key in keys.tolist():
        rng = np.random.Generator(np.random.Philox(key=key))
        want = rng.integers(0, [2**31 + 1, 3, 2**31 + 1])
        assert got[key].tolist() == want.tolist()


def test_fee_trades_orbit_fractions_and_starts_match_trial_rng(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_TRADE_BLOCK", 4)
    for n in (2, 3):
        trades = list(zip(*cli._random_trades(2**63 + 5, n, 10)))
        for t, (i, j, fraction) in enumerate(trades):
            rng = trial_rng(2**63 + 5, t)
            assert (i, j) == pair(rng, n)
            assert fraction == log_uniform(rng, 1e-3, 1.0)
    rule = wgm(0.5)
    sample = sample_orbit(rule, [1.0, 1.0], 40, seed=9)
    fractions = log_uniform(trial_rng(9, 0), 1e-3, 1.0, 40)
    steps = [((0, 1), (1, 0))[k % 2] + (f,) for k, f in enumerate(fractions)]
    want = _walk(rule, [1.0, 1.0], zip(*steps), relative=True).states
    assert [s.tolist() for s in sample.states] == [s.tolist() for s in want]
    out = tmp_path / "classify.json"
    cli.main(["classify", "--rule", "wgm:0.8", "--orbits", "4", "--samples", "16",
              "--seed", "9", "--output", str(out)])
    rng = trial_rng(9, cli._START_STREAM)
    want = [log_uniform(rng, *cli._START_RANGE, 2).tolist() for _ in range(4)]
    assert [orbit["start"] for orbit in json.loads(out.read_text())["orbits"]] == want


def test_log_uniform_rejects_a_bad_range_with_config_error():
    with pytest.raises(ConfigError):
        log_uniform(trial_rng(0, 0), 2.0, 1.0)
    with pytest.raises(ConfigError):
        log_uniform(trial_rng(0, 0), 0.0, 1.0, 3)


@pytest.mark.parametrize("argv", [
    ["check-axioms", "--rule", "wgm:0.3", "--trials", "50"],
    ["check-axioms", "--rule", "csum", "--trials", "50"],
    ["classify", "--rule", "wgm:0.8", "--orbits", "3", "--samples", "16"],
    ["simulate-fees", "--rule", "product", "--phi", "0.003", "--trades", "20"],
    ["orbit-export", "--rule", "wgm:0.5", "--samples", "16"],
])
def test_subcommands_never_import_numpy_random(argv, tmp_path):
    # numpy.random costs about 6 MB of resident memory per process.
    script = ("import sys\nfrom ammorbit.cli import main\n"
              f"code = main({argv + ['--output', str(tmp_path / 'out')]!r})\n"
              "print(code, 'numpy.random' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    code, imported = done.stdout.split()
    assert code in ("0", "1")
    assert imported == "False"
