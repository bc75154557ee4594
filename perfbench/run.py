#!/usr/bin/env python3
"""Benchmark for the ammorbit CLI.

Each workload is a fixed list of CLI invocations.  Every invocation runs
in a fresh interpreter on this checkout's src/ (python -m ammorbit.cli),
one at a time, and every output is checked.  Run from the checkout root:

    python3 perfbench/run.py --workload conform-2tok --seed 1 --seconds 30 --trace 0

--trace 0 repeats the workload's invocations untraced until --seconds
have passed and reports the end-to-end metrics.  --trace 1 runs the
invocations of every workload twice, untraced and through trace_cli.py,
and reports the per-layer metrics; see README.md.  The last line of
standard output is the JSON result.  --record PATH also writes the full
detail of the run, with machine info, as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
TRACER = BENCH / "trace_cli.py"
IMPORT_ARGV = [sys.executable, "-c", "import ammorbit.cli"]

# The whole run must end within 180 s: no pass starts that would end
# after PASS_LIMIT_S, and a child still running at KILL_LIMIT_S is killed.
PASS_LIMIT_S = 150.0
KILL_LIMIT_S = 170.0
MIN_PASSES = 3


class CheckFailed(Exception):
    """An invocation's exit code or output is wrong."""


@dataclass(frozen=True)
class Invocation:
    metric: str
    args: tuple[str, ...]
    # Validates (stdout, exit code) and returns facts read from the output.
    check: Callable[[bytes, int], dict]


def _expect_exit(code: int, want: int) -> None:
    if code != want:
        raise CheckFailed(f"exit code {code}, expected {want}")


def _close(got, want, tol: float) -> bool:
    return len(got) == len(want) and all(abs(g - w) <= tol for g, w in zip(got, want))


def check_axioms_pass(trials: int):
    def check(out: bytes, code: int) -> dict:
        _expect_exit(code, 0)
        payload = json.loads(out)
        for r in payload["reports"]:
            if r["required"] and not (r["passed"] and r["trials"] == trials):
                raise CheckFailed(f"{r['axiom']}: passed={r['passed']}, trials={r['trials']}")
        return {"trials_run": sum(r["trials"] for r in payload["reports"])}
    return check


def check_csum_witness(out: bytes, code: int) -> dict:
    """The csum validity witness must replay and sit at the shrinker's fixpoint.

    The token_in reserve is stepped to 1 and the amount bisected down to
    the token_out reserve, so the witness is state s, amount s[j] and
    observed s[j] - amount = 0.  Some seeds reach the unit cell of
    README.md (state [1, 1], amount 1, observed [2, 0]); others stop at
    s[j] < 1, a known limit of the shrinker, reported but not failed.
    """
    _expect_exit(code, 1)
    payload = json.loads(out)
    report = next(r for r in payload["reports"] if r["axiom"] == "validity_invariance")
    w = report["witness"]
    i, j = w["inputs"]["token_in"], w["inputs"]["token_out"]
    state, amount = w["inputs"]["state"], w["inputs"]["amount"]
    replay = list(state)
    replay[i] += amount
    replay[j] -= amount
    if not (report["shrunk"] and not report["passed"] and abs(state[i] - 1.0) <= 1e-12
            and 0.0 < state[j] <= 1.0 and abs(amount - state[j]) <= 1e-12
            and _close(w["observed"], replay, 1e-12) and abs(w["observed"][j]) <= 1e-12):
        raise CheckFailed(f"validity witness is not at the shrinker's fixpoint: {w}")
    return {"trials_run": sum(r["trials"] for r in payload["reports"]),
            "unit_cell": abs(state[j] - 1.0) <= 1e-12}


def check_fees(trades: int):
    def check(out: bytes, code: int) -> dict:
        _expect_exit(code, 0)
        payload = json.loads(out)
        values = payload["invariant_values"]
        if len(payload["states"]) != trades + 1 or len(values) != trades + 1:
            raise CheckFailed(f"{len(payload['states'])} states for {trades} trades")
        if any(b < a for a, b in zip(values, values[1:])):
            raise CheckFailed("fee invariant decreased")
        return {"trades": trades}
    return check


def check_orbit(samples: int):
    def check(out: bytes, code: int) -> dict:
        _expect_exit(code, 0)
        rows = out.decode().splitlines()[1:]
        if len(rows) != samples + 1:
            raise CheckFailed(f"{len(rows)} orbit rows for {samples} samples")
        levels = [math.sqrt(float(x) * float(y))
                  for x, y, *_ in (row.split(",") for row in rows)]
        worst = max(abs(v - levels[0]) for v in levels) / levels[0]
        if worst > 1e-9:
            raise CheckFailed(f"sqrt(x*y) varies by {worst!r} relative along the orbit")
        return {}
    return check


def check_classify(weight: float):
    def check(out: bytes, code: int) -> dict:
        _expect_exit(code, 0)
        payload = json.loads(out)
        if payload["verdict"] is not True or abs(payload["w_hat"] - weight) > 1e-9:
            raise CheckFailed(f"verdict {payload['verdict']}, w_hat {payload['w_hat']!r}")
        return {}
    return check


# Sizes are cut down from ROADMAP aim 1 so that one run repeats each
# list several times; classify keeps 2048 samples, where fit_log_line
# dominates, rather than 64, where interpreter start does.
TRIALS = 4000
CSUM_TRIALS = 10000
TRADES = 10000
ORBIT_SAMPLES = 30000
CLASSIFY_SAMPLES = 2048


def workloads() -> dict[str, list[Invocation]]:
    return {
        "conform-2tok": [
            Invocation("check_axioms_s", ("check-axioms", "--rule", "wgm:0.3",
                                          "--trials", str(TRIALS)), check_axioms_pass(TRIALS)),
        ],
        "conform-3tok-fail": [
            Invocation("check_axioms_s", ("check-axioms", "--rule", "wprod:0.2,0.3,0.5",
                                          "--trials", str(TRIALS)), check_axioms_pass(TRIALS)),
            Invocation("witness_s", ("check-axioms", "--rule", "csum",
                                     "--trials", str(CSUM_TRIALS)), check_csum_witness),
        ],
        "walk-export": [
            Invocation("simulate_fees_s", ("simulate-fees", "--rule", "product", "--phi", "0.003",
                                           "--trades", str(TRADES), "--format", "json"),
                       check_fees(TRADES)),
            Invocation("orbit_export_s", ("orbit-export", "--rule", "wgm:0.5",
                                          "--samples", str(ORBIT_SAMPLES)),
                       check_orbit(ORBIT_SAMPLES)),
            Invocation("classify_s", ("classify", "--rule", "wgm:0.8", "--orbits", "5",
                                      "--samples", str(CLASSIFY_SAMPLES)), check_classify(0.8)),
        ],
    }


def cli_seed(seed: int) -> int:
    """CLI --seed for a benchmark seed.

    The library keys each trial's Philox stream by seed xor trial, so two
    CLI seeds that differ only in the low bits replay one trial set in
    another order.  The benchmark seed is therefore hashed into the high
    32 bits and the low 32 bits, where trial indices live, stay zero.
    """
    high = int.from_bytes(hashlib.sha256(str(seed).encode()).digest()[:4], "big")
    return high << 32


@dataclass
class Result:
    wall_s: float
    rss_mb: float
    code: int
    out: bytes


class Runner:
    """Starts one child at a time and reads its wall time and peak RSS."""

    def __init__(self):
        self.started = time.monotonic()
        self.deadline = self.started + KILL_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        WORK.mkdir(exist_ok=True)

    def run(self, argv: list[str]) -> Result:
        out_path, err_path = WORK / "stdout", WORK / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            status = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if status is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise TimeoutError(f"{argv[1:]} ran past the time limit")
        return Result(wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_bytes())

    def cli(self, args, seed: int) -> Result:
        return self.run([sys.executable, "-m", "ammorbit.cli", *args, "--seed", str(seed)])

    def traced(self, args, seed: int) -> tuple[Result, dict]:
        summary_path = WORK / "trace.json"
        summary_path.unlink(missing_ok=True)
        result = self.run([sys.executable, str(TRACER), str(summary_path),
                           *args, "--seed", str(seed)])
        return result, json.loads(summary_path.read_text())


class Outcomes:
    """Checks each invocation's output once and its digest on every repeat."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[tuple, str] = {}
        self.facts: dict[tuple, dict] = {}

    def record(self, inv: Invocation, result: Result) -> None:
        self.attempted += 1
        digest = hashlib.sha256(result.out).hexdigest()
        first = self.digests.setdefault(inv.args, digest)
        try:
            if inv.args not in self.facts:
                self.facts[inv.args] = inv.check(result.out, result.code)
            elif digest != first:
                raise CheckFailed(f"output digest {digest[:12]} differs from {first[:12]}")
        except (CheckFailed, ValueError, KeyError, TypeError, StopIteration) as exc:
            self.failures.append(f"{' '.join(inv.args)}: {type(exc).__name__}: {exc}")


def seed_self_check(runner: Runner, seed: int) -> list[str]:
    """Two benchmark seeds must give different fee walks, not a reordering.

    Reordered trades would end on the same state to about 1e-14, so the
    end states must differ by more than 1e-6 as well as the digests.
    """
    args = ("simulate-fees", "--rule", "product", "--phi", "0.003", "--trades", "256",
            "--format", "json")
    outs = [runner.cli(args, cli_seed(s)).out for s in (seed, seed + 1)]
    try:
        ends = [json.loads(out)["states"][-1] for out in outs]
    except (ValueError, KeyError, IndexError) as exc:
        return [f"seed self-check could not read its fee walks: {exc!r}"]
    problems = []
    if outs[0] == outs[1]:
        problems.append(f"seeds {seed} and {seed + 1} give identical fee walks")
    if _close(ends[0], ends[1], 1e-6 * max(abs(v) for v in ends[0] + ends[1])):
        problems.append(f"seeds {seed} and {seed + 1} end their fee walks on the same state")
    return problems


def measure_setup(runner: Runner) -> float:
    """Wall time of a fresh interpreter that only imports ammorbit.cli."""
    result = runner.run(IMPORT_ARGV)
    if result.code != 0:
        raise RuntimeError(f"import ammorbit.cli exited {result.code}")
    return result.wall_s


def keep_going(runner: Runner, passes: int, started: float, seconds: float,
               last_pass_s: float, minimum: int) -> bool:
    now = time.monotonic()
    if now + last_pass_s > runner.started + PASS_LIMIT_S:
        return False
    return passes < minimum or now - started < seconds


def run_untraced(runner: Runner, invocations: list[Invocation], seed: int,
                 seconds: float, outcomes: Outcomes) -> dict:
    per_call: dict[str, list[float]] = {}
    setup, pass_walls, pass_rss = [], [], []
    started = time.monotonic()
    last = 0.0
    while keep_going(runner, len(pass_walls), started, seconds, last, MIN_PASSES):
        t0 = time.monotonic()
        # Set-up is sampled in every pass, so that it sees the same machine
        # speed as the invocations do.
        setup.append(measure_setup(runner))
        walls, rss = [], []
        for inv in invocations:
            result = runner.cli(inv.args, seed)
            outcomes.record(inv, result)
            walls.append(result.wall_s)
            rss.append(result.rss_mb)
            per_call.setdefault(inv.metric, []).append(result.wall_s)
        pass_walls.append(sum(walls))
        pass_rss.append(max(rss))
        last = time.monotonic() - t0
    return {"setup_s": setup, "pass_s": pass_walls, "peak_rss_mb": pass_rss,
            "per_call": per_call}


# Per-layer metrics: (name, unit, better, source workloads).  Each value
# is summed over one pass of the source workloads' invocations.  A name
# ending in .calls or .self_s reads that field of the traced function;
# the others are derived below.  README.md says which end-to-end number
# each should move.
ALL = ("conform-2tok", "conform-3tok-fail", "walk-export")
TWO, THREE, WALK = ("conform-2tok",), ("conform-3tok-fail",), ("walk-export",)

LAYER_METRICS = [
    ("axioms.check_pareto.self_s", "s", "lower", TWO),
    ("rules.swap_in.calls", "count", "lower", TWO),
    ("rules.swap_in.self_s", "s", "lower", TWO),
    ("axioms.check_validity_invariance.self_s", "s", "lower", THREE),
    ("axioms.check_unit_invariance.self_s", "s", "lower", THREE),
    ("axioms.check_token_symmetry.self_s", "s", "lower", THREE),
    ("axioms.trials_run", "count", "higher", THREE),
    ("axioms.shrink.calls", "count", "lower", THREE),
    ("axioms.shrink.self_s", "s", "lower", THREE),
    ("axioms.shrink.swap_calls", "count", "lower", THREE),
    ("rand.trial_rng.calls", "count", "lower", ALL),
    ("rand.trial_rng.self_s", "s", "lower", ALL),
    ("rand.log_uniform.calls", "count", "lower", ALL),
    ("rand.log_uniform.self_s", "s", "lower", ALL),
    ("rules.swap.calls", "count", "lower", WALK),
    ("rules.swap.self_s", "s", "lower", WALK),
    ("rules.domain.calls", "count", "lower", WALK),
    ("rules.domain.self_s", "s", "lower", WALK),
    ("rules.out_amount.self_s", "s", "lower", WALK),
    ("state.as_reserves.calls", "count", "lower", WALK),
    ("state.as_reserves.self_s", "s", "lower", WALK),
    ("state.weighted_gmean.self_s", "s", "lower", WALK),
    ("fees.fee_swap.calls", "count", "lower", WALK),
    ("fees.fee_swap.per_trade", "ratio", "lower", WALK),
    ("fees.fee_drift.self_s", "s", "lower", WALK),
    ("classify.sample_orbit.self_s", "s", "lower", WALK),
    ("classify.fit_log_line.calls", "count", "lower", WALK),
    ("classify.fit_log_line.self_s", "s", "lower", WALK),
    ("classify.verify_level_sets.self_s", "s", "lower", WALK),
    ("classify.orbit_to_csv.self_s", "s", "lower", WALK),
    ("cli.main.self_s", "s", "lower", ALL),
    ("cli.json_payload.self_s", "s", "lower", ALL),
    ("cli.emit.bytes", "bytes", "lower", ALL),
    ("cli.parse_rule.self_s", "s", "lower", ALL),
]


def layer_value(metric: str, trace: dict) -> float:
    if metric == "axioms.trials_run":
        return trace["trials_run"]
    if metric == "axioms.shrink.swap_calls":
        return trace["shrink_swap_calls"]
    if metric == "cli.emit.bytes":
        return trace["bytes"]
    if metric == "fees.fee_swap.per_trade":
        calls = layer_value("fees.fee_swap.calls", trace)
        return calls / trace["trades"] if trace["trades"] else 0.0
    function, field = metric.rsplit(".", 1)
    return trace["functions"].get(function, {}).get(field, 0)


def _trace_of(summary: dict, facts: dict, out_bytes: int) -> dict:
    return {"functions": summary["functions"], "shrink_swap_calls": summary["shrink_swap_calls"],
            "trials_run": facts.get("trials_run", 0), "trades": facts.get("trades", 0),
            "bytes": out_bytes}


def _merge(total: dict, trace: dict) -> None:
    for name, entry in trace["functions"].items():
        acc = total["functions"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in acc:
            acc[key] += entry[key]
    for key in ("shrink_swap_calls", "trials_run", "trades", "bytes"):
        total[key] += trace[key]


def _empty_trace() -> dict:
    return {"functions": {}, "shrink_swap_calls": 0, "trials_run": 0, "trades": 0, "bytes": 0}


def run_traced(runner: Runner, workload: str, seed: int, seconds: float,
               outcomes: Outcomes) -> dict:
    """Untraced then traced run of every workload's invocations, per pass.

    Every workload's traced run covers all three lists, so each per-layer
    metric is measured on every run; the overhead ratio is the requested
    workload's own.
    """
    all_lists = workloads()
    passes = []
    started = time.monotonic()
    last = 0.0
    while keep_going(runner, len(passes), started, seconds, last, 1):
        t0 = time.monotonic()
        traces = {name: _empty_trace() for name in all_lists}
        per_invocation = []
        plain_s = traced_s = 0.0
        for name, invocations in all_lists.items():
            for inv in invocations:
                plain = runner.cli(inv.args, seed)
                outcomes.record(inv, plain)
                traced, summary = runner.traced(inv.args, seed)
                outcomes.record(inv, traced)
                _merge(traces[name], _trace_of(summary, outcomes.facts.get(inv.args, {}),
                                               len(plain.out)))
                per_invocation.append({"workload": name, "args": list(inv.args),
                                       "untraced_s": plain.wall_s, "traced_s": traced.wall_s,
                                       "spans": summary["spans"],
                                       "functions": summary["functions"]})
                if name == workload:
                    plain_s += plain.wall_s
                    traced_s += traced.wall_s
        values = {}
        for metric, _unit, _better, sources in LAYER_METRICS:
            merged = _empty_trace()
            for source in sources:
                _merge(merged, traces[source])
            values[metric] = layer_value(metric, merged)
        values["trace.overhead_ratio"] = traced_s / plain_s
        passes.append({"values": values, "invocations": per_invocation})
        last = time.monotonic() - t0
    return {"passes": passes}


def machine_info() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "git_sha": sha,
            "platform": platform.platform()}


BASELINE_ROWS = [
    ("`swap_in` kernel", "rules.swap_in"),
    ("`swap()` wrapper", "rules.swap"),
    ("`as_reserves`", "state.as_reserves"),
    ("`rule.domain`", "rules.domain"),
    ("`trial_rng`", "rand.trial_rng"),
    ("`shrink`", "axioms.shrink"),
]


def baseline_table(invocations: list[dict]) -> list[str]:
    """Per-call self time, self_s / calls, over every traced invocation."""
    totals: dict[str, list[float]] = {}
    for inv in invocations:
        for name, entry in inv["functions"].items():
            acc = totals.setdefault(name, [0, 0.0])
            acc[0] += entry["calls"]
            acc[1] += entry["self_s"]
    lines = ["| what | calls | self time per call |", "| --- | --- | --- |"]
    for label, name in BASELINE_ROWS:
        calls, self_s = totals.get(name, [0, 0.0])
        per_call = f"{self_s / calls * 1e6:.1f} µs" if calls else "not called"
        lines.append(f"| {label} | {calls} | {per_call} |")
    for inv in invocations:
        lines.append(f"| `{' '.join(inv['args'])}` | | {inv['untraced_s']:.2f} s untraced, "
                     f"{inv['traced_s']:.2f} s traced |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="also write the run's full detail as JSON here")
    args = parser.parse_args(argv)
    if not (SRC / "ammorbit" / "cli.py").is_file():
        print(f"error: no ammorbit sources under {SRC}", file=sys.stderr)
        return 2

    runner = Runner()
    seed = cli_seed(args.seed)
    outcomes = Outcomes()
    runner.run(IMPORT_ARGV)  # fills the bytecode cache, untimed
    seed_problems = seed_self_check(runner, args.seed)
    record: dict = {"workload": args.workload, "seed": args.seed, "cli_seed": seed,
                    "trace": args.trace}

    if args.trace == 0:
        timing = run_untraced(runner, workloads()[args.workload], seed, args.seconds, outcomes)
        metrics = {name: {"value": statistics.median(timing[name]), "unit": unit}
                   for name, unit in (("pass_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))}
        print(f"{args.workload}, seed {args.seed} (CLI --seed {seed}), untraced")
        for name, values in [("setup_s", timing["setup_s"]), *timing["per_call"].items(),
                             ("pass_s", timing["pass_s"]), ("peak_rss_mb", timing["peak_rss_mb"])]:
            unit = "MB" if name == "peak_rss_mb" else "s"
            print(f"  {name:<16} median {statistics.median(values):10.4f} {unit:<3} "
                  f"[{min(values):.4f} .. {max(values):.4f}]  n={len(values)}")
        record.update(samples=timing)
    else:
        timing = run_traced(runner, args.workload, seed, args.seconds, outcomes)
        passes = timing["passes"]
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
        units["trace.overhead_ratio"] = "ratio"
        metrics = {name: {"value": statistics.median([p["values"][name] for p in passes]),
                          "unit": unit} for name, unit in units.items()}
        print(f"{args.workload}, seed {args.seed} (CLI --seed {seed}), traced, "
              f"n={len(passes)} passes")
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
        first = passes[0]["invocations"]
        print("\n".join(baseline_table(first)))
        record.update(passes=passes, baseline_table=baseline_table(first))

    failures = outcomes.failures + seed_problems
    print(f"  failed_ratio     {len(outcomes.failures)}/{outcomes.attempted} invocations"
          + (f"; seed self-check: {'; '.join(seed_problems)}" if seed_problems else ""))
    for failure in failures:
        print(f"  FAILED {failure}")
    for inv_args, digest in outcomes.digests.items():
        print(f"  sha256 {digest[:16]}  {' '.join(inv_args)}")
    for inv_args, facts in outcomes.facts.items():
        if facts.get("unit_cell") is False:
            print(f"  note: {' '.join(inv_args)} shrank its validity witness to a state other "
                  f"than the unit cell [1, 1] (known shrinker limit, not counted as failed)")
    record.update(metrics=metrics, attempted=outcomes.attempted, failures=failures,
                  digests={" ".join(a): d for a, d in outcomes.digests.items()},
                  machine=machine_info())
    if args.record:
        args.record.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": not failures, "attempted": outcomes.attempted,
                      "failed": len(outcomes.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
