"""Run the ammorbit CLI with timed wrappers around each layer's public functions.

    PYTHONPATH=src python3 perfbench/trace_cli.py SUMMARY_OUT CLI_ARGS...

The wrappers are installed from outside, at the module bindings the CLI
calls through (ammorbit.axioms.swap, ammorbit.fees.as_reserves, ...), and
on the swap_in and domain callables of the rule that parse_rule returns.
Nothing under src/ changes.  Spans stay in memory while the CLI runs; at
exit their per-function call counts, total and self times go to
SUMMARY_OUT as JSON.  A span's self time is its duration minus the
durations of the traced spans it directly encloses.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from array import array

# Span name -> (defining module, attribute).  The names follow the
# benchmark's per-layer metrics; parse_rule is counted as the CLI's call
# into the rules module.
TARGETS = {
    "cli.main": ("ammorbit.cli", "main"),
    "cli.json_payload": ("ammorbit.cli", "_json_payload"),
    "cli.emit": ("ammorbit.cli", "_emit"),
    "axioms.check_validity_invariance": ("ammorbit.axioms", "check_validity_invariance"),
    "axioms.check_pareto": ("ammorbit.axioms", "check_pareto"),
    "axioms.check_unit_invariance": ("ammorbit.axioms", "check_unit_invariance"),
    "axioms.check_token_symmetry": ("ammorbit.axioms", "check_token_symmetry"),
    "axioms.shrink": ("ammorbit.axioms", "shrink"),
    "rand.trial_rng": ("ammorbit.rand", "trial_rng"),
    "rand.log_uniform": ("ammorbit.rand", "log_uniform"),
    "rules.swap": ("ammorbit.rules", "swap"),
    "rules.out_amount": ("ammorbit.rules", "out_amount"),
    "state.as_reserves": ("ammorbit.state", "as_reserves"),
    "state.weighted_gmean": ("ammorbit.state", "weighted_gmean"),
    "fees.fee_swap": ("ammorbit.fees", "fee_swap"),
    "fees.fee_drift": ("ammorbit.fees", "fee_drift"),
    "classify.sample_orbit": ("ammorbit.classify", "sample_orbit"),
    "classify.fit_log_line": ("ammorbit.classify", "fit_log_line"),
    "classify.verify_level_sets": ("ammorbit.classify", "verify_level_sets"),
    "classify.orbit_to_csv": ("ammorbit.classify", "orbit_to_csv"),
}

MODULES = ("ammorbit.cli", "ammorbit.axioms", "ammorbit.classify", "ammorbit.fees",
           "ammorbit.rand", "ammorbit.rules", "ammorbit.state")


class Tracer:
    """Records one span per wrapped call in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def wrap(self, name: str, fn):
        fid = self.ids.setdefault(name, len(self.ids))
        if fid == len(self.names):
            self.names.append(name)
        fids, parents, stack = self.fid, self.parent, self.stack
        starts, ends = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        n = len(self.fid)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        # A parent is allocated before its children, so one forward pass
        # marks every span that runs inside a shrink.
        shrink_id = self.ids.get("axioms.shrink", -1)
        swap_id = self.ids.get("rules.swap", -1)
        in_shrink = [False] * n
        shrink_swaps = 0
        functions = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for k in range(n):
            p = self.parent[k]
            in_shrink[k] = p >= 0 and (in_shrink[p] or self.fid[p] == shrink_id)
            if in_shrink[k] and self.fid[k] == swap_id:
                shrink_swaps += 1
            entry = functions[self.names[self.fid[k]]]
            duration = self.end[k] - self.start[k]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child[k]
        return {"spans": n, "functions": functions, "shrink_swap_calls": shrink_swaps}


def install(tracer: Tracer) -> None:
    """Replace every module binding of each target with its traced wrapper."""
    modules = [importlib.import_module(name) for name in MODULES]
    for name, (module, attr) in TARGETS.items():
        original = getattr(importlib.import_module(module), attr)
        wrapper = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    parse_rule = importlib.import_module("ammorbit.rules").parse_rule
    traced_parse = tracer.wrap("cli.parse_rule", parse_rule)

    def parse_traced_rule(text):
        rule = traced_parse(text)
        return dataclasses.replace(rule, swap_in=tracer.wrap("rules.swap_in", rule.swap_in),
                                   domain=tracer.wrap("rules.domain", rule.domain))

    for mod in modules:
        if getattr(mod, "parse_rule", None) is parse_rule:
            mod.parse_rule = parse_traced_rule


def main() -> int:
    if len(sys.argv) < 2:
        print("usage: trace_cli.py SUMMARY_OUT CLI_ARGS...", file=sys.stderr)
        return 2
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    import ammorbit.cli

    try:
        return ammorbit.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
