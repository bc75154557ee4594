"""Command-line front end.

Subcommands:

* check-axioms: run the conformance checks on a rule, write a JSON report;
* classify: sample orbits of a two-token rule and recover its weight;
* simulate-fees: fold random fee trades and export the invariant drift;
* orbit-export: sample one orbit and export its states and log points.

Exit codes: 0 all checks passed / output written, 1 a check failed (the
report is still written), 2 bad usage or configuration, or out of memory.
Identical invocations produce byte-identical output; every JSON payload
carries a spec_version format field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Iterable, Iterator

import numpy as np

from .errors import AmmError, ConfigError, InternalError, SamplingError, UsageError, require_seed
from .rand import trial_draws
from .rules import parse_rule
from .state import _row_blocks

SPEC_VERSION = "1.0"

# Reserved stream index for drawing orbit starts, clear of the per-orbit
# sampling seeds (cfg.seed xor k for small k).
_START_STREAM = 2**32 - 1

_START_RANGE = (1e-2, 1e2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ammorbit",
        description="Swap-rule conformance checks and orbit classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_format: str) -> None:
        p.add_argument("--rule", required=True,
                       help="rule spec: wgm:<w> | product | csum | wprod:<w1>,<w2>,...")
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")
        p.add_argument("--format", choices=("json", "csv"), default=default_format)
        p.add_argument("--output", default=None, help="write here instead of stdout")

    p = sub.add_parser("check-axioms", help="run conformance checks on a rule")
    common(p, "json")
    p.add_argument("--trials", type=int, default=1000, help="trials per check")
    p.add_argument("--chain-length", type=int, default=32)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_check_axioms)

    p = sub.add_parser("classify", help="recover a two-token rule's weight from orbits")
    common(p, "json")
    p.add_argument("--orbits", type=int, default=5, help="number of sampled orbits")
    p.add_argument("--samples", type=int, default=64, help="swaps per orbit")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("simulate-fees", help="fold random fee trades and export the drift")
    common(p, "csv")
    p.add_argument("--phi", type=float, required=True, help="fee rate in [0, 1)")
    p.add_argument("--trades", type=int, default=100)
    p.add_argument("--start", default=None, help="comma-separated reserves, default all ones")
    p.set_defaults(handler=_cmd_simulate_fees)

    p = sub.add_parser("orbit-export", help="sample one orbit and export it")
    common(p, "csv")
    p.add_argument("--samples", type=int, default=64, help="swaps along the orbit")
    p.add_argument("--start", default=None, help="comma-separated reserves, default all ones")
    p.set_defaults(handler=_cmd_orbit_export)

    return parser


def _emit(blocks: Iterable[str], output: str | None) -> None:
    """Write an output's text blocks to the output file or stdout as they come."""
    try:
        with open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout) as fh:
            fh.writelines(blocks)
            fh.flush()
    except OSError as exc:
        if not output:
            # Send what is still buffered nowhere: the flush at exit would fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise ConfigError(f"cannot write {repr(output) if output else 'stdout'}: {exc}") from exc


class _Rows(tuple):
    """Equal-length 1-D arrays, each of ints or of floats, that JSON writes
    as the list of their rows."""


def _json_payload(payload: dict) -> Iterator[str]:
    """The text of json.dumps(payload, indent=2, allow_nan=False) and a newline.
    Tables (each a _Rows or a 1-D array) must be the last keys: json.dumps writes
    the rest, then the tables follow in blocks of rows formatted as they are read.
    A NaN or an infinity anywhere raises here, before the first block."""
    is_table = [isinstance(value, (_Rows, np.ndarray)) for value in payload.values()]
    if is_table != sorted(is_table):
        raise InternalError(f"payload tables must follow its other keys: {list(payload)}")
    items = list(payload.items())
    rest = dict(items[:is_table.count(False)])
    tables = [(key, table if isinstance(table, _Rows) else (table,), isinstance(table, _Rows))
              for key, table in items[len(rest):]]
    if not all(np.isfinite(column).all() for _, columns, _ in tables for column in columns):
        raise InternalError("payload is not strict JSON: a table holds a NaN or an infinity")
    try:
        text = json.dumps(rest, indent=2, allow_nan=False)
    except ValueError as exc:
        raise InternalError(f"payload is not strict JSON: {exc}") from exc
    except TypeError as exc:
        raise InternalError(f"payload is not JSON: {exc}") from exc
    return _tables(text, tables) if tables else iter([text, "\n"])


def _tables(text: str, tables: list) -> Iterator[str]:
    """text, the json.dumps(..., indent=2) of a dict, with tables (key,
    columns, whether each row is a list) as its last keys, and a newline."""
    yield "{" if text == "{}" else text[:-2] + ","
    for k, (key, columns, lists) in enumerate(tables):
        yield f'{"," if k else ""}\n  {json.dumps(key)}: [' + ("\n    " if len(columns[0]) else "]")
        if len(columns[0]):
            cells = ",\n      ".join(["%r"] * len(columns))
            yield from _row_blocks("[\n      " + cells + "\n    ]" if lists else cells, ",\n    ",
                                   columns)
            yield "\n  ]"
    yield "\n}\n"


def _parse_start(raw: str | None, dimension: int) -> list[float]:
    # The walks check the start like any other state.
    if raw is None:
        return [1.0] * dimension
    try:
        return [float(part) for part in raw.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad start {raw!r}; expected comma-separated numbers") from exc


def _require_json(args) -> None:
    if args.format != "json":
        raise UsageError(f"{args.command} only supports --format json")


# The exit code reflects the three axioms every conforming rule must
# satisfy.  Token symmetry is reported alongside them but marked not
# required: asymmetric-weight rules are conforming and still fail it.
_REQUIRED_AXIOMS = frozenset({"validity_invariance", "pareto_efficiency", "unit_invariance"})


# Each subcommand imports the one module it runs, so a process loads only that.
def _cmd_check_axioms(args) -> int:
    from .axioms import TrialConfig, check_all, report_to_dict, shrink

    _require_json(args)
    rule = parse_rule(args.rule)
    cfg = TrialConfig(seed=args.seed, trials=args.trials,
                      chain_length=args.chain_length, tolerance=args.tolerance)
    reports = check_all(rule, cfg)
    reports = [shrink(r, rule) if not r.passed else r for r in reports]
    passed = all(r.passed for r in reports if r.axiom in _REQUIRED_AXIOMS)
    entries = []
    for r in reports:
        entry = report_to_dict(r)
        entry["required"] = r.axiom in _REQUIRED_AXIOMS
        entries.append(entry)
    payload = {
        "spec_version": SPEC_VERSION,
        "command": "check-axioms",
        "rule": rule.name,
        "seed": int(args.seed),
        "trials": int(args.trials),
        "tolerance": float(args.tolerance),
        "passed": passed,
        "reports": entries,
    }
    _emit(_json_payload(payload), args.output)
    return 0 if passed else 1


def _cmd_classify(args) -> int:
    from .classify import OrbitConfig, classification_to_dict, verify_level_sets

    _require_json(args)
    rule = parse_rule(args.rule)
    if rule.dimension != 2:
        raise UsageError("classify works on two-token rules; use the library's "
                         "hyperplane fit for more tokens")
    if args.orbits < 2:
        raise UsageError(f"need at least 2 orbits, got {args.orbits}")
    # One stream, read as consecutive two-coordinate draws.
    draws = trial_draws(args.seed, [_START_STREAM])
    starts = list(draws.log_uniform(*_START_RANGE, 2 * args.orbits).reshape(args.orbits, 2))
    cfg = OrbitConfig(seed=args.seed, samples=args.samples, tolerance=args.tolerance)
    report = verify_level_sets(rule, starts, cfg)
    payload = {
        "spec_version": SPEC_VERSION,
        "command": "classify",
        "seed": int(args.seed),
        "orbits": int(args.orbits),
        "samples": int(args.samples),
        "tolerance": float(args.tolerance),
    }
    payload.update(classification_to_dict(report))
    _emit(_json_payload(payload), args.output)
    return 0 if report.verdict else 1


def _cmd_simulate_fees(args) -> int:
    from .fees import _drift_csv, _fold

    rule = parse_rule(args.rule)
    if args.trades < 0:
        raise UsageError(f"trades must be >= 0, got {args.trades}")
    start = _parse_start(args.start, rule.dimension)
    series, walk = _fold(rule, start, _random_trades(args.seed, rule.dimension, args.trades),
                         args.phi, relative=True)
    if args.format == "csv":
        _emit(_drift_csv(series), args.output)
    else:
        payload = {
            "spec_version": SPEC_VERSION,
            "command": "simulate-fees",
            "rule": rule.name,
            "phi": float(args.phi),
            "seed": int(args.seed),
            "trades": _Rows(map(np.asarray, walk.tried)),
            "states": _Rows(walk.states.T),
            "invariant_values": series.invariant_values,
        }
        _emit(_json_payload(payload), args.output)
    return 0


# Trades drawn at a time: bounds the draws' memory whatever --trades is.
_TRADE_BLOCK = 4096


def _random_trades(seed: int, n: int, count: int) -> tuple[memoryview, memoryview, memoryview]:
    """Columns i, j and fraction of reserve i of count trades, trade t drawn from stream t."""
    try:
        i, j, x = np.empty(count, np.int32), np.empty(count, np.int32), np.empty(count)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"cannot hold {count} trades: {exc}") from None
    for first in range(0, count, _TRADE_BLOCK):
        last = min(first + _TRADE_BLOCK, count)
        draws = trial_draws(seed, range(first, last))
        i[first:last], j[first:last] = draws.pairs(n, 1)[:, :, 0]
        x[first:last] = draws.log_uniform(1e-3, 1.0, 1)[:, 0]
    return memoryview(i), memoryview(j), memoryview(x)


def _cmd_orbit_export(args) -> int:
    from .classify import _orbit_csv, sample_orbit

    rule = parse_rule(args.rule)
    start = _parse_start(args.start, rule.dimension)
    partial = False
    try:
        sample = sample_orbit(rule, start, args.samples, seed=args.seed)
    except SamplingError as exc:
        print(f"warning: {exc}; exporting the partial orbit", file=sys.stderr)
        sample = exc.partial
        partial = True
    if args.format == "csv":
        _emit(_orbit_csv(sample), args.output)
    else:
        payload = {
            "spec_version": SPEC_VERSION,
            "command": "orbit-export",
            "rule": rule.name,
            "seed": int(args.seed),
            "start": [float(v) for v in sample.start],
            "partial": partial,
            "states": _Rows(sample.states.T),
            "log_points": _Rows(sample.log_points.T),
        }
        _emit(_json_payload(payload), args.output)
    return 1 if partial else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        require_seed(args.seed)
        return args.handler(args)
    except AmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
