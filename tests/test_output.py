"""CLI output: the block JSON writer against json.dumps, exports across the
1,024-row block boundary against references built here, --output against
stdout, and the memory that writing an export takes."""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammorbit import InternalError, cli, drift_to_csv, orbit_to_csv, parse_rule, sample_orbit
from ammorbit.fees import _fold


def written(payload) -> str:
    return "".join(cli._json_payload(payload))


def dumped(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


# Strings with non-ASCII, surrogate-free and control characters; numbers at
# the edges of their types.
texts = st.text(st.characters(exclude_categories=("Cs",)), max_size=12) | st.sampled_from(
    ["", "\x00\x1f\x7f", "\"\\/\b\f\n\r\t", "é中\U0001f600", "  "])
ints = st.integers() | st.sampled_from([2**63, 2**64 + 1, -(2**200), 10**400])
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, 1e16, 1e-7])
numbers = ints | floats
scalars = st.none() | st.booleans() | numbers | texts
rows = st.lists(st.lists(numbers | st.booleans(), min_size=1, max_size=4), max_size=6)
values = st.recursive(
    scalars | rows | st.lists(numbers, max_size=8),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(texts, inner, max_size=4)),
    max_leaves=24,
)


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(texts, values, max_size=5))
    def test_matches_json_dumps(self, payload):
        assert written(payload) == dumped(payload)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(-(2**62), 2**62), floats),
                    max_size=2100))
    def test_row_tables_match_json_dumps(self, table):
        columns = [np.array(column, dtype=dtype) for column, dtype in
                   zip(zip(*table), (np.int64, np.int64, float))] if table else [
                       np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)]
        payload = {"before": [1, 2.5], "rows": cli._Rows(columns)}
        assert written(payload) == dumped({"before": [1, 2.5],
                                           "rows": [list(row) for row in table]})
        with pytest.raises(InternalError, match="tables must follow"):
            cli._json_payload({"rows": cli._Rows(columns), "after": [1, 2.5]})

    @pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2500])
    def test_number_lists_across_blocks(self, count):
        payload = {"floats": [k / 7 for k in range(count)], "ints": list(range(-count, 0)),
                   "mixed": [k if k % 2 else k / 3 for k in range(count)]}
        assert written(payload) == dumped(payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["scalar", "nested", "list", "row block"])
    def test_non_finite_floats_raise_before_any_block(self, bad, where):
        values = np.arange(3000, dtype=float)
        values[2500] = bad
        payload = {
            "scalar": {"value": bad},
            "nested": {"a": [1, {"b": [2.0, (3, bad)]}]},
            "list": {"values": values.tolist()},
            "row block": {"rows": cli._Rows([np.arange(3000), values])},
        }[where]
        with pytest.raises(InternalError, match="not strict JSON"):
            cli._json_payload(payload)

    def test_unsupported_values_raise(self):
        with pytest.raises(InternalError, match="not JSON"):
            written({"value": object()})


def drift_reference(series) -> str:
    """drift_to_csv as it was: one '%.17g' per cell, header from the dimension."""
    n = series.states[0].size
    names = ["x", "y"] if n == 2 else [f"x{k + 1}" for k in range(n)]
    lines = [",".join(["step", *names, "phi"])]
    for k, (state, value) in enumerate(zip(series.states, series.invariant_values)):
        lines.append(",".join("%.17g" % v for v in (k, *state.tolist(), value)))
    return "\n".join(lines) + "\n"


def orbit_reference(sample) -> str:
    n = sample.log_points.shape[1]
    lines = [",".join([f"x{k + 1}" for k in range(n)] + [f"u{k + 1}" for k in range(n)])]
    for state, logs in zip(sample.states, sample.log_points):
        lines.append(",".join("%.17g" % v for v in (*state.tolist(), *logs.tolist())))
    return "\n".join(lines) + "\n"


def fee_walk(rule: str, trades: int, seed: int):
    parsed = parse_rule(rule)
    return parsed, _fold(parsed, [1.0] * parsed.dimension,
                         cli._random_trades(seed, parsed.dimension, trades), 0.003,
                         relative=True)


def run_cli(argv, capsys) -> tuple[int, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


# Every golden file is under 1,024 rows; these sizes put rows on both
# sides of one and two block boundaries.
ROWS = [1023, 1024, 1025, 2500]


class TestExportsAcrossBlocks:
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("rule", ["product", "wprod:0.2,0.3,0.5"])
    def test_fee_csv(self, rows, rule, capsys):
        _, (series, _) = fee_walk(rule, rows - 1, 5)
        code, out = run_cli(["simulate-fees", "--rule", rule, "--phi", "0.003",
                             "--trades", str(rows - 1), "--seed", "5"], capsys)
        assert code == 0
        assert out == drift_reference(series) == drift_to_csv(series)
        assert out.count("\n") == rows + 1

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("rule", ["wgm:0.5", "wprod:0.2,0.3,0.5"])
    def test_orbit_csv(self, rows, rule, capsys):
        parsed = parse_rule(rule)
        sample = sample_orbit(parsed, [1.0] * parsed.dimension, rows - 1, seed=5)
        code, out = run_cli(["orbit-export", "--rule", rule, "--samples", str(rows - 1),
                             "--seed", "5"], capsys)
        assert code == 0
        assert out == orbit_reference(sample) == orbit_to_csv(sample)
        assert out.count("\n") == rows + 1

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("rule", ["product", "wprod:0.2,0.3,0.5"])
    def test_fee_json(self, rows, rule, capsys):
        parsed, (series, walk) = fee_walk(rule, rows - 1, 5)
        reference = {
            "spec_version": cli.SPEC_VERSION,
            "command": "simulate-fees",
            "rule": parsed.name,
            "phi": 0.003,
            "seed": 5,
            "trades": [[int(i), int(j), float(a)] for i, j, a in walk.moves],
            "states": [state.tolist() for state in series.states],
            "invariant_values": [float(v) for v in series.invariant_values],
        }
        code, out = run_cli(["simulate-fees", "--rule", rule, "--phi", "0.003",
                             "--trades", str(rows - 1), "--format", "json", "--seed", "5"],
                            capsys)
        assert code == 0
        assert out == dumped(reference)
        assert len(json.loads(out)["states"]) == rows

    @pytest.mark.parametrize("rows", ROWS)
    def test_orbit_json(self, rows, capsys):
        sample = sample_orbit(parse_rule("wgm:0.5"), [1.0, 1.0], rows - 1, seed=5)
        reference = {
            "spec_version": cli.SPEC_VERSION,
            "command": "orbit-export",
            "rule": "wgm:0.5",
            "seed": 5,
            "start": [1.0, 1.0],
            "partial": False,
            "states": [state.tolist() for state in sample.states],
            "log_points": sample.log_points.tolist(),
        }
        code, out = run_cli(["orbit-export", "--rule", "wgm:0.5", "--samples", str(rows - 1),
                             "--format", "json", "--seed", "5"], capsys)
        assert code == 0
        assert out == dumped(reference)


class TestBlocks:
    """Exports come out in blocks of 1,024 rows, the last one shorter."""

    def test_csv_blocks(self):
        sample = sample_orbit(parse_rule("wgm:0.5"), [1.0, 1.0], 2499, seed=5)
        blocks = list(cli._orbit_csv(sample))
        assert [block.count("\n") for block in blocks] == [1, 1024, 1024, 452]

    def test_json_row_blocks(self):
        _, (_, walk) = fee_walk("product", 2499, 5)
        blocks = list(cli._json_payload({"states": cli._Rows(walk.states.T)}))
        # Blocks: the opening "{", the key, three of rows (each row closes on
        # one "]"), then the closing "]", and "}" with the final newline.
        assert [block.count("]") for block in blocks[2:-2]] == [1024, 1024, 452]
        assert blocks[-2:] == ["\n  ]", "\n}\n"]


class TestOutputFile:
    CASES = [
        ["check-axioms", "--rule", "csum", "--trials", "50", "--seed", "7"],
        ["check-axioms", "--rule", "wgm:0.4", "--trials", "50", "--seed", "7"],
        ["classify", "--rule", "wgm:0.6", "--orbits", "3", "--samples", "32", "--seed", "5"],
        ["simulate-fees", "--rule", "product", "--phi", "0.003", "--trades", "1500",
         "--seed", "9"],
        ["simulate-fees", "--rule", "wprod:0.2,0.3,0.5", "--phi", "0.003", "--trades", "1500",
         "--format", "json", "--seed", "9"],
        ["orbit-export", "--rule", "wgm:0.2", "--samples", "1500", "--seed", "2"],
        ["orbit-export", "--rule", "csum", "--samples", "64", "--format", "json", "--seed", "7"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda c: f"{c[0]}:{c[2]}:{c[-1]}")
    def test_file_bytes_equal_stdout_bytes(self, argv, tmp_path, capsys):
        code, out = run_cli(argv, capsys)
        path = tmp_path / "out"
        assert cli.main(argv + ["--output", str(path)]) == code
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == out.encode("utf-8")


class TestNonFiniteExports:
    """A NaN or an infinity in an export fails the command and writes nothing,
    however far into the output it sits."""

    def poisoned_fold(self, monkeypatch, where):
        real = cli._fold

        def fold(*args, **kwargs):
            series, walk = real(*args, **kwargs)
            if where == "states":
                states = walk.states.copy()
                states[2000, 1] = math.inf
                walk = walk._replace(states=states)
            else:
                values = list(series.invariant_values)
                values[2000] = math.nan
                series = type(series)(rule=series.rule, fee=series.fee, states=series.states,
                                      invariant_values=np.array(values))
            return series, walk

        monkeypatch.setattr(cli, "_fold", fold)

    @pytest.mark.parametrize("where", ["states", "invariant_values"])
    def test_fee_json_writes_nothing(self, where, monkeypatch, tmp_path, capsys):
        self.poisoned_fold(monkeypatch, where)
        argv = ["simulate-fees", "--rule", "product", "--phi", "0.003", "--trades", "3000",
                "--format", "json", "--seed", "1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not strict JSON" in captured.err
        path = tmp_path / "out.json"
        assert cli.main(argv + ["--output", str(path)]) == 2
        assert not path.exists()


def serialization_peak(argv, producer: str) -> tuple[int, int]:
    """Peak traced memory from the call of cli.<producer> to the last block
    written, and the length of the text; the blocks go to a sink that keeps
    only their length."""
    real_producer, real_emit = getattr(cli, producer), cli._emit
    seen = {}

    def traced(*args):
        tracemalloc.start()
        return real_producer(*args)

    def sink(blocks, output):
        seen["text"] = sum(len(block) for block in blocks)
        seen["peak"] = tracemalloc.get_traced_memory()[1]

    try:
        setattr(cli, producer, traced)
        cli._emit = sink
        assert cli.main(argv) == 0
    finally:
        tracemalloc.stop()
        setattr(cli, producer, real_producer)
        cli._emit = real_emit
    return seen["peak"], seen["text"]


class TestExportMemory:
    # Holding the whole text would take 1x its length; json.dumps with
    # indent=2 took 5x (7.4 MB for 1.39 MB).  Written a block at a time,
    # an export holds about one block.

    def test_fee_json_payload(self):
        peak, text = serialization_peak(
            ["simulate-fees", "--rule", "product", "--phi", "0.003", "--trades", "10000",
             "--format", "json"], "_json_payload")
        assert text > 1_300_000
        assert peak < 0.5 * text

    def test_orbit_csv(self):
        peak, text = serialization_peak(
            ["orbit-export", "--rule", "wgm:0.5", "--samples", "30000"], "_orbit_csv")
        assert text > 2_000_000
        assert peak < 0.5 * text
