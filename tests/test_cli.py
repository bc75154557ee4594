"""Command-line surface: exit codes, payload schemas, determinism."""

import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ammorbit import AmmError, cli, parse_rule


def run(args, tmp_path, name="out"):
    """Invoke main() writing to a temp file; return (exit code, payload path)."""
    path = tmp_path / name
    rc = cli.main(list(args) + ["--output", str(path)])
    return rc, path


class TestExitCodes:
    def test_conforming_rule_exits_zero(self, tmp_path):
        rc, _ = run(["check-axioms", "--rule", "wgm:0.5", "--trials", "50",
                     "--seed", "7"], tmp_path)
        assert rc == 0

    def test_failing_rule_exits_one_with_report(self, tmp_path):
        rc, path = run(["check-axioms", "--rule", "csum", "--trials", "50",
                        "--seed", "7"], tmp_path)
        assert rc == 1
        assert json.loads(path.read_text())["passed"] is False

    def test_unknown_rule_exits_two(self, capsys):
        assert cli.main(["check-axioms", "--rule", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_a_vanishing_wgm_weight_exits_two_naming_it(self, capsys):
        assert cli.main(["check-axioms", "--rule", "wgm:1e-17"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: wgm weight 1e-17 is too small: 1 - w rounds to 1.0\n"

    def test_unknown_flag_exits_two(self, capsys):
        assert cli.main(["check-axioms", "--rule", "wgm:0.5", "--frobnicate"]) == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        assert cli.main(["transmogrify"]) == 2

    def test_no_arguments_exits_two(self, capsys):
        assert cli.main([]) == 2

    def test_unwritable_output_exits_two(self, capsys):
        rc = cli.main(["check-axioms", "--rule", "wgm:0.5", "--trials", "10",
                       "--output", "/nonexistent/dir/x.json"])
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err

    def test_csv_format_rejected_for_axiom_reports(self, capsys):
        rc = cli.main(["check-axioms", "--rule", "wgm:0.5", "--format", "csv"])
        assert rc == 2

    @pytest.mark.parametrize("command", ["orbit-export", "classify"])
    def test_more_samples_than_draws_can_hold_exits_two(self, command, capsys):
        # Refused where the draws are sized, before any allocation.
        assert cli.main([command, "--rule", "wgm:0.5", "--samples", str(10**20)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot hold ")


class TestCheckAxiomsPayload:
    def test_schema(self, tmp_path):
        rc, path = run(["check-axioms", "--rule", "wgm:0.5", "--trials", "50",
                        "--seed", "7"], tmp_path)
        d = json.loads(path.read_text())
        assert d["spec_version"] == "1.0"
        assert d["command"] == "check-axioms"
        assert d["rule"] == "wgm:0.5"
        assert d["seed"] == 7
        assert d["passed"] is True
        assert [r["axiom"] for r in d["reports"]] == [
            "validity_invariance", "pareto_efficiency",
            "unit_invariance", "token_symmetry"]
        assert all(r["passed"] for r in d["reports"])

    def test_token_symmetry_reported_but_not_required(self, tmp_path):
        # skewed weights break the mirror property without breaking the
        # universal axioms, so the report shows the failure but exits 0
        rc, path = run(["check-axioms", "--rule", "wgm:0.3", "--trials", "200",
                        "--seed", "7"], tmp_path)
        assert rc == 0
        d = json.loads(path.read_text())
        by_name = {r["axiom"]: r for r in d["reports"]}
        assert d["passed"] is True
        assert by_name["token_symmetry"]["passed"] is False
        assert by_name["token_symmetry"]["required"] is False
        assert by_name["validity_invariance"]["required"] is True

    def test_failed_reports_carry_shrunk_witnesses(self, tmp_path):
        rc, path = run(["check-axioms", "--rule", "csum", "--trials", "100",
                        "--seed", "7"], tmp_path)
        d = json.loads(path.read_text())
        by_name = {r["axiom"]: r for r in d["reports"]}
        validity = by_name["validity_invariance"]
        assert validity["shrunk"] is True
        assert validity["witness"]["inputs"]["state"] == [1.0, 1.0]
        assert validity["witness"]["inputs"]["amount"] == 1.0
        assert validity["witness"]["observed"] == [2.0, 0.0]
        assert not by_name["unit_invariance"]["passed"]

    def test_three_token_rule_reports_three_axioms(self, tmp_path):
        rc, path = run(["check-axioms", "--rule", "wprod:0.5,0.3,0.2",
                        "--trials", "50", "--seed", "7"], tmp_path)
        assert rc == 0
        d = json.loads(path.read_text())
        assert len(d["reports"]) == 3


class TestClassifyCommand:
    def test_recovers_weight(self, tmp_path):
        rc, path = run(["classify", "--rule", "wgm:0.8", "--orbits", "5",
                        "--samples", "64", "--seed", "7"], tmp_path)
        assert rc == 0
        d = json.loads(path.read_text())
        assert abs(d["w_hat"] - 0.8) <= 1e-9
        assert d["verdict"] is True
        assert d["spec_version"] == "1.0"

    def test_constant_sum_fails(self, tmp_path):
        rc, path = run(["classify", "--rule", "csum", "--orbits", "3",
                        "--samples", "16", "--seed", "0"], tmp_path)
        assert rc == 1
        d = json.loads(path.read_text())
        assert d["verdict"] is False
        assert d["failure"]

    def test_failure_precedence(self, tmp_path):
        # A slope-spread failure is named first; otherwise the first orbit
        # whose implied invariant varies by more than the tolerance.  The
        # tolerances come from the run's own spreads, which rest on libm.
        args = ["classify", "--rule", "wgm:0.3", "--orbits", "3", "--samples", "16",
                "--seed", "7", "--tolerance"]

        def classify(tolerance):
            rc, path = run(args + [repr(tolerance)], tmp_path)
            d = json.loads(path.read_text())
            assert rc == (0 if d["verdict"] else 1) and d["verdict"] == (d["failure"] is None)
            return d

        loose = classify(0.5)
        slope = loose["slope_spread"]
        spreads = [orbit["invariant_spread"] for orbit in loose["orbits"]]
        assert loose["verdict"] is True and slope > 0.0
        # Below every spread: each orbit exceeds it too, but the slopes are named.
        below = min(slope, *spreads) / 2
        assert classify(below)["failure"] == (f"slope spread {slope!r} exceeds tolerance "
                                              f"{below!r}")
        # At the slope spread, the slopes agree; the first orbit beyond it is named.
        first = next((k for k, spread in enumerate(spreads) if spread > slope), None)
        expected = None if first is None else (
            f"orbit {first}: implied invariant varies by {spreads[first]!r} (tolerance {slope!r})")
        assert classify(slope)["failure"] == expected

    def test_rejects_multi_token_rule(self, capsys):
        rc = cli.main(["classify", "--rule", "wprod:0.5,0.3,0.2"])
        assert rc == 2

    def test_rejects_single_orbit(self, capsys):
        rc = cli.main(["classify", "--rule", "wgm:0.5", "--orbits", "1"])
        assert rc == 2


class TestSimulateFeesCommand:
    def test_csv_default_format(self, tmp_path):
        rc, path = run(["simulate-fees", "--rule", "product", "--phi", "0.003",
                        "--trades", "5", "--seed", "3"], tmp_path, "fees.csv")
        assert rc == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,x,y,phi"
        assert len(lines) == 7
        phis = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(b > a for a, b in zip(phis, phis[1:]))

    def test_json_format(self, tmp_path):
        rc, path = run(["simulate-fees", "--rule", "product", "--phi", "0.0",
                        "--trades", "3", "--seed", "3", "--format", "json"],
                       tmp_path, "fees.json")
        assert rc == 0
        d = json.loads(path.read_text())
        assert d["phi"] == 0.0
        assert len(d["invariant_values"]) == 4
        first = d["invariant_values"][0]
        assert all(abs(v - first) <= 1e-12 * first for v in d["invariant_values"])

    def test_phi_flag_required(self, capsys):
        assert cli.main(["simulate-fees", "--rule", "product"]) == 2

    def test_rule_without_invariant_rejected(self, capsys):
        rc = cli.main(["simulate-fees", "--rule", "csum", "--phi", "0.003"])
        assert rc == 2

    def test_custom_start(self, tmp_path):
        rc, path = run(["simulate-fees", "--rule", "product", "--phi", "0.01",
                        "--trades", "2", "--seed", "1", "--start", "4,9"],
                       tmp_path, "fees.csv")
        assert rc == 0
        first = path.read_text().strip().split("\n")[1].split(",")
        assert float(first[1]) == 4.0 and float(first[2]) == 9.0

    def test_bad_start_rejected(self, capsys):
        rc = cli.main(["simulate-fees", "--rule", "product", "--phi", "0.01",
                       "--start", "4,banana"])
        assert rc == 2

    def test_invariant_overflow_is_one_error_line(self, capsys):
        # Weights summing to 1 + 9e-13 pass the weight check, and lift the
        # invariant of reserves at the float maximum past it.
        top = "1.7976931348623157e308"
        rc = cli.main(["simulate-fees", "--rule", "wprod:0.2,0.3,0.5000000000009", "--phi", "0",
                       "--trades", "0", "--start", ",".join([top] * 3)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: invariant overflow") and \
            captured.err.count("\n") == 1, captured.err


class TestSeedRange:
    # Seeds key 64-bit Philox streams; one outside [0, 2**64) used to wrap
    # silently onto another seed's output in the walk commands.
    COMMANDS = {
        "check-axioms": ["check-axioms", "--rule", "wgm:0.5", "--trials", "10"],
        "classify": ["classify", "--rule", "wgm:0.5", "--orbits", "2", "--samples", "16"],
        "fees-csv": ["simulate-fees", "--rule", "product", "--phi", "0.003", "--trades", "10"],
        "fees-no-trades": ["simulate-fees", "--rule", "product", "--phi", "0.003",
                           "--trades", "0"],
        "fees-json": ["simulate-fees", "--rule", "product", "--phi", "0.003", "--trades", "10",
                      "--format", "json"],
        "orbit-csv": ["orbit-export", "--rule", "wgm:0.5", "--samples", "16"],
        "orbit-json": ["orbit-export", "--rule", "wgm:0.5", "--samples", "16",
                       "--format", "json"],
    }

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_of_range_seed_exits_two(self, command, seed, capsys):
        assert cli.main(self.COMMANDS[command] + ["--seed", str(seed)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed must fit in 64 bits, got {seed}\n"

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_range_ends_are_accepted(self, seed, capsys):
        assert cli.main(["orbit-export", "--rule", "wgm:0.5", "--samples", "16",
                         "--seed", str(seed)]) == 0


class TestOrbitExportCommand:
    def test_csv_export(self, tmp_path):
        rc, path = run(["orbit-export", "--rule", "wgm:0.5", "--samples", "16",
                        "--seed", "0"], tmp_path, "orbit.csv")
        assert rc == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x1,x2,u1,u2"
        assert len(lines) == 18

    def test_boundary_hit_exports_partial_and_exits_one(self, tmp_path, capsys):
        rc, path = run(["orbit-export", "--rule", "csum", "--samples", "32",
                        "--seed", "0", "--format", "json"], tmp_path, "orbit.json")
        assert rc == 1
        assert "warning" in capsys.readouterr().err
        d = json.loads(path.read_text())
        assert d["partial"] is True
        assert len(d["states"]) >= 1

    def test_kernel_overflow_exports_partial_and_exits_one(self, tmp_path, capsys):
        # Step 8 trades from [1.65, 1.03e308] into token 0, and the kernel overflows.
        rc, path = run(["orbit-export", "--rule", "wgm:0.5", "--samples", "64",
                        "--start", "1,1.7e308"], tmp_path, "orbit.csv")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("warning: orbit sampling hit the domain boundary of 'wgm:0.5' "
                              "at step 8: rule 'wgm:0.5' produced a non-finite result")
        assert err.endswith("; exporting the partial orbit\n")
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,u1,u2" and len(lines) == 9
        assert lines[-1].startswith("1.6488984520532874,1.0309913250770152e+308,")

    def test_json_round_trips_states(self, tmp_path):
        rc, path = run(["orbit-export", "--rule", "wgm:0.7", "--samples", "8",
                        "--seed", "4", "--format", "json"], tmp_path, "o.json")
        d = json.loads(path.read_text())
        assert d["partial"] is False
        assert len(d["states"]) == 9
        assert len(d["log_points"]) == 9


class TestDeterminism:
    CASES = [
        ["check-axioms", "--rule", "csum", "--trials", "60", "--seed", "7"],
        ["check-axioms", "--rule", "wgm:0.4", "--trials", "60", "--seed", "7"],
        ["classify", "--rule", "wgm:0.6", "--orbits", "3", "--samples", "32",
         "--seed", "5"],
        ["simulate-fees", "--rule", "product", "--phi", "0.003", "--trades",
         "10", "--seed", "9"],
        ["orbit-export", "--rule", "wgm:0.2", "--samples", "16", "--seed", "2"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda c: c[0] + ":" + c[2])
    def test_double_run_byte_identical(self, argv, tmp_path):
        rc1, p1 = run(argv, tmp_path, "first")
        rc2, p2 = run(argv, tmp_path, "second")
        assert rc1 == rc2
        assert p1.read_bytes() == p2.read_bytes()


class TestStdoutWriteFailure:
    # A failed write to stdout is refused like a failed --output write:
    # exit 2 and one error line, not a traceback, not the exit code of a
    # failed check, and not 120 from the interpreter's own flush at exit.
    ARGV = [sys.executable, "-m", "ammorbit.cli", "orbit-export", "--rule", "wgm:0.5"]

    @staticmethod
    def env(buffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return env if buffered else {**env, "PYTHONUNBUFFERED": "1"}

    @pytest.mark.parametrize("buffered", [True, False])
    def test_closed_pipe_exits_two(self, buffered):
        # Far more than a pipe holds, so the writes hit the closed end.
        proc = subprocess.Popen(self.ARGV + ["--samples", "20000"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.env(buffered))
        assert proc.stdout.read(10) == b"x1,x2,u1,u"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2
        assert err.startswith("error: cannot write stdout: ") and err.count("\n") == 1, err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("samples", ["16", "20000"])
    def test_full_device_exits_two(self, samples, buffered):
        # Buffered, 16 samples fit in the stream's buffer and fail only when flushed.
        with open("/dev/full", "w") as full:
            proc = subprocess.run(self.ARGV + ["--samples", samples], stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=120,
                                  env=self.env(buffered))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: cannot write stdout: ")
        assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS as Linux counts it")
class TestOutOfMemory:
    # Under a 600 MB address-space cap (importing the CLI takes about 150 MB),
    # a run that cannot get memory exits 2 with one error line, as a usage
    # error does, not 1 with a traceback.
    CAP = 600_000 * 1024

    @classmethod
    def run_capped(cls, args):
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (cls.CAP, cls.CAP))

        # One BLAS thread: each further thread reserves address space of its own.
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        return subprocess.run([sys.executable, "-m", "ammorbit.cli", *args],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=300, env=env, preexec_fn=cap)

    @pytest.mark.parametrize("args,message", [
        (["simulate-fees", "--rule", "product", "--phi", "0.003", "--trades", "1000000000"],
         "error: cannot hold 1000000000 trades: "),
        (["orbit-export", "--rule", "wgm:0.5", "--samples", "30000000"], "error: "),
        (["classify", "--rule", "wgm:0.8", "--orbits", "2", "--samples", "30000000"], "error: "),
    ], ids=["simulate-fees", "orbit-export", "classify"])
    def test_a_run_too_big_to_hold_exits_two(self, args, message):
        proc = self.run_capped(args)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_a_fee_export_of_three_million_trades_fits(self):
        # Packed trade columns and states: 3 * 10**6 trades peak near 300 MB.
        proc = self.run_capped(["simulate-fees", "--rule", "product", "--phi", "0.003",
                                "--trades", "3000000"])
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_memory_error_exits_two_with_one_line(monkeypatch, capsys):
    from ammorbit import classify

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(classify, "sample_orbit", no_memory)
    assert cli.main(["orbit-export", "--rule", "wgm:0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: an allocation failed\n"


class TestStartUp:
    """A process loads only what its subcommand runs."""

    @staticmethod
    def loaded(code: str) -> list[str]:
        """The ammorbit submodules, and numpy.ma, that a fresh interpreter
        running code has loaded."""
        probe = ("import sys\nprint(' '.join(sorted(m for m in sys.modules"
                 " if m.startswith('ammorbit.') or m == 'numpy.ma')))")
        proc = subprocess.run([sys.executable, "-c", code + "\n" + probe],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_package_import_loads_no_submodule(self):
        assert self.loaded("import ammorbit") == []

    def test_cli_import_loads_no_subcommand_module(self):
        assert not {"ammorbit.axioms", "ammorbit.classify", "ammorbit.fees"} & set(
            self.loaded("import ammorbit.cli"))

    @pytest.mark.parametrize("argv,module", [
        (["check-axioms", "--rule", "wgm:0.5", "--trials", "10"], "ammorbit.axioms"),
        (["classify", "--rule", "wgm:0.5", "--orbits", "2", "--samples", "16"],
         "ammorbit.classify"),
        (["simulate-fees", "--rule", "product", "--phi", "0.003", "--trades", "10"],
         "ammorbit.fees"),
        (["orbit-export", "--rule", "wgm:0.5", "--samples", "16"], "ammorbit.classify"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_each_subcommand_loads_only_its_own_module(self, argv, module, tmp_path):
        argv = argv + ["--output", str(tmp_path / "out")]
        loaded = self.loaded(f"import ammorbit.cli\nammorbit.cli.main({argv!r})")
        subcommand_modules = {"ammorbit.axioms", "ammorbit.classify", "ammorbit.fees"}
        assert subcommand_modules & set(loaded) == {module}
        assert "numpy.ma" not in loaded

    def test_star_import_binds_every_public_name(self):
        code = ("import ammorbit\nfrom ammorbit import *\n"
                "assert all(name in globals() for name in ammorbit.__all__)")
        self.loaded(code)


class TestProcessEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ammorbit.cli", "check-axioms", "--rule",
             "wgm:0.5", "--trials", "30", "--seed", "7", "--output", str(out)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_stdout_when_no_output_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ammorbit.cli", "check-axioms", "--rule",
             "wgm:0.5", "--trials", "20", "--seed", "7"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "check-axioms"


def test_payloads_are_strict_json():
    # A non-finite float would be written as bare NaN or Infinity, which is
    # not JSON; the serializer refuses it instead.
    with pytest.raises(AmmError):
        cli._json_payload({"value": float("nan")})


# The CLI contract over arbitrary flags: argvs drawn from a small grammar of
# every subcommand, with rule specs, seeds, counts, reals and starts that
# include degenerate and malformed ones.  Counts stay at most 50 trials and
# 200 samples or trades, so each example is cheap.

# Each flag's values: ones a run may accept, then degenerate or malformed ones.
VALUES = {
    "--rule": (["wgm:0.3", "wgm:0.5", "wgm:0.999999", "product", "csum", "wprod:0.2,0.3,0.5",
                "wprod:1e-300,0.5,0.5", "wprod:0.1,0.2,0.3,0.4"],
               ["wgm:1e-300", "wgm:5e-324", "wgm:nan", "wgm:", "wgm:1.5", "wprod:0.5",
                "wprod:a,b", "bogus"]),
    "--seed": (["0", "7", "2", str(2**63 + 5), str(2**64 - 1)], ["-1", str(2**64), "nan"]),
    "--tolerance": (["1e-13", "1e-9", "0.5"], ["0", "1", "inf", "nan", "-1", "x"]),
    "--phi": (["0", "0.003", "0.5"], ["1", "inf", "nan", "-1", "x"]),
    "--start": (["1,1", "1,2,3", "1,1,1,1", "1e300,1e-300"], ["0,1", "nan,1", "inf,1", "1", "a,b"]),
}
# Each count's accepted range; any count may also be -1 or malformed.
COUNTS = {"--trials": (1, 50), "--chain-length": (1, 8), "--orbits": (2, 5),
          "--samples": (8, 200), "--trades": (0, 200)}
FLAGS = {
    "check-axioms": ["--trials", "--chain-length", "--tolerance"],
    "classify": ["--orbits", "--samples", "--tolerance"],
    "simulate-fees": ["--phi", "--trades", "--start"],
    "orbit-export": ["--samples", "--start"],
}
JSON_ONLY = ("check-axioms", "classify")


def flag_values(flag: str, clean: bool):
    if flag in COUNTS:
        lo, hi = COUNTS[flag]
        counts = st.integers(lo if clean else -1, hi).map(str)
        return counts if clean else counts | st.just("x")
    good, bad = VALUES[flag]
    return st.sampled_from(good if clean else good + bad)


@st.composite
def argvs(draw) -> list[str]:
    # About half the argvs draw from the accepted values only, so that
    # many runs get past validation.
    clean = draw(st.booleans())
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command, "--rule", draw(flag_values("--rule", clean))]
    if draw(st.booleans()):
        argv += ["--seed", draw(flag_values("--seed", clean))]
    if draw(st.booleans()):
        formats = ["json"] if clean and command in JSON_ONLY else ["json", "csv"]
        argv += ["--format", draw(st.sampled_from(formats))]
    for flag in FLAGS[command]:
        # --trials is always given, as its default of 1,000 is too many
        # here, and so is --phi, which simulate-fees requires, when clean.
        if flag == "--trials" or (clean and flag == "--phi") or draw(st.booleans()):
            argv += [flag, draw(flag_values(flag, clean))]
    return argv


def run_in_process(argv: list[str]) -> tuple[int, str, str, list]:
    """main(argv)'s exit code, stdout, stderr and the RuntimeWarnings it raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
            redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), [
        str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


def csv_header(command: str, n: int) -> list[str]:
    if command == "simulate-fees":
        return ["step", *(["x", "y"] if n == 2 else [f"x{k + 1}" for k in range(n)]), "phi"]
    return [f"x{k + 1}" for k in range(n)] + [f"u{k + 1}" for k in range(n)]


def refuse_constant(name: str):
    raise ValueError(f"not strict JSON: {name}")


@settings(max_examples=100, deadline=None, database=None)
@given(argvs())
# The chain bound of this rule overflows in log_chains, which must not warn.
@example(["check-axioms", "--rule", "wprod:1e-300,0.5,0.5", "--trials", "50", "--seed", "2"])
def test_cli_contract_holds_on_any_flags(argv):
    code, out, err, warned = run_in_process(argv)
    assert warned == []
    assert code in (0, 1, 2)
    assert run_in_process(argv) == (code, out, err, [])
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("usage: ") or (err.startswith("error: ") and err.count("\n") == 1)
    if code != 0:
        return
    command, rule = argv[0], argv[2]
    default = "json" if command in JSON_ONLY else "csv"
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else default
    if fmt == "json":
        payload = json.loads(out, parse_constant=refuse_constant)
        assert payload["spec_version"] == "1.0"
        assert payload["command"] == command
    else:
        header, *rows = [line.split(",") for line in out.splitlines()]
        assert header == csv_header(command, parse_rule(rule).dimension)
        assert rows and all(len(row) == len(header) for row in rows)
        [float(cell) for row in rows for cell in row]
