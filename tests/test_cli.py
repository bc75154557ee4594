"""Command-line surface: exit codes, payload schemas, determinism."""

import json
import subprocess
import sys

import pytest

from ammorbit import AmmError, cli


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
