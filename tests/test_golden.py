"""Golden CLI outputs: the criterion 7 invocations, a 3-token check, checks
at extreme weights and at a tolerance near machine precision, and orbit and
fee walks (a partial orbit, 3-token orbits and fee drift, a zero fee),
compared byte for byte against recorded files.

Regenerate (only for an intended format change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

import pytest

from ammorbit import cli

GOLDEN = Path(__file__).parent / "golden"

# (file name, argv, exit code)
CASES = [
    ("check_wgm0.3.json",
     ["check-axioms", "--rule", "wgm:0.3", "--trials", "500", "--seed", "7"], 0),
    ("check_csum.json",
     ["check-axioms", "--rule", "csum", "--trials", "100", "--seed", "7"], 1),
    ("classify_wgm0.8.json",
     ["classify", "--rule", "wgm:0.8", "--orbits", "5", "--samples", "64", "--seed", "7"], 0),
    ("fees_product.csv",
     ["simulate-fees", "--rule", "product", "--phi", "0.003", "--trades", "25",
      "--seed", "7"], 0),
    ("orbit_wgm0.5.csv",
     ["orbit-export", "--rule", "wgm:0.5", "--samples", "32", "--seed", "7"], 0),
    ("check_wprod.json",
     ["check-axioms", "--rule", "wprod:0.2,0.3,0.5", "--trials", "500", "--seed", "7"], 0),
    ("orbit_csum.json",
     ["orbit-export", "--rule", "csum", "--samples", "64", "--format", "json",
      "--seed", "7"], 1),
    ("orbit_wprod.csv",
     ["orbit-export", "--rule", "wprod:0.2,0.3,0.5", "--samples", "64", "--seed", "7"], 0),
    ("fees_wprod.json",
     ["simulate-fees", "--rule", "wprod:0.2,0.3,0.5", "--phi", "0.003", "--trades", "200",
      "--format", "json", "--seed", "7"], 0),
    ("fees_wgm0.3_phi0.csv",
     ["simulate-fees", "--rule", "wgm:0.3", "--phi", "0", "--trades", "50", "--seed", "7"], 0),
    ("check_wgm1e-6.json",
     ["check-axioms", "--rule", "wgm:1e-6", "--trials", "2000", "--seed", "7"], 1),
    ("check_wgm0.999999.json",
     ["check-axioms", "--rule", "wgm:0.999999", "--trials", "2000", "--seed", "7"], 1),
    ("check_product_tol1e-15.json",
     ["check-axioms", "--rule", "product", "--trials", "2000", "--tolerance", "1e-15",
      "--seed", "7"], 1),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(tmp_path, name, argv, code):
    out = tmp_path / name
    assert cli.main(argv + ["--output", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, argv, code in CASES:
        assert cli.main(argv + ["--output", str(GOLDEN / name)]) == code, name
