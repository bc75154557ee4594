"""Each demo script's standard output, compared byte for byte against a
recorded copy in tests/golden/demos/.

Regenerate (only for an intended output change) with
``PYTHONPATH=src python tests/test_demos.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def run_demo(script: Path) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                          capture_output=True, check=True, timeout=120).stdout


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_output_matches_golden(script):
    assert run_demo(script) == (GOLDEN / f"{script.stem}.txt").read_bytes()


if __name__ == "__main__":
    for script in DEMOS:
        (GOLDEN / f"{script.stem}.txt").write_bytes(run_demo(script))
