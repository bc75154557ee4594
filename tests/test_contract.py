"""Error contract of the library source: every error raised on purpose is
an AmmError, and no check is an assert that vanishes under python -O."""

import ast
import builtins
import importlib
from functools import reduce
from pathlib import Path

import pytest

from ammorbit import AmmError

SRC = Path(__file__).resolve().parents[1] / "src" / "ammorbit"
MODULES = sorted(SRC.glob("*.py"))

# Raises that name no exception class: bare re-raises, and walk failures
# raised only after an isinstance(..., AmmError) guard.
RERAISES = {"raise", "raise walk.failure"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raise_is_an_amm_error_and_no_assert(path):
    module = importlib.import_module("ammorbit" if path.stem == "__init__"
                                     else f"ammorbit.{path.stem}")
    scope = {**vars(builtins), **vars(module)}
    bad = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Assert):
            bad.append(f"line {node.lineno}: assert")
        elif isinstance(node, ast.Raise):
            if isinstance(node.exc, ast.Call):
                names = ast.unparse(node.exc.func).split(".")
                cls = reduce(getattr, names[1:], scope[names[0]])
                if not (isinstance(cls, type) and issubclass(cls, AmmError)):
                    bad.append(f"line {node.lineno}: raise {cls.__name__}")
            elif ast.unparse(node) not in RERAISES:
                bad.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert not bad, bad
