"""The checks in the package run under ``python -O`` too.

``-O`` strips every ``assert`` statement, so a check kept in one silently
stops running.  The AST walk keeps asserts out of every module of the
package, and the subprocess runs show that the counterexample reports and
the suite come out the same with and without ``-O``, and that the bytes of
the suite and of the pinned reports below have not moved.
"""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nadops

PACKAGE = Path(nadops.__file__).parent
MODULES = sorted(str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py"))

# sha256 of the stdout of these argvs: the README's whole sweep and its
# roundtrip example, a p-adic roundtrip and a csv suite; together they print
# rationals and Hahn exponents of every shape the reports use
PINNED_SHA256 = {
    ("suite", "--seed", "123"):
        "6a6fed363ac541b6a43041e12303d5205fc5b35b60a8d9595d1f298d6a548899",
    ("roundtrip", "--backend", "hahn", "--count", "25", "--d", "2", "--seed", "7"):
        "8ba68e59d003db89bea6e3b9f4782ab772614b18202afaa21d66559d8f0c57e6",
    ("roundtrip", "--backend", "p=2", "--count", "25", "--d", "2", "--seed", "7"):
        "de2cda67c351ec570ece8ad969b5431bad96c82b99f7fcb4ecfbc369fb077c32",
    ("suite", "--seed", "5", "--format", "csv"):
        "55f4665d4525d7fb81b9a70a95a0cd6212d93dc91f76a86478beaa66d560531f",
}


@pytest.mark.parametrize("name", MODULES)
def test_no_assert_statements(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{name} keeps checks in assert statements at lines {lines}"


@pytest.mark.parametrize("argv", [
    ["counterexample", "claim2", "--backend", "p=2", "--alpha-max", "8"],
    ["counterexample", "claim1", "--backend", "p=2", "--mode", "disc", "--center", "3",
     "--radius-valuation", "2", "--alpha-max", "6"],
    ["suite", "--seed", "123"],
    ["counterexample", "claim2", "--backend", "hahn", "--alpha-max", "8"],
    ["counterexample", "claim1", "--backend", "hahn", "--mode", "disc", "--center", "1",
     "--radius-valuation", "1/2", "--alpha-max", "6"],
    ["counterexample", "claim1", "--backend", "p=2", "--mode", "laurent", "--hole-center", "3",
     "--hole-radius-valuation", "2", "--alpha-max", "6", "--beta-max", "6", "--delta-max", "12"],
    ["counterexample", "claim1", "--backend", "hahn", "--mode", "laurent", "--hole-center", "0",
     "--hole-radius-valuation", "1", "--alpha-max", "6", "--beta-max", "6", "--delta-max", "12"],
    ["classify", "--backend", "p=3", "--index-cap", "16"],
    ["counterexample", "claim1", "--backend", "p=2", "--mode", "disc", "--center", "1",
     "--alpha-max", "3", "--radius-valuation", "1000000"],
    ["roundtrip", "--backend", "hahn", "--count", "25", "--d", "2", "--seed", "7"],
    ["roundtrip", "--backend", "p=2", "--count", "25", "--d", "2", "--seed", "7"],
    ["suite", "--seed", "5", "--format", "csv"],
])
def test_counterexample_report_is_the_same_under_optimize(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent)
    env.pop("PYTHONOPTIMIZE", None)
    runs = [subprocess.run([sys.executable, *flags, "-m", "nadops.cli", *argv],
                           capture_output=True, env=env, timeout=60)
            for flags in ([], ["-O"])]
    plain, optimized = runs
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert plain.stdout and plain.stdout == optimized.stdout
    if tuple(argv) in PINNED_SHA256:
        assert hashlib.sha256(plain.stdout).hexdigest() == PINNED_SHA256[tuple(argv)]
