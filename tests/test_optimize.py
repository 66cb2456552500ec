"""The checks in the package run under ``python -O`` too.

``-O`` strips every ``assert`` statement, so a check kept in one silently
stops running.  The AST walk keeps asserts out of every module of the
package, and the subprocess runs show that the counterexample reports and
the suite come out the same with and without ``-O``, and that the suite's
bytes have not moved.
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

# sha256 of the stdout of `nadops suite --seed 123`, the README's whole sweep
SUITE_123_SHA256 = "6a6fed363ac541b6a43041e12303d5205fc5b35b60a8d9595d1f298d6a548899"


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
    if argv == ["suite", "--seed", "123"]:
        assert hashlib.sha256(plain.stdout).hexdigest() == SUITE_123_SHA256
