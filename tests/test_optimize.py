"""The checks in the package run under ``python -O`` too.

``-O`` strips every ``assert`` statement, so a check kept in one silently
stops running.  The AST walk keeps asserts out of every module of the
package, and the subprocess runs show that the counterexample reports and
the suite come out the same with and without ``-O``, and that the bytes of
the suite and of the pinned reports below have not moved.  The operator-file
reports run on the fixed 2-variable operators in ``OPERATOR_FILES``, written
into the working directory of the run, so the path they echo is fixed too.
The same operators show that ``norms`` substitutes each coefficient into its
polydisc once, and divides each divided-power coefficient by alpha! once.
"""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nadops
from nadops import operators
from nadops.affinoid import SparsePoly
from nadops.cli import main

PACKAGE = Path(nadops.__file__).parent
MODULES = sorted(str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py"))

# fixed 2-variable operators, one per backend: divided and plain
# normalizations, denominators divisible by p, and Hahn coefficients with
# several terms over different exponent denominators
OPERATOR_FILES = {
    "p2.op": """\
dim: 2
backend: p=2
normalization: divided
order: 3
0,0 : (3/1@2) * x1^1 x2^0 + (1/4@2) * x1^0 x2^2
1,0 : (1/1@2) * x1^1 x2^1 + (-7/1@2) * x1^0 x2^0
0,2 : (-5/3@2) * x1^2 x2^0 + (2/1@2) * x1^0 x2^0
2,1 : (8/1@2) * x1^0 x2^1 + (1/2@2) * x1^3 x2^0
""",
    "p3.op": """\
dim: 2
backend: p=3
normalization: plain
order: 3
0,1 : (2/9@3) * x1^2 x2^0 + (1/1@3) * x1^0 x2^1
1,1 : (-4/1@3) * x1^1 x2^0 + (5/3@3) * x1^1 x2^2
2,0 : (3/1@3) * x1^0 x2^2
0,3 : (1/1@3) * x1^0 x2^0
""",
    "hahn.op": """\
dim: 2
backend: hahn
normalization: divided
order: 3
0,0 : (1*t^(0) + 2*t^(1/2)) * x1^1 x2^0
1,1 : (-3/2*t^(1/3)) * x1^0 x2^1 + (1*t^(-1/2)) * x1^2 x2^0
2,0 : (1*t^(2)) * x1^0 x2^0 + (1/3*t^(1/4) + -2*t^(5/6)) * x1^1 x2^1
0,3 : (5*t^(1/6) + -1*t^(1)) * x1^1 x2^1
""",
}

# (backend, operator file, a polydisc with a nonzero centre and two radii)
OPERATOR_CASES = [
    ("p=2", "p2.op", '{"type":"polydisc","center":["1/1@2","3/1@2"],"radii":["1","2"]}'),
    ("p=3", "p3.op", '{"type":"polydisc","center":["2/1@3","0/1@3"],"radii":["2","1"]}'),
    ("hahn", "hahn.op", '{"type":"polydisc","center":["1*t^(0)","0"],"radii":["1/2","3/2"]}'),
]

# operator-file reports: the symbol table, the norms on the polydisc and the
# decay on the radius-|pi|^2 subdisc; then the decay on the unit disc and on
# the radius-|pi|^3 subdisc
OPERATOR_ARGVS = [
    argv
    for backend, path, domain in OPERATOR_CASES
    for argv in (["symbol", "--backend", backend, "--operator", path],
                 ["norms", "--backend", backend, "--operator", path, "--domain", domain],
                 ["decay", "--backend", backend, "--operator", path, "--n", "2"])
] + [
    ["decay", "--backend", backend, "--operator", path, "--n", n]
    for backend, path, _ in OPERATOR_CASES
    for n in ("0", "3")
]

# norms on the default domain, the unit polydisc, where sup == gauss
DEFAULT_DOMAIN_ARGVS = [["norms", "--backend", backend, "--operator", path]
                        for backend, path, _ in OPERATOR_CASES]

# claim 1 on a disc, one per backend; the verdict comes from the rows
CLAIM1_DISC_ARGVS = [
    ["counterexample", "claim1", "--backend", "p=2", "--mode", "disc", "--center", "3",
     "--radius-valuation", "2", "--alpha-max", "6"],
    ["counterexample", "claim1", "--backend", "hahn", "--mode", "disc", "--center", "1",
     "--radius-valuation", "1/2", "--alpha-max", "6"],
]

# a disc about a Hahn series center above the radius of its series part
SERIES_DISC_ARGV = ["counterexample", "claim1", "--backend", "hahn", "--mode", "disc",
                    "--center", "2*t^(0) + 1*t^(1/2)", "--radius-valuation", "3/2",
                    "--alpha-max", "5"]

# claim 2 on every backend and scheme: the p=2 members are folded about
# their median, the others about their center of symmetry, in x^2
CLAIM2_ARGVS = [
    ["counterexample", "claim2", "--backend", "p=2", "--alpha-max", "24"],
    ["counterexample", "claim2", "--backend", "hahn", "--alpha-max", "17"],
    ["counterexample", "claim2", "--backend", "hahn", "--scheme", "rational", "--alpha-max", "9"],
    ["counterexample", "claim2", "--backend", "p=3", "--alpha-max", "11"],
    ["counterexample", "claim2", "--backend", "p=5", "--alpha-max", "9"],
]

# claim 1 on discs about which the representatives are symmetric, so the
# members are even there too
SYMMETRIC_DISC_ARGVS = [
    ["counterexample", "claim1", "--backend", "hahn", "--mode", "disc", "--center", "2",
     "--radius-valuation", "2", "--alpha-max", "10"],
    ["counterexample", "claim1", "--backend", "p=3", "--mode", "disc", "--center", "1",
     "--radius-valuation", "2", "--alpha-max", "8"],
]

# discs about fractional centers whose denominators are units: the fold
# clears them and streams over lead 1 (on Hahn also about a series center
# with constant term 1/2, folded about 1/2 at radius valuation 1/3)
UNIT_DENOMINATOR_DISC_ARGVS = [
    ["counterexample", "claim1", "--backend", "p=2", "--mode", "disc", "--center", "1/3",
     "--radius-valuation", "2"],
    ["counterexample", "claim1", "--backend", "hahn", "--mode", "disc", "--center", "1/2",
     "--radius-valuation", "1/2", "--alpha-max", "6"],
    ["counterexample", "claim1", "--backend", "hahn", "--mode", "disc", "--center", "1/2",
     "--radius-valuation", "1/2", "--alpha-max", "6", "--scheme", "rational"],
    ["counterexample", "claim1", "--backend", "hahn", "--mode", "disc",
     "--center", "1/2*t^(0) + 1*t^(1/3)", "--radius-valuation", "1/2", "--alpha-max", "6"],
]

# decay and norms at radius valuations of 10^5, where the radius is a weight;
# scaling by p^(10^5) took 0.5, 1.4 and 0.4 s
LARGE_RADIUS_ARGVS = [
    ["decay", "--backend", "p=3", "--operator", "p3.op", "--n", "100000"],
    ["norms", "--backend", "p=3", "--operator", "p3.op", "--domain",
     '{"type":"polydisc","center":["0/1@3","0/1@3"],"radii":["100000","1"]}'],
    ["norms", "--backend", "p=2", "--operator", "p2.op", "--domain",
     '{"type":"polydisc","center":["0/1@2","0/1@2"],"radii":["100000","100000"]}'],
]

# sha256 of the stdout of these argvs: the README's whole sweep and its
# roundtrip example, a p-adic roundtrip, a csv suite, the operator-file
# reports (norms also on the default domain), the claim-1 discs, the
# series-center disc, claim 2, the symmetric discs, the discs about
# unit-denominator centers and the reports at large radius valuations;
# together they print rationals and Hahn exponents of every shape the
# reports use
PINNED_SHA256 = {
    ("suite", "--seed", "123"):
        "6a6fed363ac541b6a43041e12303d5205fc5b35b60a8d9595d1f298d6a548899",
    ("roundtrip", "--backend", "hahn", "--count", "25", "--d", "2", "--seed", "7"):
        "8ba68e59d003db89bea6e3b9f4782ab772614b18202afaa21d66559d8f0c57e6",
    ("roundtrip", "--backend", "p=2", "--count", "25", "--d", "2", "--seed", "7"):
        "de2cda67c351ec570ece8ad969b5431bad96c82b99f7fcb4ecfbc369fb077c32",
    ("suite", "--seed", "5", "--format", "csv"):
        "55f4665d4525d7fb81b9a70a95a0cd6212d93dc91f76a86478beaa66d560531f",
    tuple(OPERATOR_ARGVS[0]):
        "65a17817f3b378e43aaed66825df1995323bb142d3b1b6f12ad7104fb739e84f",
    tuple(OPERATOR_ARGVS[1]):
        "658b157864bfcb2f736faf854b40a6325e857c5d1b5414dd629545dd72dfc46c",
    tuple(OPERATOR_ARGVS[2]):
        "50030fee60db0eead3f03d57d120dd2cf69569e20913a1fcbc691c249d353595",
    tuple(OPERATOR_ARGVS[3]):
        "ea520f1c9a8444bcea2f2ebabcd04273a62f17bf96047a091fd49cb2f6ae504c",
    tuple(OPERATOR_ARGVS[4]):
        "97978babc38070743f8aefeef59f0c319c2ca86660e00cb9539d95b6757ed0fc",
    tuple(OPERATOR_ARGVS[5]):
        "10a0e0e442b7642f0a0b8bc0ac405feb2dda461631d2a336af4ff6b2cf821937",
    tuple(OPERATOR_ARGVS[6]):
        "2ba181498c9a8002713b46fe7c57dfe926682c24bb8040c18d8f08a4324f2ded",
    tuple(OPERATOR_ARGVS[7]):
        "c5830abb5c5015c7cb607b978530fd5b2aa6c4f654f3276b697e60c561471300",
    tuple(OPERATOR_ARGVS[8]):
        "2d48e186730f0a1777e501611b7522c4cebbd280eac52ece607247ea0c0baae6",
    tuple(OPERATOR_ARGVS[9]):
        "276cd19b6d9f0b25d8046476fc08e9fcf4fe96f7282a54a4c963ef43dfcce7e2",
    tuple(OPERATOR_ARGVS[10]):
        "ec4c6e56caff8fa930e43858ea9b81c5138e351485b0399231d7aefb34865e83",
    tuple(OPERATOR_ARGVS[11]):
        "10d3be7d9f697720203203a5ae89f33500dff9e4b88b2a29346b746160a7b87c",
    tuple(OPERATOR_ARGVS[12]):
        "4339210b9407bdcbdec6f8e558c3f4be2896de106811025efeda90854c189c5c",
    tuple(OPERATOR_ARGVS[13]):
        "7fa8091709aaf16788705b1997bef3da9334065a7eb290151364d646564c28b6",
    tuple(OPERATOR_ARGVS[14]):
        "dd73bbe04c25f1721f0bc2d215250fef3be9b7df6bab89322a7156c059ba2efe",
    tuple(CLAIM1_DISC_ARGVS[0]):
        "a3248b8b124434ed32f99ac1bb23ef4304096bb9f08c8d6829af6ef566bf0347",
    tuple(CLAIM1_DISC_ARGVS[1]):
        "00ff0f67aeedabb138f564f3eaf1b7de41212133a79367ccc530cd1e40d22585",
    tuple(SERIES_DISC_ARGV):
        "4f829f968f9b358541b092ff6b9d1b4d35001947b84b960e6b4b0f411f987235",
    tuple(DEFAULT_DOMAIN_ARGVS[0]):
        "a6cb94d6e7467c1fa2b665bbcf72a9c4fd9984a5ab341e92d4d9cd8f621d0f6e",
    tuple(DEFAULT_DOMAIN_ARGVS[1]):
        "ca219a8590d1c9d260d8caf7a995b2d6b41ef18bb9e2b63c0b22ce7fdb40d4b5",
    tuple(DEFAULT_DOMAIN_ARGVS[2]):
        "a5b0906766c186c6f67381dc3b69f605140443b547f822d45b771e72a0e05027",
    tuple(CLAIM2_ARGVS[0]):
        "4a305feb748c632adcfe77b1f9a38b174b14316ca470b42019f69b86a1194c4a",
    tuple(CLAIM2_ARGVS[1]):
        "e2de21ea07b38d9ddb3feb6da63c87143bdca0781df2af80070dedeeedd89ead",
    tuple(CLAIM2_ARGVS[2]):
        "2ff5a5d2c74ae487f811eb9f90d40202dbd67b7f8bd21cfa92e56e420ad0ad62",
    tuple(CLAIM2_ARGVS[3]):
        "ce694b48e1512287cf0af4a1fa0e739b0963ea14ebe61024e7d35a21ff4e1765",
    tuple(CLAIM2_ARGVS[4]):
        "4d13dfa2ba8de71982dcdc77db8d7eaddff24e61fc3965c872e7b445e89d92a9",
    tuple(SYMMETRIC_DISC_ARGVS[0]):
        "6c8782200b4c76a856aa6f983127a0d8d61b1b31b20f1758e115f2112fadfc88",
    tuple(SYMMETRIC_DISC_ARGVS[1]):
        "e3d62de519ae694fb6ee3dfc37357b00b7f4a37497153248bb064b5db9670642",
    tuple(UNIT_DENOMINATOR_DISC_ARGVS[0]):
        "8bc40274de98128c9c92724c43bf0b6bd80c1a2487a6dc6d4cef0b24c045e1de",
    tuple(UNIT_DENOMINATOR_DISC_ARGVS[1]):
        "acab52720f196a3c69039b2bbf128ac73d2a08db8e4cec5484a1ffc9e684a741",
    tuple(UNIT_DENOMINATOR_DISC_ARGVS[2]):
        "0ed5ffaa3a89bf07cac05b9d7b48dcc77b28dc8786cf49f59129d14c0ecf9127",
    tuple(UNIT_DENOMINATOR_DISC_ARGVS[3]):
        "b6757a30ac44659244b132cf761d8e89220368eb85f28560b334c9755808996b",
    tuple(LARGE_RADIUS_ARGVS[0]):
        "0a537f31c8f21abf0908631c361b3381a584a641573b22cc9e0c028c7283db39",
    tuple(LARGE_RADIUS_ARGVS[1]):
        "ee5d175e55f6be253d3abd95fe3726aff9dce5143faef814ee0aed2c3ab172db",
    tuple(LARGE_RADIUS_ARGVS[2]):
        "9f5a8115aecd60ec72ce8bd76d0d9ce06cde0ba3a8c6424b71901453caea4d60",
}


@pytest.mark.parametrize("name", MODULES)
def test_no_assert_statements(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{name} keeps checks in assert statements at lines {lines}"


@pytest.mark.parametrize("argv", [
    ["counterexample", "claim2", "--backend", "p=2", "--alpha-max", "8"],
    CLAIM1_DISC_ARGVS[0],
    ["suite", "--seed", "123"],
    ["counterexample", "claim2", "--backend", "hahn", "--alpha-max", "8"],
    CLAIM1_DISC_ARGVS[1],
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
    *OPERATOR_ARGVS,
    SERIES_DISC_ARGV,
    *DEFAULT_DOMAIN_ARGVS,
    *CLAIM2_ARGVS,
    *SYMMETRIC_DISC_ARGVS,
    *UNIT_DENOMINATOR_DISC_ARGVS,
    *LARGE_RADIUS_ARGVS,
])
def test_counterexample_report_is_the_same_under_optimize(argv, tmp_path):
    for name, text in OPERATOR_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent)
    env.pop("PYTHONOPTIMIZE", None)
    runs = [subprocess.run([sys.executable, *flags, "-m", "nadops.cli", *argv],
                           capture_output=True, env=env, timeout=60, cwd=tmp_path)
            for flags in ([], ["-O"])]
    plain, optimized = runs
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert plain.stdout and plain.stdout == optimized.stdout
    if tuple(argv) in PINNED_SHA256:
        assert hashlib.sha256(plain.stdout).hexdigest() == PINNED_SHA256[tuple(argv)]


@pytest.mark.parametrize("backend,path,domain", OPERATOR_CASES)
def test_norms_substitutes_each_coefficient_once(backend, path, domain, tmp_path,
                                                 monkeypatch, capsys):
    # the rows' sup and the bracket read the same conjugated coefficients
    (tmp_path / path).write_text(OPERATOR_FILES[path], encoding="utf-8")
    real = SparsePoly.substitute_affine
    calls = []

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(SparsePoly, "substitute_affine", counted)
    code = main(["norms", "--backend", backend, "--operator", str(tmp_path / path),
                 "--domain", domain])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == 4  # one per coefficient


@pytest.mark.parametrize("backend,path,domain",
                         [case for case in OPERATOR_CASES if case[1] in ("p2.op", "hahn.op")])
def test_norms_divides_each_coefficient_by_its_factorial_once(backend, path, domain, tmp_path,
                                                             monkeypatch, capsys):
    # the rows, the bracket and the seminorm read one plain operator
    (tmp_path / path).write_text(OPERATOR_FILES[path], encoding="utf-8")
    real = operators._combine
    divisions = []

    def counted(*args, rational=False):
        divisions.append(rational)
        return real(*args, rational=rational)

    monkeypatch.setattr(operators, "_combine", counted)
    code = main(["norms", "--backend", backend, "--operator", str(tmp_path / path),
                 "--domain", domain])
    capsys.readouterr()
    assert code == 0
    assert divisions.count(True) == 4  # one per coefficient
