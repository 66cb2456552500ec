import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import nadops.cli
from nadops import affinoid, counterexample
from nadops.cli import main
from nadops.counterexample import RepProductFamily
from nadops.scalars import HahnField, NormValue, PAdicField
from test_optimize import DEFAULT_DOMAIN_ARGVS, OPERATOR_ARGVS, OPERATOR_FILES, PINNED_SHA256

SAMPLE_OP = """\
dim: 1
backend: p=2
normalization: plain
order: 2
1 : (1/1@2) * x1^1
2 : (16/1@2) * x1^0
"""


# stands for the path of the sample_op file in parametrized argvs
SAMPLE_PATH = "<sample.op>"


@pytest.fixture
def sample_op(tmp_path):
    path = tmp_path / "sample.op"
    path.write_text(SAMPLE_OP, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_identity_json(capsys):
    code, out, err = run(capsys, "identity", "--gamma-cap", "3", "--d", "2")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["command"] == "identity"
    assert report["pass"]
    assert all(row["pass"] for row in report["rows"])


def test_identity_row_fails_when_the_delta_check_raises(capsys, monkeypatch):
    real = nadops.cli.combinatorial_delta

    def broken(alpha, gamma):
        if tuple(gamma) == (1, 0):
            raise ArithmeticError("delta identity failed")
        return real(alpha, gamma)

    monkeypatch.setattr(nadops.cli, "combinatorial_delta", broken)
    code, out, _ = run(capsys, "identity", "--gamma-cap", "2", "--d", "2")
    assert code == 1
    rows = {tuple(row["gamma"]): row["pass"] for row in json.loads(out)["rows"]}
    assert rows.pop((1, 0)) is False
    assert all(rows.values())


@pytest.mark.parametrize("argv", [
    ["counterexample", "claim1", "--center", "1/0"],
    ["counterexample", "claim1", "--center", "1/0@2"],
    ["counterexample", "claim1", "--radius-valuation", "1/0"],
    ["roundtrip", "--d", "0"],
    ["roundtrip", "--count", "-1"],
    ["counterexample", "claim2", "--alpha-max", "-3"],
    ["identity", "--gamma-cap", "-1"],
    ["classify", "--index-cap", "-1"],
    ["norms", "--operator", SAMPLE_PATH,
     "--domain", '{"type":"polydisc","center":["0/1@2"],"radii":["1/0"]}'],
    ["norms", "--operator", SAMPLE_PATH, "--domain", '{"type":"polydisc","radii":["1"]}'],
    ["norms", "--operator", SAMPLE_PATH, "--domain", "[1]"],
    ["counterexample", "claim2", "--backend", "p=3317044064679887385961981"],
    # exponent text would reach Fraction, which takes minutes to build 10^999999999
    ["counterexample", "claim1", "--mode", "disc", "--radius-valuation", "1e999999999"],
    ["counterexample", "claim1", "--mode", "disc", "--center", "1e999999999"],
    ["counterexample", "claim1", "--mode", "laurent", "--hole-center", "1e999999999"],
    ["counterexample", "claim1", "--mode", "laurent", "--hole-radius-valuation", "1e999999999"],
    ["norms", "--operator", SAMPLE_PATH, "--radius-valuation", "1e999999999"],
    # nesting deeper than json.loads can recurse
    ["norms", "--operator", SAMPLE_PATH, "--domain", "[" * 100000],
    # decay takes no degree cap: it only ever reached a bound the report discarded
    ["decay", "--operator", SAMPLE_PATH, "--degree-cap", "2"],
    # nor does norms: the bracket always probes |delta| <= order, where it is exact
    ["norms", "--operator", SAMPLE_PATH, "--degree-cap", "2"],
    # a holed disc has no norm bracket, so norms has no check to run there
    ["norms", "--operator", SAMPLE_PATH, "--domain",
     '{"type":"holed_disc","holes":[{"center":"1/1@2","radius_valuation":"1"}]}'],
    # no command at all
    [],
    # the rational scheme enumerates residues of the Hahn backend only
    ["counterexample", "claim2", "--scheme", "rational", "--backend", "p=2"],
])
def test_bad_input_exits_two_without_traceback(argv, sample_op):
    argv = [sample_op if arg == SAMPLE_PATH else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(nadops.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "nadops.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error" in proc.stderr and proc.stdout == ""
    # argparse's errors too: no usage lines before the error
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr


def break_member_three(monkeypatch):
    """Make the stream of member(3) fail its integrality check partway
    through, as a broken recurrence would.  The kernel takes the roots
    merged by multiplicity; member(alpha)'s multiplicities sum to its degree
    (alpha + 1) alpha^2, which is 36 only at alpha = 3."""
    real = counterexample._linear_power_product

    def broken(roots):
        expansion = real(roots)
        if sum(roots.values()) != 36:
            return expansion

        def numerators():
            for k, value in enumerate(expansion.numerators):
                if k == 10:
                    raise counterexample.CheckFailed(
                        "coefficient recurrence produced a non-integer")
                yield value
        return expansion._replace(numerators=numerators())

    monkeypatch.setattr(counterexample, "_linear_power_product", broken)


def test_failed_expansion_check_fails_its_classify_row(capsys, monkeypatch):
    # classify has no per-alpha rows: the family whose member failed its
    # check fails its own row, and the other families keep theirs
    code, out, err = run(capsys, "classify")
    assert code == 0, err
    good = json.loads(out)["rows"]
    break_member_three(monkeypatch)
    code, out, err = run(capsys, "classify")
    assert code == 1 and err == ""
    report = json.loads(out)
    assert [row["family"] for row in report["rows"]] == [row["family"] for row in good]
    assert report["rows"][:3] == good[:3]
    assert report["rows"][3] == {
        "family": "rep-product",
        "verdict": None,
        "error": "member alpha=3: coefficient recurrence produced a non-integer",
        "expected": good[3]["expected"],
        "pass": False,
    }
    assert report["pass"] is False
    code, out, err = run(capsys, "classify", "--format", "csv")
    assert code == 1 and err == ""
    header, *lines = out.splitlines()
    assert "error" in header.split(",") and len(lines) == 4


@pytest.mark.parametrize("argv", [
    ["counterexample", "claim2", "--alpha-max", "5"],
    ["counterexample", "claim2", "--backend", "hahn", "--alpha-max", "5"],
    ["counterexample", "claim1", "--mode", "disc", "--center", "3",
     "--radius-valuation", "2", "--alpha-max", "5"],
    ["counterexample", "claim1", "--mode", "laurent", "--hole-center", "3",
     "--hole-radius-valuation", "2", "--alpha-max", "5"],
])
def test_failed_expansion_check_fails_its_row(argv, capsys, monkeypatch):
    # the row of alpha = 3 fails and names alpha and the check; the other
    # rows keep their bytes, and the report prints with exit 1
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    [good] = json.loads(out)["reports"]
    break_member_three(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 1 and err == ""
    [report] = json.loads(out)["reports"]
    assert report["rows"][3] == {
        "alpha": 3,
        "error": "member alpha=3: coefficient recurrence produced a non-integer",
        "valuation_lhs": None,
        "valuation_rhs": good["rows"][3]["valuation_rhs"],
        "pass": False,
    }
    assert report["rows"][:3] + report["rows"][4:] == good["rows"][:3] + good["rows"][4:]
    assert report["pass"] is False
    if report["claim"] == "claim1-disc":
        assert report["restricted_family_verdict"] == "inconclusive"
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 1 and err == ""
    header, *lines = out.splitlines()
    assert "error" in header.split(",") and len(lines) == 6


# argvs whose reports read a member's degree or Gauss valuation, per backend
FOLD_ARGVS = [
    ["counterexample", "claim1", "--mode", "disc", "--center", "3",
     "--radius-valuation", "2", "--alpha-max", "6"],
    ["counterexample", "claim1", "--mode", "laurent", "--hole-center", "3",
     "--hole-radius-valuation", "2", "--alpha-max", "6"],
    ["counterexample", "claim2", "--alpha-max", "8"],
    ["classify"],
]
SERIES_DISC_ARGV = ["counterexample", "claim1", "--backend", "hahn", "--mode", "disc",
                    "--center", "2*t^(0) + 1*t^(1/2)", "--radius-valuation", "3/2"]


@pytest.mark.parametrize("argv", [
    *[[*argv, "--backend", backend] for backend in ("p=2", "hahn") for argv in FOLD_ARGVS],
    [*SERIES_DISC_ARGV, "--alpha-max", "6"],
])
def test_no_runtime_path_builds_a_member_polynomial(argv, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a runtime path built a member polynomial")

    with mock.patch.object(RepProductFamily, "member", refuse), \
            mock.patch.object(RepProductFamily, "member_on_subdisc", refuse), \
            mock.patch.object(counterexample, "rescale_to_subdisc", refuse):
        code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert json.loads(out)["pass"]


@pytest.mark.parametrize("argv", [
    ["suite", "--seed", "123"],
    *OPERATOR_ARGVS,
    *DEFAULT_DOMAIN_ARGVS,
])
def test_no_runtime_path_builds_an_element_of_the_radius_valuation(argv, capsys, tmp_path,
                                                                   monkeypatch):
    # sup norms and the norm bracket weigh by the radii: no sigma = p^r or
    # t^r is built, and no polynomial is rescaled by one
    def refuse(*args, **kwargs):
        raise AssertionError("a runtime path built an element of the radius valuation")

    for name, text in OPERATOR_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    with mock.patch.object(PAdicField, "element_of_valuation", refuse), \
            mock.patch.object(HahnField, "element_of_valuation", refuse), \
            mock.patch.object(affinoid, "rescale_to_subdisc", refuse), \
            mock.patch.object(counterexample, "rescale_to_subdisc", refuse):
        code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256[tuple(argv)]


@pytest.mark.parametrize("argv", [
    ["--backend", "p=2", "--radius-valuation", "3"],
    ["--backend", "hahn", "--radius-valuation", "1/2"],
])
def test_claim1_disc_folds_each_member_once(argv, capsys):
    # the verdict comes from the rows, so nothing refolds a member
    real = RepProductFamily._degree_and_gauss
    folded = []

    def counted(self, alpha, *args):
        folded.append(alpha)
        return real(self, alpha, *args)

    with mock.patch.object(RepProductFamily, "_degree_and_gauss", counted):
        code, out, err = run(capsys, "counterexample", "claim1", "--mode", "disc",
                             "--center", "1", *argv, "--alpha-max", "10")
    assert code == 0, err
    assert json.loads(out)["reports"][0]["restricted_family_verdict"] == "decreasing-witnessed"
    assert sorted(folded) == list(range(11))


def test_claim1_disc_failed_row_exits_one_with_its_report(capsys):
    # a fold that reads too low at alpha = 2 fails that row; the report
    # still prints, and the verdict the rows give is inconclusive
    real = RepProductFamily._degree_and_gauss

    def lowered(self, alpha, *args):
        degree, gauss = real(self, alpha, *args)
        return (degree, NormValue.of(-1)) if alpha == 2 else (degree, gauss)

    with mock.patch.object(RepProductFamily, "_degree_and_gauss", lowered):
        code, out, err = run(capsys, "counterexample", "claim1", "--mode", "disc",
                             "--center", "1", "--radius-valuation", "3")
    assert code == 1 and err == ""
    [disc] = json.loads(out)["reports"]
    assert [row["alpha"] for row in disc["rows"] if not row["pass"]] == [2]
    assert disc["rows"][2]["valuation_lhs"] == "-1"
    assert disc["restricted_family_verdict"] == "inconclusive"
    assert disc["pass"] is False


def test_series_center_disc_runs_to_the_default_alpha():
    # the fold reads a series center as its constant term at radius
    # valuation min(r, v(s)); rescaling member(alpha), of degree
    # (alpha + 1) alpha^2, would run for hours at alpha = 10
    env = dict(os.environ, PYTHONPATH=str(Path(nadops.__file__).parent.parent))
    reports = []
    for alpha_max in ("10", "5"):
        proc = subprocess.run([sys.executable, "-m", "nadops.cli", *SERIES_DISC_ARGV,
                               "--alpha-max", alpha_max],
                              capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == 0, proc.stderr
        [disc] = json.loads(proc.stdout)["reports"]
        reports.append(disc)
    full, short = reports
    assert len(full["rows"]) == 11
    assert full["rows"][:6] == short["rows"]


@pytest.mark.parametrize("backend", ["p=3", "p=7"])
def test_disc_of_huge_radius_builds_no_power_of_p(backend):
    # the fold checks r against the value group without building p^r;
    # building 3^(10^7) and 7^(10^7) once per alpha took 35 s and 78 s
    env = dict(os.environ, PYTHONPATH=str(Path(nadops.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "nadops.cli", "counterexample", "claim1",
                           "--backend", backend, "--mode", "disc", "--center", "1",
                           "--radius-valuation", "10000000", "--alpha-max", "10"],
                          capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr
    [disc] = json.loads(proc.stdout)["reports"]
    assert disc["restricted_family_verdict"] == "decreasing-witnessed"


P7_OP = """\
dim: 1
backend: p=7
normalization: plain
order: 2
0 : (3/7@7) * x1^1 + (1/1@7) * x1^0
1 : (14/1@7) * x1^2
2 : (-5/49@7) * x1^0 + (2/1@7) * x1^3
"""


@pytest.mark.parametrize("argv", [
    ["decay", "--backend", "p=3", "--operator", "p3.op", "--n", "10000000"],
    ["decay", "--backend", "p=7", "--operator", "p7.op", "--n", "10000000"],
    ["norms", "--backend", "p=2", "--operator", "p2.op", "--domain",
     '{"type":"polydisc","center":["1/1@2","0/1@2"],"radii":["10000000","10000000"]}'],
    ["norms", "--backend", "p=3", "--operator", "p3.op", "--domain",
     '{"type":"polydisc","center":["2/1@3","0/1@3"],"radii":["10000000","1"]}'],
])
def test_huge_radius_valuation_builds_no_power_of_p(argv, tmp_path):
    # the radius is a weight; rescaling by p^(10^6) alone took over 20 s
    for name, text in {**OPERATOR_FILES, "p7.op": P7_OP}.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(nadops.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "nadops.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=20, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"]


def test_fractional_p_adic_radius_is_refused_when_the_polydisc_is_built(tmp_path):
    (tmp_path / "p2.op").write_text(OPERATOR_FILES["p2.op"], encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(nadops.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "nadops.cli", "norms", "--backend", "p=2",
                           "--operator", "p2.op", "--domain",
                           '{"type":"polydisc","center":["0/1@2","0/1@2"],"radii":["1/2","0"]}'],
                          capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: valuation 1/2 is not in the value group Z of the p-adic backend\n"


def test_large_prime_backend_runs():
    # 2^61 - 1: trial division up to its square root would run for minutes
    env = dict(os.environ, PYTHONPATH=str(Path(nadops.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "nadops.cli", "counterexample", "claim2",
                           "--backend", "p=2305843009213693951", "--alpha-max", "3"],
                          capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["backend"] == "p=2305843009213693951"


def test_report_without_checks_is_not_a_pass(capsys, tmp_path):
    path = tmp_path / "empty.op"
    path.write_text("dim: 1\nbackend: p=2\n", encoding="utf-8")
    for command in ("norms", "decay"):
        code, out, err = run(capsys, command, "--operator", str(path))
        assert code == 2 and out == ""
        assert "no check" in err


def test_high_dimension_operator_file(capsys, tmp_path):
    # enumerating indices with one recursion level per coordinate would
    # exceed the interpreter's recursion limit at this dimension
    path = tmp_path / "big.op"
    path.write_text("dim: 1200\nbackend: p=2\norder: 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "roundtrip", "--operator", str(path))
    assert code == 0
    assert len(json.loads(out)["operators"][0]["checks"]) == 1201
    code, out, err = run(capsys, "norms", "--operator", str(path))
    assert code == 2 and out == "" and "no check" in err


def test_roundtrip_seeded(capsys):
    code, out, _ = run(capsys, "roundtrip", "--backend", "hahn",
                       "--count", "5", "--d", "2", "--seed", "9")
    assert code == 0
    report = json.loads(out)
    assert len(report["operators"]) == 5
    assert report["pass"]


def test_roundtrip_is_deterministic(capsys):
    argv = ("roundtrip", "--count", "4", "--seed", "3")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_roundtrip_on_operator_file(capsys, sample_op):
    code, out, _ = run(capsys, "roundtrip", "--operator", sample_op)
    assert code == 0
    report = json.loads(out)
    assert report["operators"][0]["operator_id"] == sample_op


def test_classify_verdicts(capsys):
    code, out, _ = run(capsys, "classify", "--backend", "hahn")
    assert code == 0
    report = json.loads(out)
    verdicts = {row["family"]: row["verdict"] for row in report["rows"]}
    assert verdicts["quadratic-valuation-growth"] == "decreasing-witnessed"
    assert verdicts["constant-unit"] == "non-decreasing-witnessed"
    assert verdicts["linear-valuation-growth"] == "non-decreasing-witnessed"
    assert verdicts["rep-product"] == "non-decreasing-witnessed"


def test_classify_exit_one_when_window_starves_the_witness(capsys):
    # index_cap 2 blocks every ratio the linear family needs, so its verdict
    # degrades to inconclusive and the expectation row fails
    code, out, _ = run(capsys, "classify", "--index-cap", "2")
    assert code == 1
    report = json.loads(out)
    assert not report["pass"]


def test_norms_report(capsys, sample_op):
    code, out, _ = run(capsys, "norms", "--operator", sample_op,
                       "--radius-valuation", "-1")
    assert code == 0
    report = json.loads(out)
    assert report["seminorm_valuation"] == "-1"
    assert report["norm_bracket"] == {"lower_valuation": "0", "upper_valuation": "0"}
    gauss = {tuple(r["index"]): r["gauss"] for r in report["rows"]}
    assert gauss == {(1,): "0", (2,): "4"}


def test_norms_with_domain_json(capsys, sample_op):
    domain = json.dumps({"type": "polydisc", "center": ["0/1@2"], "radii": ["1"]})
    code, out, _ = run(capsys, "norms", "--operator", sample_op, "--domain", domain)
    assert code == 0
    report = json.loads(out)
    sup = {tuple(r["index"]): r["sup"] for r in report["rows"]}
    assert sup == {(1,): "1", (2,): "4"}


def test_norms_rows_check_the_coefficient_side_against_the_action_side(
        capsys, sample_op, monkeypatch):
    real = nadops.cli._norm_bracket_terms

    def action_side_one_too_high(P, domain):
        lower, upper, sups, terms = real(P, domain)
        return NormValue.of(lower.valuation + 1), upper, sups, terms

    monkeypatch.setattr(nadops.cli, "_norm_bracket_terms", action_side_one_too_high)
    code, out, _ = run(capsys, "norms", "--operator", sample_op)
    assert code == 1
    report = json.loads(out)
    # the row attaining the norm fails; the other has margin to spare
    assert {tuple(r["index"]): r["pass"] for r in report["rows"]} == {(1,): False, (2,): True}
    assert report["pass"] is False


def test_missing_operator_file_exits_two(capsys):
    code, out, err = run(capsys, "norms", "--operator", "/nonexistent.op")
    assert code == 2
    assert "error:" in err and out == ""


def test_malformed_operator_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.op"
    path.write_text("dim: 1\nbackend: p=2\n1 : (1/1@2 * x1^1\n", encoding="utf-8")
    code, _, err = run(capsys, "norms", "--operator", str(path))
    assert code == 2
    assert "line 3" in err


def test_counterexample_claim2_csv(capsys):
    code, out, _ = run(capsys, "counterexample", "claim2", "--backend", "p=2",
                       "--alpha-max", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,claim,pass,valuation_lhs,valuation_rhs"
    assert len(lines) == 6


def test_counterexample_claim1_disc(capsys):
    code, out, _ = run(capsys, "counterexample", "claim1", "--backend", "hahn",
                       "--mode", "disc", "--alpha-max", "5")
    assert code == 0
    report = json.loads(out)
    [disc] = report["reports"]
    assert disc["claim"] == "claim1-disc"
    assert disc["pass"]


def test_counterexample_claim1_both_modes(capsys):
    code, out, _ = run(capsys, "counterexample", "claim1", "--backend", "p=2",
                       "--alpha-max", "4", "--hole-center", "3",
                       "--hole-radius-valuation", "2")
    assert code == 0
    report = json.loads(out)
    assert [r["claim"] for r in report["reports"]] == ["claim1-disc", "claim1-laurent"]


def test_counterexample_rational_scheme_center(capsys):
    code, out, _ = run(capsys, "counterexample", "claim1", "--backend", "hahn",
                       "--scheme", "rational", "--mode", "disc",
                       "--center", "1/2", "--alpha-max", "4")
    assert code == 0
    report = json.loads(out)
    assert report["params"]["scheme"] == "hahn-rational"


def test_counterexample_rational_scheme_rejected_on_padic(capsys):
    code, _, err = run(capsys, "counterexample", "claim2", "--backend", "p=2",
                       "--scheme", "rational")
    assert code == 2 and "error:" in err


def test_symbol_command(capsys, sample_op):
    code, out, _ = run(capsys, "symbol", "--operator", sample_op)
    assert code == 0
    report = json.loads(out)
    assert report["total_symbol"] == \
        "(16/1@2) * x1^0 x2^2 + (1/1@2) * x1^1 x2^1"
    assert report["pass"]


def test_decay_command(capsys, sample_op):
    code, out, _ = run(capsys, "decay", "--operator", sample_op, "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["report"]["pass"]
    margins = {tuple(c["index"]): c["margin"] for c in report["report"]["checks"]}
    assert margins == {(1,): "0", (2,): "1"}


def test_suite_two_runs_identical(capsys):
    _, first, _ = run(capsys, "suite", "--seed", "21")
    code, second, _ = run(capsys, "suite", "--seed", "21")
    assert code == 0
    assert first == second
    report = json.loads(first)
    assert report["pass"]


def test_suite_csv_has_report_column(capsys):
    code, out, _ = run(capsys, "suite", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert "report" in header


def test_suite_parses_its_runs_with_the_parser_main_built(capsys, monkeypatch):
    # one build, of the suite and the commands its runs name
    real, built, selections = nadops.cli.build_parser, [], []

    def counted(commands=None):
        selections.append(commands)
        built.append(real(commands))
        return built[-1]

    monkeypatch.setattr(nadops.cli, "build_parser", counted)
    code, _, _ = run(capsys, "suite", "--seed", "21")
    assert code == 0
    assert len(built) == 1
    assert sorted(set(selections[0])) == ["classify", "counterexample", "identity",
                                          "roundtrip", "suite"]


# words a drawn argv is made of: every command and option of the parser,
# values each option takes or refuses, abbreviations, and words that are
# none of these
ARGV_WORDS = [
    *nadops.cli._COMMANDS, "bogus", "-h", "--help", "--", "--bogus", "claim1", "claim2",
    "claim3", "--backend", "p=2", "p=4", "hahn", "--seed", "--format", "csv", "xml",
    "--count", "--cou", "--d", "--alpha-max", "--degree-cap", "--operator", "x.op",
    "--gamma-cap", "--r-max", "--index-cap", "--domain", "{}", "--radius-valuation",
    "--scheme", "rational", "--mode", "disc", "laurent", "--center", "--hole-center",
    "--hole-radius-valuation", "--beta-max", "--delta-max", "--n", "0", "3", "-1", "1/2",
    "1/0", "",
]


def parsed(parser, argv):
    """('namespace', its attributes) or ('exit', code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue(), err.getvalue())
    attributes = vars(namespace)
    # the suite carries the parser that parsed it, which is its own build
    assert attributes.pop("parser", parser) is parser
    return ("namespace", attributes)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.sampled_from(ARGV_WORDS), max_size=6))
@example([])
@example(["-h"])
@example(["suite", "-h"])
@example(["counterexample", "claim1", "--mode", "disc", "--center", "1/2"])
@example(["roundtrip", "--cou", "3"])
@example(["bogus", "roundtrip"])
@example(["--backend", "p=2", "roundtrip"])
def test_the_parser_a_run_builds_parses_as_the_full_parser(argv):
    # the same namespace, or the same exit code, help text and error
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        subset = nadops.cli.build_parser(nadops.cli._reachable_commands(argv))
        assert parsed(subset, argv) == parsed(nadops.cli.build_parser(), argv)
