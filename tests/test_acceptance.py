"""Acceptance sweep: one test per shipped guarantee, at full stated scale.

Each test prints a [PASS]/[FAIL] line (visible with -s or in failure output);
under pytest -v the test name itself is the per-criterion status line.
Timing guards are asserted where a runtime budget is part of the guarantee.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from nadops.affinoid import Hole, Polydisc, SparsePoly, mi_box, mi_up_to_total
from nadops.counterexample import (
    RepProductFamily,
    cycling_scheme,
    integer_scheme,
    verify_claim1_disc,
    verify_claim1_laurent,
    verify_claim2,
)
from nadops.operators import (
    DECREASING_WITNESSED,
    NON_DECREASING_WITNESSED,
    CoefficientFamily,
    DecayBound,
    DiffOperator,
    EndoOracle,
    apply_operator,
    classify_rapid_decay,
    combinatorial_delta,
    compose,
    random_operator,
    random_poly,
    roundtrip_report,
    translation_invariance_check,
)
from nadops.scalars import HahnField, NormValue, PAdicField

P2 = PAdicField(2)
HAHN = HahnField()
BACKENDS = (P2, HAHN)


def report_line(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_roundtrip_500_operators_per_backend():
    started = time.monotonic()
    checked = 0
    ok = True
    for field in BACKENDS:
        rng = random.Random(42)
        for i in range(500):
            d = (i % 3) + 1
            order = i % 5
            degree = i % 4
            P = random_operator(rng, field, d, order, degree)
            ok = ok and roundtrip_report(P)["pass"]
            checked += 1
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60
    report_line(1, ok, f"{checked} operators recovered exactly in {elapsed:.1f}s")


def test_criterion_02_combinatorial_identity_exhaustive():
    started = time.monotonic()
    checked = 0
    for d in (1, 2, 3):
        for gamma in mi_up_to_total(d, 8):
            for alpha in mi_box(gamma):
                combinatorial_delta(alpha, gamma)  # raises unless the closed form holds
                checked += 1
    elapsed = time.monotonic() - started
    ok = elapsed < 60
    report_line(2, ok, f"{checked} (alpha, gamma) pairs collapse to the delta "
                       f"in {elapsed:.1f}s")


def test_criterion_03_translation_invariance_200_cases_per_backend():
    ok = True
    for field in BACKENDS:
        rng = random.Random(7)
        for _ in range(200):
            d = rng.randint(1, 2)
            P = random_operator(rng, field, d, rng.randint(0, 2), rng.randint(0, 2))
            oracle = EndoOracle.from_operator(P, degree_cap=4)
            center = tuple(field.from_rational(rng.randint(-4, 4)) for _ in range(d))
            alpha = tuple(rng.randint(0, 2) for _ in range(d))
            ok = ok and translation_invariance_check(oracle, center, alpha)
    report_line(3, ok, "symbol extraction is origin independent, 400 seeded cases")


def test_criterion_04_factorial_valuation_bounds():
    def brute(m, p):
        total = 0
        for k in range(2, m + 1):
            while k % p == 0:
                total += 1
                k //= p
        return total

    ok = True
    for p in (2, 3, 5, 7):
        field = PAdicField(p)
        rate = Fraction(1, p - 1)
        for m in range(0, 10_001):
            ok = ok and field.factorial_valuation(m) <= m * rate
        for m in range(0, 201):
            ok = ok and field.factorial_valuation(m) == brute(m, p)
    report_line(4, ok, "Legendre valuations bounded by m/(p-1) for m <= 10^4, "
                       "p in {2,3,5,7}, cross-checked against factorization")


def test_criterion_05_algebra_action_coherence():
    ok = True
    # exhaustive single-term operators, one variable
    for a in range(5):
        for b in range(5):
            P = DiffOperator.make(P2, 1, {(b,): SparsePoly.monomial(P2, 1, (a,))})
            for c in range(5):
                for dd in range(5):
                    Q = DiffOperator.make(P2, 1, {(dd,): SparsePoly.monomial(P2, 1, (c,))})
                    C = compose(P, Q)
                    for m in range(5):
                        f = SparsePoly.monomial(P2, 1, (m,))
                        ok = ok and apply_operator(C, f) == \
                            apply_operator(P, apply_operator(Q, f))
    # exhaustive two-variable single-term operators of small degree
    basis = list(mi_up_to_total(2, 2))
    for ea in basis:
        for ia in basis:
            P = DiffOperator.make(P2, 2, {ia: SparsePoly.monomial(P2, 2, ea)})
            for eb in basis:
                for ib in basis:
                    Q = DiffOperator.make(P2, 2, {ib: SparsePoly.monomial(P2, 2, eb)})
                    C = compose(P, Q)
                    f = SparsePoly.monomial(P2, 2, (1, 1))
                    ok = ok and apply_operator(C, f) == \
                        apply_operator(P, apply_operator(Q, f))
    # seeded multi-term fuzz on both backends
    for field in BACKENDS:
        rng = random.Random(13)
        for _ in range(100):
            P = random_operator(rng, field, 2, 2, 2)
            Q = random_operator(rng, field, 2, 2, 2)
            f = random_poly(rng, field, 2, 3)
            ok = ok and apply_operator(compose(P, Q), f) == \
                apply_operator(P, apply_operator(Q, f))
    report_line(5, ok, "apply respects composition: exhaustive d <= 2 plus 200 fuzz")


def test_criterion_06_claim2_divergence_alpha_30():
    ok = True
    details = []
    for field in BACKENDS:
        family = RepProductFamily(
            cycling_scheme(field) if isinstance(field, PAdicField)
            else integer_scheme(field))
        started = time.monotonic()
        report = verify_claim2(family, 30)
        elapsed = time.monotonic() - started
        ok = ok and report["pass"] and elapsed < 120
        details.append(f"{field.name} {elapsed:.1f}s")
    report_line(6, ok, "pi-scaled family diverges at least like |pi|^-alpha up to "
                       f"alpha=30, expansions of degree 27900 ({', '.join(details)})")


def test_criterion_07_claim1_disc_bounds_alpha_12():
    discs = {
        "p=2": [("0", 1), ("0", 2), ("1", 1), ("3", 2), ("6", 1)],
        "hahn": [("0", Fraction(1)), ("1", Fraction(1, 2)), ("2", 2),
                 ("3", Fraction(1, 3)), ("4", Fraction(5, 2))],
    }
    ok = True
    count = 0
    for field in BACKENDS:
        family = RepProductFamily(
            cycling_scheme(field) if isinstance(field, PAdicField)
            else integer_scheme(field))
        for center_text, radius in discs[field.name]:
            report = verify_claim1_disc(
                family, field.from_rational(Fraction(center_text)),
                Fraction(radius), 12)
            ok = ok and report["pass"]
            ok = ok and report["restricted_family_verdict"] == DECREASING_WITNESSED
            count += 1
    report_line(7, ok, f"subdisc lower bound alpha^2-scaled and restricted family "
                       f"certified decreasing on {count} discs, alpha <= 12")


def test_criterion_08_claim1_laurent_bounds():
    holes = {
        "p=2": [("3", 2), ("1", 1)],
        "hahn": [("0", Fraction(1)), ("2", Fraction(3, 2))],
    }
    ok = True
    for field in BACKENDS:
        family = RepProductFamily(
            cycling_scheme(field) if isinstance(field, PAdicField)
            else integer_scheme(field))
        for center_text, radius in holes[field.name]:
            report = verify_claim1_laurent(
                family, Hole(field.from_rational(Fraction(center_text)), Fraction(radius)),
                alpha_max=10, beta_max=10, delta_max=20)
            ok = ok and report["pass"]
            ok = ok and "stabilization_index" in report
            ok = ok and report["c_valuation"] != "inf"
    report_line(8, ok, "monomial images integral for delta <= 20 and hole-basis "
                       "bound stabilizes with finite constant, beta <= 10")


def test_criterion_09_classifier_worked_families():
    ok = True
    for field in BACKENDS:
        # members pi^(a^2), 1 and pi^(2a), by their Gauss valuations
        vpi = field.pi_valuation
        quadratic = CoefficientFamily(field, 1, lambda a: NormValue.of(a[0] * a[0] * vpi),
                                      bound=DecayBound(quad=vpi))
        constant = CoefficientFamily(field, 1, lambda a: NormValue.of(0))
        linear = CoefficientFamily(field, 1, lambda a: NormValue.of(2 * a[0] * vpi))
        ok = ok and classify_rapid_decay(quadratic) == DECREASING_WITNESSED
        ok = ok and classify_rapid_decay(constant) == NON_DECREASING_WITNESSED
        ok = ok and classify_rapid_decay(linear) == NON_DECREASING_WITNESSED
    # on a grid of bounds, a Hahn family with member(k) = t^(L(k)) is
    # certified decreasing exactly when the bound is quadratic
    for quad in (Fraction(0), Fraction(1, 3), Fraction(2)):
        expected = DECREASING_WITNESSED if quad > 0 else NON_DECREASING_WITNESSED
        for slope in (Fraction(0), Fraction(1)):
            for shift in (0, 2):
                bound = DecayBound(quad=quad, slope=slope, shift=shift)
                exact = CoefficientFamily(HAHN, 1, lambda a: NormValue.of(bound(a[0])),
                                          bound=bound)
                ok = ok and classify_rapid_decay(exact) == expected
    report_line(9, ok, "three worked families get their stated verdicts and the "
                       "bound certificate matches the known answer on a bound grid")


def test_criterion_10_suite_is_byte_deterministic():
    argv = [sys.executable, "-m", "nadops.cli", "suite", "--seed", "123"]
    first = subprocess.run(argv, capture_output=True, timeout=300)
    second = subprocess.run(argv, capture_output=True, timeout=300)
    ok = first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout and len(first.stdout) > 0
    ok = ok and json.loads(first.stdout)["pass"]
    report_line(10, ok, "two seeded suite runs emit byte-identical JSON")
