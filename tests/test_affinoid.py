import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nadops.affinoid import (
    Polydisc,
    SparsePoly,
    domain_from_json,
    domain_to_json,
    mi_binomial,
    mi_box,
    mi_factorial,
    mi_falling,
    mi_sub,
    mi_up_to_total,
    mi_with_total,
    poly_from_text,
    poly_to_text,
    rescale_to_subdisc,
    sup_norm,
    unit_polydisc,
)
from nadops.operators import random_poly
from nadops.scalars import HahnField, NormValue, PAdicField, Scalar

P2 = PAdicField(2)
P3 = PAdicField(3)
P5 = PAdicField(5)
HAHN = HahnField()


def evaluate(f, point):
    """f at a point of scalars, term by term: the oracle for substitute_affine."""
    total = f.field.zero()
    for exponent, coeff in f.coeffs.items():
        term = coeff
        for x, e in zip(point, exponent):
            if e:
                term = term * x ** e
        total = total + term
    return total


def small_polys(field, dim=1, degree=3):
    pool = list(mi_up_to_total(dim, degree))

    def build(picks):
        return SparsePoly.make(field, dim, [
            (pool[i % len(pool)], field.from_rational(Fraction(num, den)))
            for i, num, den in picks])
    pick = st.tuples(st.integers(0, len(pool) - 1), st.integers(-9, 9), st.integers(1, 4))
    return st.lists(pick, min_size=0, max_size=4).map(build)


# ---------------------------------------------------------------------------
# multi-index helpers


def test_mi_binomial_is_componentwise():
    assert mi_binomial((4, 2), (1, 2)) == math.comb(4, 1) * math.comb(2, 2)
    assert mi_binomial((2,), (3,)) == 0


def test_mi_falling_matches_permutation_count():
    assert mi_falling((5,), (2,)) == math.perm(5, 2)
    assert mi_falling((5, 3), (2, 3)) == math.perm(5, 2) * math.perm(3, 3)
    assert mi_falling((1,), (2,)) == 0  # derivative kills the monomial


def test_mi_box_counts():
    assert len(list(mi_box((2, 1)))) == 6
    assert list(mi_box(())) == [()]


def test_mi_with_total_counts():
    for d, t in ((1, 4), (2, 5), (3, 4)):
        assert len(list(mi_with_total(d, t))) == math.comb(t + d - 1, d - 1)


def recursive_mi_with_total(dim, total):
    """The recursive enumeration mi_with_total replaced: the order oracle."""
    if dim == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in recursive_mi_with_total(dim - 1, total - head):
            yield (head,) + tail


def test_mi_with_total_matches_recursive_order():
    for d in range(1, 6):
        for t in range(9):
            assert list(mi_with_total(d, t)) == list(recursive_mi_with_total(d, t)), (d, t)


def test_mi_sub_underflow():
    with pytest.raises(ValueError):
        mi_sub((1, 0), (0, 1))


def test_mi_factorial():
    assert mi_factorial((3, 2)) == 12


# ---------------------------------------------------------------------------
# polynomial ring basics


def test_make_merges_and_drops_zeros():
    x = (1,)
    f = SparsePoly.make(P2, 1, [(x, P2.from_rational(2)), (x, P2.from_rational(-2))])
    assert f.is_zero
    assert f.degree() == -1


def test_make_validates_exponents_and_backend():
    with pytest.raises(ValueError):
        SparsePoly.make(P2, 1, {(1, 0): P2.one()})
    with pytest.raises(ValueError):
        SparsePoly.make(P2, 1, {(-1,): P2.one()})
    with pytest.raises(ValueError):
        SparsePoly.make(P2, 1, {(1,): HAHN.one()})


def test_ring_identities():
    x = SparsePoly.variable(P2, 1, 0)
    one = SparsePoly.constant(P2, 1, 1)
    assert (x + one) * (x - one) == x * x - one
    assert (x + one) ** 2 == x * x + x.scale(2) + one
    assert x ** 0 == one


def test_derivative_examples():
    x = SparsePoly.variable(P2, 1, 0)
    f = x ** 5
    assert f.derivative((2,)) == (x ** 3).scale(20)
    assert f.derivative((2,), divided=True) == (x ** 3).scale(10)
    assert f.derivative((6,)).is_zero
    g = SparsePoly.monomial(P2, 2, (2, 1))
    assert g.derivative((1, 1)) == SparsePoly.monomial(P2, 2, (1, 0), 2)


# the derivative before the weight kernel: each coefficient scaled as a
# product with its falling factorial or binomial built as a scalar
def old_derivative(f, order, divided=False):
    acc = {}
    for exponent, coeff in f.coeffs.items():
        k = mi_binomial(exponent, order) if divided else mi_falling(exponent, order)
        if k == 0:
            continue
        acc[mi_sub(exponent, order)] = coeff * f.field.from_rational(k)
    return SparsePoly(f.field, f.dim, acc)


# seeded polynomials: p-adic coefficients carry powers of p in numerator and
# denominator, Hahn ones up to three terms with fractional exponents
SEEDED_POLYS = st.builds(
    lambda seed, field, dim: random_poly(random.Random(seed), field, dim, 4, max_terms=6),
    st.integers(0, 10_000), st.sampled_from([P2, P3, HAHN]), st.integers(1, 3))


@given(SEEDED_POLYS, st.lists(st.integers(0, 3), min_size=3, max_size=3), st.booleans())
def test_derivative_matches_old_scaled_loop(f, order, divided):
    order = tuple(order[:f.dim])
    assert f.derivative(order, divided) == old_derivative(f, order, divided)


@given(SEEDED_POLYS)
def test_gauss_valuation_matches_per_coefficient_min(f):
    want = min((c.valuation() for c in f.coeffs.values()), default=NormValue.infinite())
    assert f.gauss_valuation() == want
    assert SparsePoly.zero(f.field, f.dim).gauss_valuation().is_infinite


def test_evaluate_horner_example():
    x = SparsePoly.variable(P5, 1, 0)
    f = x ** 2 + x.scale(3) + SparsePoly.constant(P5, 1, 1)
    assert evaluate(f, (P5.from_rational(2),)) == P5.from_rational(11)


@given(small_polys(P2, dim=2, degree=2), small_polys(P2, dim=2, degree=2))
def test_gauss_multiplicativity(f, g):
    if f.is_zero or g.is_zero:
        assert (f * g).is_zero
    else:
        assert (f * g).gauss_valuation() == f.gauss_valuation() + g.gauss_valuation()


def test_gauss_examples():
    x = SparsePoly.variable(P5, 1, 0)
    f = (x ** 2).scale(5) + SparsePoly.constant(P5, 1, 3)
    assert f.gauss_valuation() == NormValue.of(0)
    y = SparsePoly.variable(P2, 1, 0)
    assert ((y - SparsePoly.constant(P2, 1, 1)) ** 2).gauss_valuation() == NormValue.of(0)
    t = HAHN.uniformizer()
    h = SparsePoly.variable(HAHN, 1, 0).scale(t) \
        + SparsePoly.constant(HAHN, 1, t * t)
    assert h.gauss_valuation() == NormValue.of(1)
    assert SparsePoly.zero(P2, 1).gauss_valuation().is_infinite


# substitution oracle: evaluate both sides at sample points
@given(small_polys(P2, dim=1, degree=3),
       st.integers(0, 6), st.integers(0, 2), st.integers(-4, 4))
def test_substitute_affine_agrees_with_evaluation(f, c, r, y0):
    center = (P2.from_rational(c),)
    scale = (P2.element_of_valuation(r),)
    g = f.substitute_affine(center, scale)
    point = P2.from_rational(y0)
    direct = evaluate(f, (center[0] + scale[0] * point,))
    assert evaluate(g, (point,)) == direct


def test_substitute_affine_drops_a_term_that_cancels_late():
    # x^3 - x^2 - x at x = 1 + y is -1 + 2y^2 + y^3.  The Horner step that
    # builds the y coefficient adds x1 * s onto x1 * c^2 after them, and the
    # two cancel; a loop that skipped a zero sum there kept the stale term y.
    x = SparsePoly.variable(P2, 1, 0)
    g = (x ** 3 - x ** 2 - x).substitute_affine((P2.one(),), (P2.one(),))
    assert g == SparsePoly.make(P2, 1, {
        (0,): P2.from_rational(-1), (2,): P2.from_rational(2), (3,): P2.one()})


def test_substitute_affine_multivariate():
    f = SparsePoly.monomial(P2, 2, (1, 1))
    c = (P2.from_rational(1), P2.from_rational(0))
    s = (P2.from_rational(2), P2.from_rational(4))
    g = f.substitute_affine(c, s)
    # (1 + 2 y1) * 4 y2 = 4 y2 + 8 y1 y2
    assert g == SparsePoly.make(P2, 2, {
        (0, 1): P2.from_rational(4), (1, 1): P2.from_rational(8)})


# ---------------------------------------------------------------------------
# the SparsePoly loops that the one summing kernel replaced, kept as its oracle


def old_accumulate(acc, exponent, coeff):
    total = acc.get(exponent)
    coeff = coeff if total is None else total + coeff
    if coeff.is_zero:
        acc.pop(exponent, None)
    else:
        acc[exponent] = coeff


def old_make(field, dim, items):
    acc = {}
    for exponent, coeff in items:
        old_accumulate(acc, tuple(exponent), coeff)
    return SparsePoly(field, dim, acc)


def old_add(f, g):
    acc = dict(f.coeffs)
    for exponent, coeff in g.coeffs.items():
        old_accumulate(acc, exponent, coeff)
    return SparsePoly(f.field, f.dim, acc)


def old_mul(f, g):
    acc = {}
    for ea, ca in f.coeffs.items():
        for eb, cb in g.coeffs.items():
            old_accumulate(acc, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return SparsePoly(f.field, f.dim, acc)


def old_scale(f, value):
    if value.is_zero:
        return SparsePoly.zero(f.field, f.dim)
    return SparsePoly(f.field, f.dim, {e: c * value for e, c in f.coeffs.items()})


# few distinct exponents and coefficients, so that sums cancel often; Hahn
# coefficients share exponents, so their supports overlap
CANCELLING = {
    P5: [P5.from_rational(q) for q in (1, -1, 2, -2, Fraction(1, 5))],
    HAHN: [HAHN.from_terms(terms) for terms in (
        [(0, 1)], [(0, -1)], [(Fraction(1, 2), 1)], [(0, 1), (Fraction(1, 2), -1)],
        [(0, -1), (Fraction(1, 2), 1), (1, 2)])],
}


@st.composite
def cancelling_polys(draw, field, dim=2, degree=2):
    pool = list(mi_up_to_total(dim, degree))
    return draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(CANCELLING[field])),
                         max_size=6))


@given(st.sampled_from([P5, HAHN]).flatmap(
    lambda field: st.tuples(st.just(field), cancelling_polys(field), cancelling_polys(field),
                            st.sampled_from(CANCELLING[field] + [field.zero()]))))
def test_poly_ops_match_old_loops(case):
    field, f_items, g_items, value = case
    f = SparsePoly.make(field, 2, f_items)
    g = SparsePoly.make(field, 2, g_items)
    assert f == old_make(field, 2, f_items)
    # == compares the dicts, so a zero coefficient left behind fails it
    assert SparsePoly.make(field, 2, f_items + g_items) == old_make(field, 2, f_items + g_items)
    assert f + g == old_add(f, g)
    assert f - g == old_add(f, SparsePoly(field, 2, {e: -c for e, c in g.coeffs.items()}))
    assert (f - f).is_zero and not (f + f).coeffs.keys() - f.coeffs.keys()
    assert f * g == old_mul(f, g)
    assert f.scale(value) == old_scale(f, value)
    for h in (f + g, f - g, f * g, f.scale(value)):
        assert all(isinstance(c, Scalar) and not c.is_zero for c in h.coeffs.values())


# ---------------------------------------------------------------------------
# domains and sup norms


def test_rescale_worked_example():
    # x(x-1) on the disc |x| <= |2| over Q_2: 4y^2 - 2y, gauss valuation 1
    x = SparsePoly.variable(P2, 1, 0)
    f = x * (x - SparsePoly.constant(P2, 1, 1))
    g = rescale_to_subdisc(f, (P2.zero(),), (Fraction(1),))
    y = SparsePoly.variable(P2, 1, 0)
    assert g == (y ** 2).scale(4) - y.scale(2)
    assert g.gauss_valuation() == NormValue.of(1)
    assert sup_norm(f, Polydisc((P2.zero(),), (Fraction(1),))) == NormValue.of(1)


def test_sup_norm_examples():
    x = SparsePoly.variable(P2, 1, 0)
    assert sup_norm(x, unit_polydisc(P2, 1)) == NormValue.of(0)
    assert sup_norm(x, Polydisc((P2.zero(),), (Fraction(2),))) == NormValue.of(2)
    # |x| = 1 everywhere on the disc around 1 of radius |2^3|
    assert sup_norm(x, Polydisc((P2.one(),), (Fraction(3),))) == NormValue.of(0)


def test_sup_norm_fractional_radius_needs_hahn():
    x = SparsePoly.variable(HAHN, 1, 0)
    dom = Polydisc((HAHN.zero(),), (Fraction(1, 2),))
    assert sup_norm(x, dom) == NormValue.of(Fraction(1, 2))
    with pytest.raises(ValueError):
        sup_norm(SparsePoly.variable(P2, 1, 0),
                 Polydisc((P2.zero(),), (Fraction(1, 2),)))


def random_polydisc(rng, field, dim):
    """The origin or integral centres -4..4 (on Hahn also with a t^(k/3)
    term), and radius valuations 0..3, over denominators 1-3 on Hahn."""
    if isinstance(field, PAdicField):
        center = tuple(field.from_rational(rng.randint(-4, 4)) for _ in range(dim))
        radii = tuple(Fraction(rng.randint(0, 3)) for _ in range(dim))
    else:
        center = tuple(field.from_terms([(0, rng.randint(-4, 4)),
                                         (Fraction(rng.randint(1, 4), 3), rng.randint(-2, 2))])
                       for _ in range(dim))
        radii = tuple(Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(dim))
    if rng.random() < 0.5:
        center = (field.zero(),) * dim  # no constant term from the translation
    return Polydisc(center, radii)


@given(st.sampled_from([P2, P3, P5, HAHN]), st.integers(1, 3), st.integers(0, 3),
       st.integers(0, 10_000))
def test_sup_norm_matches_the_rescaled_gauss_oracle(field, dim, degree, seed):
    # translate then weigh reads what the Gauss valuation of f(c + sigma y) reads
    rng = random.Random(seed)
    f = random_poly(rng, field, dim, degree)
    dom = random_polydisc(rng, field, dim)
    want = rescale_to_subdisc(f, dom.center, dom.radius_valuations).gauss_valuation()
    assert sup_norm(f, dom) == want


def test_sup_norm_weighs_every_coordinate_over_the_common_denominator():
    # x1 x2^2 on radii (1/2, 1/3) about the origin: 1/2 + 2/3 = 7/6
    x1, x2 = SparsePoly.variable(HAHN, 2, 0), SparsePoly.variable(HAHN, 2, 1)
    dom = Polydisc((HAHN.zero(), HAHN.zero()), (Fraction(1, 2), Fraction(1, 3)))
    assert dom.weights == ((3, 2), 6)
    assert sup_norm(x1 * x2 ** 2, dom) == NormValue.of(Fraction(7, 6))


@given(st.sampled_from([P2, P3, HAHN]), st.integers(1, 3), st.integers(0, 10_000))
def test_weighted_valuation_at_weight_zero_is_the_gauss_valuation(field, dim, seed):
    f = random_poly(random.Random(seed), field, dim, 3)
    assert f.weighted_valuation((0,) * dim, 1) == f.gauss_valuation()


@given(small_polys(P2, dim=1, degree=3), st.integers(0, 3), st.integers(0, 3))
def test_restriction_contracts(f, r1, r2):
    # smaller disc, larger sup-norm valuation
    lo, hi = sorted((r1, r2))
    big = sup_norm(f, Polydisc((P2.zero(),), (Fraction(lo),)))
    small = sup_norm(f, Polydisc((P2.zero(),), (Fraction(hi),)))
    assert small >= big


@given(small_polys(P2, dim=1, degree=3), small_polys(P2, dim=1, degree=3))
def test_rescale_is_injective(f, g):
    rf = rescale_to_subdisc(f, (P2.one(),), (Fraction(2),))
    rg = rescale_to_subdisc(g, (P2.one(),), (Fraction(2),))
    assert (rf == rg) == (f == g)


def test_polydisc_validation():
    with pytest.raises(ValueError):
        Polydisc((P2.from_rational(Fraction(1, 2)),), (Fraction(1),))
    with pytest.raises(ValueError):
        Polydisc((P2.zero(),), (Fraction(-1),))
    with pytest.raises(ValueError):
        Polydisc((P2.zero(), P2.zero()), (Fraction(0),))


def test_polydisc_checks_the_value_group_of_each_radius():
    # the p-adic value group is Z; the check runs when the polydisc is built
    with pytest.raises(ValueError, match="not in the value group Z of the p-adic backend"):
        Polydisc((P3.zero(), P3.zero()), (Fraction(1), Fraction(1, 2)))
    assert Polydisc((HAHN.zero(),), (Fraction(1, 2),)).weights == ((1,), 2)


# ---------------------------------------------------------------------------
# hole basis derivative, against a symbolic pole-order oracle


def laurent_basis_derivative(field, alpha: int, beta: int):
    """Divided-power derivative of a hole basis function, in closed form.

    With z = (tau/(x-a))^(beta+1), the quotient (d/dx)^(alpha) z / z equals
    (-1)^alpha * C(alpha+beta, alpha) * (x-a)^(-alpha) whatever the hole
    (a, tau).  Returns that scalar factor over ``field`` and the pole order
    alpha.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("orders must be natural numbers")
    factor = field.from_rational((-1) ** alpha * math.comb(alpha + beta, alpha))
    return factor, alpha


def pole_derivative_oracle(alpha: int, beta: int) -> Fraction:
    """Differentiate (x-a)^(-(beta+1)) alpha times, one step at a time,
    then divide by alpha!; returns the rational factor relative to the
    original pole."""
    acc = Fraction(1)
    order = beta + 1
    for _ in range(alpha):
        acc *= -order
        order += 1
    return acc / math.factorial(alpha)


def test_laurent_basis_derivative_examples():
    factor, pole = laurent_basis_derivative(P2, 1, 0)
    assert (factor, pole) == (P2.from_rational(-1), 1)
    factor, pole = laurent_basis_derivative(P2, 0, 5)
    assert (factor, pole) == (P2.one(), 0)
    factor, pole = laurent_basis_derivative(P2, 2, 1)
    assert (factor, pole) == (P2.from_rational(3), 2)


def test_laurent_basis_derivative_matches_pole_oracle():
    for alpha in range(7):
        for beta in range(7):
            factor, pole = laurent_basis_derivative(HAHN, alpha, beta)
            assert pole == alpha
            assert factor == HAHN.from_rational(pole_derivative_oracle(alpha, beta))


# ---------------------------------------------------------------------------
# serialization


def test_poly_text_examples():
    x = SparsePoly.variable(P2, 1, 0)
    f = (x ** 2).scale(3) - x
    assert poly_to_text(f) == "(-1/1@2) * x1^1 + (3/1@2) * x1^2"
    assert poly_to_text(SparsePoly.zero(P2, 1)) == "0"
    assert poly_from_text(poly_to_text(f), P2, 1) == f


@given(small_polys(P5, dim=2, degree=3))
def test_poly_text_roundtrip_padic(f):
    assert poly_from_text(poly_to_text(f), P5, 2) == f


def test_poly_text_roundtrip_hahn():
    t = HAHN.uniformizer()
    f = SparsePoly.make(HAHN, 2, {
        (1, 0): t, (0, 2): HAHN.from_rational(Fraction(-2, 3)) + t * t})
    assert poly_from_text(poly_to_text(f), HAHN, 2) == f


def test_poly_from_text_rejects_malformed():
    with pytest.raises(ValueError):
        poly_from_text("(1/1@2) * x1^1 x1^2", P2, 1)  # repeated variable
    with pytest.raises(ValueError):
        poly_from_text("(1/1@2) * x2^1", P2, 1)  # out-of-range variable
    with pytest.raises(ValueError):
        poly_from_text("(1/1@2 * x1^1", P2, 1)  # unbalanced parens


def test_domain_json_roundtrip():
    dom = Polydisc((P2.one(), P2.zero()), (Fraction(1), Fraction(2)))
    obj = domain_to_json(dom)
    assert obj["type"] == "polydisc"
    assert domain_from_json(json.loads(json.dumps(obj)), P2) == dom


def test_domain_json_rejects_unknown_type():
    # the polydisc is the one domain type; a holed disc is no longer one
    for kind in ("annulus", "holed_disc"):
        with pytest.raises(ValueError, match="expected 'polydisc'"):
            domain_from_json({"type": kind, "holes": []}, P2)
