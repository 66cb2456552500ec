import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nadops import operators
from nadops.affinoid import (
    Polydisc,
    SparsePoly,
    mi_add,
    mi_binomial,
    mi_box,
    mi_factorial,
    mi_sub,
    mi_total,
    mi_up_to_total,
    poly_to_text,
    rescale_to_subdisc,
    sup_norm,
    unit_polydisc,
)
from nadops.operators import (
    DECREASING_WITNESSED,
    INCONCLUSIVE,
    NON_DECREASING_WITNESSED,
    CoefficientFamily,
    DecayBound,
    DiffOperator,
    EndoOracle,
    apply_operator,
    classify_rapid_decay,
    coefficient_decay_report,
    combinatorial_delta,
    compose,
    operator_from_text,
    operator_norm_bracket,
    operator_to_text,
    radius_seminorm,
    random_operator,
    random_poly,
    roundtrip_report,
    _coefficient_side,
    _monomial_image,
    _norm_bracket_terms,
    _translate_to_center,
    _shifted_monomial_basis,
    random_scalar,
    symbol_coefficient,
    total_symbol,
    translation_invariance_check,
)
from nadops.scalars import HahnField, NormValue, PAdicField, format_valuation
from test_affinoid import old_derivative, random_polydisc

P2 = PAdicField(2)
P3 = PAdicField(3)
P5 = PAdicField(5)
HAHN = HahnField()


def x_var(field=P2, dim=1, i=0):
    return SparsePoly.variable(field, dim, i)


def const(value, field=P2, dim=1):
    return SparsePoly.constant(field, dim, value)


# ---------------------------------------------------------------------------
# construction and action


def test_apply_divided_power_example():
    P = DiffOperator.make(P2, 1, {(2,): const(1)}, divided=True)
    assert apply_operator(P, x_var() ** 5) == (x_var() ** 3).scale(10)


def test_apply_euler_operator():
    P = DiffOperator.make(P2, 1, {(1,): x_var()})
    f = x_var() ** 3
    assert apply_operator(P, f) == f.scale(3)


def test_apply_kills_constants():
    P = DiffOperator.make(P2, 1, {(1,): const(1)})
    assert apply_operator(P, const(5)).is_zero


def test_apply_multivariate():
    P = DiffOperator.make(P2, 2, {(1, 1): const(1, dim=2)})
    f = SparsePoly.monomial(P2, 2, (1, 1))
    assert apply_operator(P, f) == const(1, dim=2)


def test_divided_and_plain_agree():
    # make reads x d^2 / 2! once, as the plain coefficient x / 2 of d^2
    P = DiffOperator.make(P3, 1, {(2,): x_var(P3)}, divided=True)
    Q = DiffOperator.make(P3, 1, {(2,): x_var(P3).scale(Fraction(1, 2))})
    assert P == Q and P.coeffs == Q.coeffs and P.divided and not Q.divided
    f = x_var(P3) ** 4
    assert apply_operator(P, f) == apply_operator(Q, f)
    # in two variables it divides by alpha! = 1! 3!, and alpha = 0 keeps b
    b = x_var(P3, 2)
    R = DiffOperator.make(P3, 2, {(1, 3): b, (0, 0): b}, divided=True)
    assert R.coeffs == {(1, 3): b.scale(Fraction(1, 6)), (0, 0): b}


def test_make_rejects_index_beyond_order():
    with pytest.raises(ValueError):
        DiffOperator.make(P2, 1, {(3,): const(1)}, order=2)


def test_operator_equality_crosses_normalizations():
    half = const(Fraction(1, 2))
    assert DiffOperator.make(P2, 1, {(2,): const(1)}, divided=True) \
        == DiffOperator.make(P2, 1, {(2,): half})


# ---------------------------------------------------------------------------
# composition


def test_compose_heisenberg_relation():
    D = DiffOperator.make(P2, 1, {(1,): const(1)})
    X = DiffOperator.make(P2, 1, {(0,): x_var()})
    assert compose(D, X) == DiffOperator.make(
        P2, 1, {(1,): x_var(), (0,): const(1)}, order=1)


def test_compose_euler_squared():
    E = DiffOperator.make(P2, 1, {(1,): x_var()})
    EE = compose(E, E)
    expected = DiffOperator.make(
        P2, 1, {(2,): x_var() ** 2, (1,): x_var()}, order=2)
    assert EE == expected


def test_compose_is_exhaustively_coherent_on_monomial_operators():
    # apply(P o Q) == apply(P) o apply(Q) over single-term operators
    for a in range(3):
        for b in range(3):
            P = DiffOperator.make(P2, 1, {(b,): x_var() ** a})
            for c in range(3):
                for d in range(3):
                    Q = DiffOperator.make(P2, 1, {(d,): x_var() ** c})
                    C = compose(P, Q)
                    for m in range(4):
                        f = x_var() ** m
                        assert apply_operator(C, f) == \
                            apply_operator(P, apply_operator(Q, f))


@given(st.integers(0, 10_000))
@settings(max_examples=30)
def test_compose_coherence_fuzz(seed):
    rng = random.Random(seed)
    field = rng.choice([P2, HAHN])
    P = random_operator(rng, field, 2, 2, 2)
    Q = random_operator(rng, field, 2, 2, 2)
    f = random_poly(rng, field, 2, 3)
    assert apply_operator(compose(P, Q), f) == \
        apply_operator(P, apply_operator(Q, f))


# the sums-by-repeated-addition that the summing kernel replaced, kept as its
# oracle; they read the coefficients as given, so a divided-power operator
# goes through the divided-power formula, not through make's division


def old_apply_operator(given, divided, f):
    """sum over alpha of b_alpha d^alpha f, or with divided powers of
    b_alpha d^alpha f / alpha!, whose weights are the binomials C(beta, alpha)."""
    out = SparsePoly.zero(f.field, f.dim)
    for alpha, b in given.items():
        image = old_derivative(f, alpha, divided)
        if not image.is_zero:
            out = out + b * image
    return out


def old_compose(p_given, p_divided, q_given, q_divided):
    """The coefficients and normalization compose returned before it
    returned plain operators: Leibniz on the plain coefficients b_alpha /
    alpha! of divided inputs, with the result stored as alpha! times its
    plain coefficient when both inputs were divided."""
    def plain(given, divided):
        return {alpha: b.scale(Fraction(1, mi_factorial(alpha))) if divided else b
                for alpha, b in given.items()}

    acc = {}
    for alpha, a in plain(p_given, p_divided).items():
        for beta, b in plain(q_given, q_divided).items():
            for gamma in mi_box(alpha):
                index = mi_add(mi_sub(alpha, gamma), beta)
                term = (a * old_derivative(b, gamma)).scale(mi_binomial(alpha, gamma))
                acc[index] = acc[index] + term if index in acc else term
    divided = p_divided and q_divided
    if divided:
        acc = {a: poly.scale(mi_factorial(a)) for a, poly in acc.items()}
    return acc, divided


def old_symbol_coefficient(oracle, alpha):
    acc = SparsePoly.zero(oracle.field, oracle.dim)
    for beta in mi_box(alpha):
        gap = mi_sub(alpha, beta)
        weight = mi_binomial(alpha, beta) * (-1) ** mi_total(gap)
        acc = acc + oracle.query(beta) * SparsePoly.monomial(oracle.field, oracle.dim, gap, weight)
    return acc.scale(Fraction(1, mi_factorial(alpha)))


def given_coefficients(rng, field, dim, order, degree):
    """Coefficients as an operator file gives them, in either normalization."""
    return random_operator(rng, field, dim, order, degree).coeffs


def check_against_old_loops(P, p_given, p_divided, Q, q_given, q_divided, f, beta):
    # apply, the monomial image and compose of operators made from the given
    # coefficients read what the formulas on those coefficients read
    assert apply_operator(P, f) == old_apply_operator(p_given, p_divided, f)
    assert apply_operator(Q, f) == old_apply_operator(q_given, q_divided, f)
    monomial = SparsePoly.monomial(P.field, P.dim, beta)
    assert _monomial_image(P, beta) == old_apply_operator(p_given, p_divided, monomial)
    C = compose(P, Q)
    acc, divided = old_compose(p_given, p_divided, q_given, q_divided)
    assert not C.divided
    assert C == DiffOperator.make(P.field, P.dim, acc, P.order + Q.order, divided)
    for alpha, b in p_given.items():
        assert P.plain_coefficient(alpha) == b.scale(
            Fraction(1, mi_factorial(alpha)) if p_divided else 1)
    return C


@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]), st.booleans(), st.booleans(),
       st.data())
@settings(max_examples=30)
def test_operator_sums_match_old_loops(seed, dim, p_divided, q_divided, data):
    rng = random.Random(seed)
    field = rng.choice([P2, P3, P5, HAHN])
    p_given = given_coefficients(rng, field, dim, 2, 2)
    q_given = given_coefficients(rng, field, dim, 2, 2)
    P = DiffOperator.make(field, dim, p_given, 2, p_divided)
    Q = DiffOperator.make(field, dim, q_given, 2, q_divided)
    f = random_poly(rng, field, dim, 3)
    beta = tuple(data.draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim)))
    C = check_against_old_loops(P, p_given, p_divided, Q, q_given, q_divided, f, beta)
    oracle = EndoOracle.from_operator(C)
    for alpha in mi_up_to_total(dim, C.order):
        assert symbol_coefficient(oracle, alpha) == old_symbol_coefficient(oracle, alpha)


@pytest.mark.parametrize("field", [P2, P3, P5, HAHN], ids=lambda field: field.name)
@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]), st.data())
@settings(max_examples=25)
def test_divided_operators_match_the_divided_power_formula(field, seed, dim, data):
    # both operators divided, up to order 3, where alpha! is even: make
    # divides each b_alpha by alpha! once, and the calculus on the plain
    # coefficients agrees with the C(beta, alpha) weights on the given ones
    rng = random.Random(seed)
    p_given = given_coefficients(rng, field, dim, 3, 2)
    q_given = given_coefficients(rng, field, dim, 2, 2)
    P = DiffOperator.make(field, dim, p_given, 3, divided=True)
    Q = DiffOperator.make(field, dim, q_given, 2, divided=True)
    f = random_poly(rng, field, dim, 4)
    beta = tuple(data.draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim)))
    check_against_old_loops(P, p_given, True, Q, q_given, True, f, beta)


# ---------------------------------------------------------------------------
# symbol extraction


def test_symbol_of_identity_operator():
    ident = DiffOperator.make(P2, 1, {(0,): const(1)})
    oracle = EndoOracle.from_operator(ident, degree_cap=3)
    assert symbol_coefficient(oracle, (0,)) == const(1)
    for k in (1, 2, 3):
        assert symbol_coefficient(oracle, (k,)).is_zero


def test_symbol_of_euler_operator():
    E = DiffOperator.make(P2, 1, {(1,): x_var()})
    oracle = EndoOracle.from_operator(E)
    assert symbol_coefficient(oracle, (1,)) == x_var()
    assert symbol_coefficient(oracle, (0,)).is_zero


def test_symbol_recovers_plain_coefficient_of_divided_operator():
    P = DiffOperator.make(P2, 1, {(2,): const(1)}, divided=True)
    oracle = EndoOracle.from_operator(P)
    assert symbol_coefficient(oracle, (2,)) == const(Fraction(1, 2))


def test_total_symbol_example():
    P = DiffOperator.make(P2, 1, {(1,): x_var(), (2,): const(16)})
    sym = total_symbol(EndoOracle.from_operator(P), 2)
    assert sym == SparsePoly.make(P2, 2, {
        (1, 1): P2.one(), (0, 2): P2.from_rational(16)})


def test_roundtrip_report_on_zero_operator():
    rep = roundtrip_report(DiffOperator.make(P2, 1, {}), operator_id="zero")
    assert rep["pass"] and rep["operator_id"] == "zero"


def test_roundtrip_report_random_operators():
    rng = random.Random(5)
    for field in (P2, HAHN):
        for _ in range(10):
            P = random_operator(rng, field, 2, 3, 2)
            assert roundtrip_report(P)["pass"]


def test_oracle_enforces_degree_cap():
    P = DiffOperator.make(P2, 1, {(1,): const(1)})
    oracle = EndoOracle.from_operator(P, degree_cap=2)
    with pytest.raises(ValueError):
        oracle.query((3,))
    with pytest.raises(ValueError):
        symbol_coefficient(oracle, (3,))


def test_combinatorial_delta_small_exhaustive():
    import math
    for gamma in mi_up_to_total(2, 4):
        for alpha in mi_box(gamma):
            value = combinatorial_delta(alpha, gamma)
            if alpha == gamma:
                assert value == math.prod(math.factorial(g) for g in gamma)
            else:
                assert value == 0
    with pytest.raises(ValueError):
        combinatorial_delta((2,), (1,))


def test_translation_invariance_example():
    P = DiffOperator.make(P2, 1, {(1,): const(1)})
    oracle = EndoOracle.from_operator(P, degree_cap=4)
    assert translation_invariance_check(oracle, (P2.one(),), (1,))
    with pytest.raises(ValueError):
        translation_invariance_check(oracle, (P2.from_rational(Fraction(1, 2)),), (1,))


# (x - c)^beta as a chain of SparsePoly differences, powers and products,
# the expansion that the binomial rows replaced, kept as their oracle
def pow_chain_basis(field, dim, center, beta):
    out = SparsePoly.constant(field, dim, 1)
    for i, power in enumerate(beta):
        if power:
            linear = SparsePoly.variable(field, dim, i) - SparsePoly.constant(field, dim, center[i])
            out = out * linear ** power
    return out


@given(st.integers(0, 10_000), st.sampled_from([P2, P3, HAHN]),
       st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=1, max_size=3))
def test_shifted_monomial_basis_matches_pow_chain(seed, field, coordinates):
    rng = random.Random(seed)
    dim = len(coordinates)
    beta = tuple(b for b, _ in coordinates)
    center = tuple(field.zero() if zero else random_scalar(rng, field) for _, zero in coordinates)
    assert _shifted_monomial_basis(field, dim, center, beta) == \
        pow_chain_basis(field, dim, center, beta)


def chained_random_scalar(rng, field):
    """random_scalar as it was: the p-adic draw as a Scalar division, power
    and product chain, which one rational replaced, and each digit list
    rebuilt per draw.  Its oracle."""
    if isinstance(field, PAdicField):
        num = rng.choice([n for n in range(-9, 10) if n])
        value = field.from_rational(num).div(field.from_rational(rng.randint(1, 9)))
        return value * field.uniformizer() ** rng.randint(-2, 2)
    terms = []
    for _ in range(rng.randint(1, 3)):
        exponent = Fraction(rng.randint(-4, 8), rng.choice([1, 1, 2, 3]))
        coeff = Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 4))
        terms.append((exponent, coeff))
    out = field.from_terms(terms)
    return out if not out.is_zero else field.one()


@given(st.sampled_from([P2, P3, P5, HAHN]), st.integers(0, 10_000))
def test_random_scalar_matches_the_scalar_chain(field, seed):
    # the same value from the same draws, so every seeded input keeps its bytes
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for _ in range(20):
        assert random_scalar(rng, field) == chained_random_scalar(oracle_rng, field)
    assert rng.getstate() == oracle_rng.getstate()


def test_shifted_monomial_basis_example():
    # (x - 3)^2 = x^2 - 6x + 9, and the zero centre gives the plain monomial
    x = x_var(P3)
    assert _shifted_monomial_basis(P3, 1, (P3.from_rational(3),), (2,)) == \
        x ** 2 - x.scale(6) + const(9, P3)
    assert _shifted_monomial_basis(P3, 2, (P3.zero(), P3.one()), (3, 0)) == \
        SparsePoly.monomial(P3, 2, (3, 0))


def rebuilding_translation_check(oracle, center, alpha):
    """translation_invariance_check as it was, building (x - c)^beta once as
    beta and again as a gap: its oracle."""
    field, d = oracle.field, oracle.dim
    lhs = rhs = SparsePoly.zero(field, d)
    for beta in mi_box(alpha):
        gap = mi_sub(alpha, beta)
        weight = mi_binomial(alpha, beta) * (-1) ** mi_total(gap)
        lhs = lhs + oracle.query(beta) * SparsePoly.monomial(field, d, gap, weight)
        image = oracle.apply_poly(_shifted_monomial_basis(field, d, center, beta))
        rhs = rhs + (image * _shifted_monomial_basis(field, d, center, gap)).scale(weight)
    return lhs == rhs


def seeded_endomorphism(seed, field, dim, cap):
    """A linear map given by seeded images of the monomials, no operator
    behind it: the extraction sums agree in x and in x - c for any linear map."""
    def image(beta):
        return random_poly(random.Random(f"{seed}/{beta}"), field, dim, 2)
    return EndoOracle(field, dim, cap, image)


@given(st.sampled_from([P2, P3, P5, HAHN]), st.integers(1, 3), st.booleans(),
       st.integers(0, 10_000))
@settings(max_examples=60)
def test_translation_invariance_matches_the_rebuilding_check(field, dim, from_operator, seed):
    rng = random.Random(seed)
    alpha = tuple(rng.randint(0, 2) for _ in range(dim))
    if from_operator:
        oracle = EndoOracle.from_operator(random_operator(rng, field, dim, 2, 2), degree_cap=6)
    else:
        oracle = seeded_endomorphism(seed, field, dim, 6)
    center = random_polydisc(rng, field, dim).center
    want = rebuilding_translation_check(oracle, center, alpha)
    with mock.patch.object(operators, "_shifted_monomial_basis",
                           wraps=_shifted_monomial_basis) as built:
        got = translation_invariance_check(oracle, center, alpha)
    assert want and got == want
    # one basis per beta in the box
    assert sorted(call.args[3] for call in built.call_args_list) == sorted(mi_box(alpha))


def test_translation_invariance_fuzz():
    rng = random.Random(11)
    for field in (P2, HAHN):
        for _ in range(10):
            P = random_operator(rng, field, 2, 2, 2)
            oracle = EndoOracle.from_operator(P, degree_cap=4)
            center = tuple(field.from_rational(rng.randint(-3, 3)) for _ in range(2))
            alpha = (rng.randint(0, 2), rng.randint(0, 2))
            assert translation_invariance_check(oracle, center, alpha)


# ---------------------------------------------------------------------------
# seminorms and norm brackets


def test_radius_seminorm_examples():
    D = DiffOperator.make(P2, 1, {(1,): const(1)})
    assert radius_seminorm(D, -2) == NormValue.of(-2)
    P = DiffOperator.make(P2, 1, {(1,): const(4), (0,): const(1)})
    assert radius_seminorm(P, -1) == NormValue.of(0)
    assert radius_seminorm(DiffOperator.make(P2, 1, {}), -3).is_infinite


@given(st.integers(0, 10_000), st.integers(0, 3))
@settings(max_examples=30)
def test_radius_seminorm_submultiplicative_for_large_radii(seed, r):
    rng = random.Random(seed)
    P = random_operator(rng, P2, 1, 2, 2)
    Q = random_operator(rng, P2, 1, 2, 2)
    radius_valuation = -Fraction(r)
    left = radius_seminorm(compose(P, Q), radius_valuation)
    right = radius_seminorm(P, radius_valuation) + radius_seminorm(Q, radius_valuation)
    assert left >= right


def test_norm_bracket_of_divided_powers_on_unit_disc():
    coeffs = {(k,): const(1) for k in range(4)}
    P = DiffOperator.make(P2, 1, coeffs, divided=True)
    lower, upper = operator_norm_bracket(P, unit_polydisc(P2, 1))
    assert lower == NormValue.of(0) and upper == NormValue.of(0)


def test_norm_bracket_of_plain_derivative():
    D = DiffOperator.make(P2, 1, {(1,): const(1)})
    lower, upper = operator_norm_bracket(D, unit_polydisc(P2, 1))
    assert lower == NormValue.of(0) and upper == NormValue.of(0)
    # on the disc of radius |pi| the derivative has norm |pi|^{-1}
    small = Polydisc((P2.zero(),), (Fraction(1),))
    lower, upper = operator_norm_bracket(D, small)
    assert lower == NormValue.of(-1) and upper == NormValue.of(-1)


def test_norm_bracket_of_zero_operator():
    lower, upper = operator_norm_bracket(DiffOperator.make(P2, 1, {}), unit_polydisc(P2, 1))
    assert lower.is_infinite and upper.is_infinite


def conjugate_per_coordinate(P, domain):
    """P in the coordinates x = c + sigma y of the unit polydisc over
    ``domain``, with v(sigma_i) = r_i, scaled by sigma_i^-alpha_i one
    coordinate at a time: b_alpha = a_alpha(c + sigma y) sigma^-alpha."""
    field = P.field
    scales = tuple(field.element_of_valuation(r) for r in domain.radius_valuations)
    coeffs = {}
    for alpha in P.coeffs:
        moved = P.plain_coefficient(alpha).substitute_affine(domain.center, scales)
        for i, power in enumerate(alpha):
            if power:
                moved = moved.scale(scales[i] ** (-power))
        coeffs[alpha] = moved
    return DiffOperator.make(field, P.dim, coeffs, P.order, divided=False)


def sigma_sup(f, domain):
    """The sup valuation of f on ``domain`` as the Gauss valuation of
    f(c + sigma y): the oracle for sup_norm's translate-then-weigh rule."""
    return rescale_to_subdisc(f, domain.center, domain.radius_valuations).gauss_valuation()


def sigma_bracket_terms(P, domain):
    """_norm_bracket_terms read through sigma: the least Gauss valuation of
    the conjugated images P y^delta, the least v(alpha!) + v(b_alpha) over
    the conjugated coefficients, and the Gauss valuation of each
    a_alpha(c + sigma y)."""
    conj = conjugate_per_coordinate(P, domain)
    lower = NormValue.infinite()
    for delta in mi_up_to_total(P.dim, P.order):
        image = apply_operator(conj, SparsePoly.monomial(P.field, P.dim, delta))
        lower = min(lower, image.gauss_valuation())
    sups = {alpha: sigma_sup(P.plain_coefficient(alpha), domain) for alpha in P.coeffs}
    upper = NormValue.infinite()
    for alpha, b in conj.coeffs.items():
        factorial = sum(map(P.field.factorial_valuation, alpha))
        upper = min(upper, b.gauss_valuation() + NormValue.of(factorial))
    return lower, upper, sups


@given(st.sampled_from([P2, P3, P5, HAHN]), st.integers(1, 3), st.integers(0, 3),
       st.integers(0, 3), st.booleans(), st.integers(0, 10_000))
@settings(max_examples=80)
def test_norm_bracket_terms_match_the_sigma_conjugated_oracle(field, dim, order, degree,
                                                              divided, seed):
    # the translated, weighted bracket reads what conjugating by sigma reads
    rng = random.Random(seed)
    P = random_operator(rng, field, dim, order, degree)
    P = DiffOperator.make(field, dim, P.coeffs, P.order, divided)
    dom = random_polydisc(rng, field, dim)
    lower, upper, sups, _ = _norm_bracket_terms(P, dom)
    assert (lower, upper, sups) == sigma_bracket_terms(P, dom)
    assert sups == {alpha: sup_norm(P.plain_coefficient(alpha), dom) for alpha in P.coeffs}


@given(st.sampled_from([P2, P3, P5, HAHN]), st.integers(1, 3), st.integers(0, 3),
       st.integers(0, 3), st.booleans(), st.integers(0, 10_000), st.data())
@settings(max_examples=80)
def test_monomial_image_matches_apply_operator(field, dim, order, degree, divided, seed, data):
    # read straight off the coefficients, P(x^beta) is what apply_operator
    # makes of the monomial, for plain and divided powers, with beta below,
    # at and above the order
    rng = random.Random(seed)
    P = random_operator(rng, field, dim, order, degree)
    P = DiffOperator.make(field, dim, P.coeffs, P.order, divided)
    beta = tuple(data.draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim)))
    assert _monomial_image(P, beta) == apply_operator(P, SparsePoly.monomial(field, dim, beta))


def norm_value_action_side(P, domain):
    """The action side as the sum of NormValues it was first written as:
    least over delta of the weighted valuation of P_c y^delta, plus the
    NormValue of -sum delta_i w_i / L."""
    moved, _ = _translate_to_center(P, domain)
    weights, denominator = domain.weights
    lower = NormValue.infinite()
    for delta in mi_up_to_total(P.dim, P.order):
        image = apply_operator(moved, SparsePoly.monomial(P.field, P.dim, delta))
        shift = sum(w * d for w, d in zip(weights, delta))
        lower = min(lower, image.weighted_valuation(weights, denominator)
                    + NormValue(Fraction(-shift, denominator)))
    return lower


@given(st.sampled_from([P2, P3, P5, HAHN]), st.integers(1, 3), st.integers(0, 3),
       st.integers(0, 3), st.booleans(), st.integers(0, 10_000))
@settings(max_examples=80)
def test_action_side_matches_the_norm_value_formula(field, dim, order, degree, divided, seed):
    # one least valuation over every image's terms, on integer weights over
    # L, reads what the per-delta NormValue sums read
    rng = random.Random(seed)
    P = random_operator(rng, field, dim, order, degree)
    P = DiffOperator.make(field, dim, P.coeffs, P.order, divided)
    dom = random_polydisc(rng, field, dim)
    lower, _, _, _ = _norm_bracket_terms(P, dom)
    assert lower == norm_value_action_side(P, dom)


def test_norm_bracket_builds_no_sigma(monkeypatch):
    # a radius valuation of 10^7 weighs the terms, and p^(10^7) is never
    # built: x1 d/dx1 has norm |pi|^-(10^7) on the polydisc about (1, 0)
    def refuse(*args):
        raise AssertionError("the norm bracket built an element of the radius valuation")

    for field in (P3, HAHN):
        monkeypatch.setattr(type(field), "element_of_valuation", refuse)
        x = SparsePoly.variable(field, 2, 0)
        P = DiffOperator.make(field, 2, {(1, 0): x, (0, 2): const(1, field, 2)})
        dom = Polydisc((field.one(), field.zero()), (Fraction(10**7), Fraction(1)))
        assert operator_norm_bracket(P, dom) == (NormValue.of(-10**7),) * 2


@given(st.sampled_from([P2, P3, P5, HAHN]), st.integers(1, 3), st.integers(0, 4),
       st.booleans(), st.integers(0, 10_000))
@settings(max_examples=60)
def test_norm_bracket_sides_are_equal(field, dim, order, divided, seed):
    # alpha! b_alpha is an integer combination of the images P y^beta with
    # |beta| <= order, so the action side and the coefficient side agree
    rng = random.Random(seed)
    P = random_operator(rng, field, dim, order, 2)
    P = DiffOperator.make(field, dim, P.coeffs, P.order, divided)
    denominators = [1] if isinstance(field, PAdicField) else [1, 2, 3]
    dom = Polydisc(tuple(field.from_rational(rng.randint(-4, 4)) for _ in range(dim)),
                   tuple(Fraction(rng.randint(0, 3), rng.choice(denominators))
                         for _ in range(dim)))
    lower, upper = operator_norm_bracket(P, dom)
    assert lower == upper and not lower.is_infinite


def fraction_coefficient_side(field, radii, sups):
    """_coefficient_side as it was, on the radius valuations, with Fraction
    arithmetic per term: its oracle."""
    terms = {alpha: sup + NormValue.of(sum(map(field.factorial_valuation, alpha))
                                       - sum(a * r for a, r in zip(alpha, radii)))
             for alpha, sup in sups.items()}
    return min(terms.values(), default=NormValue.infinite()), terms


@given(st.sampled_from([P2, P3, P5, HAHN]), st.integers(1, 3), st.integers(0, 10_000))
def test_coefficient_side_matches_the_fraction_formula(field, dim, seed):
    # sup valuations over denominators 1-6, an infinite one now and then,
    # at indices high enough that v(alpha!) is not zero
    rng = random.Random(seed)
    dom = random_polydisc(rng, field, dim)
    sups = {tuple(rng.randint(0, 7) for _ in range(dim)):
            NormValue.infinite() if rng.random() < 0.1 else
            NormValue.of(Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
            for _ in range(rng.randint(0, 6))}
    assert _coefficient_side(field, dom.weights, sups) == \
        fraction_coefficient_side(field, dom.radius_valuations, sups)


def test_action_side_weighs_each_image_less_its_monomial():
    # x^2 d^2 on the disc of radius |2|^3 about 1: the image of y^2 is 2 x^2,
    # whose sup there is |2| |1|, while y^2 has sup |2|^6; the norm is |2|^-5
    x = x_var()
    P = DiffOperator.make(P2, 1, {(2,): x ** 2})
    dom = Polydisc((P2.one(),), (Fraction(3),))
    assert operator_norm_bracket(P, dom) == (NormValue.of(-5), NormValue.of(-5))


# ---------------------------------------------------------------------------
# coefficient decay on small subdiscs


def test_decay_report_for_plain_derivative():
    D = DiffOperator.make(P2, 1, {(1,): const(1)})
    rep = coefficient_decay_report(D, 1, operator_id="ddx")
    assert rep["pass"]
    assert rep["norm_valuation_upper"] == "-1"
    [check] = rep["checks"]
    assert check["margin"] == "0"


def test_decay_report_zero_operator_is_vacuous():
    rep = coefficient_decay_report(DiffOperator.make(P2, 1, {}), 3)
    assert rep["pass"] and rep["checks"] == []


def test_decay_report_rapidly_decaying_family():
    pi = P2.uniformizer()
    coeffs = {(k,): const(pi ** (k * k)) for k in range(4)}
    P = DiffOperator.make(P2, 1, coeffs, divided=True)
    rep = coefficient_decay_report(P, 2)
    assert rep["pass"]


def bracket_decay_report(P, n, operator_id):
    """coefficient_decay_report as it read W off the full norm bracket of P
    on X_n, with v(alpha!) summed as a Fraction: the differential oracle."""
    field, d = P.field, P.dim
    vpi = field.pi_valuation
    dom = Polydisc(tuple(field.zero() for _ in range(d)),
                   tuple(Fraction(n) * vpi for _ in range(d)))

    def factorial_valuation(alpha):
        return sum((Fraction(field.factorial_valuation(a)) for a in alpha), Fraction(0))

    _, upper = operator_norm_bracket(P, dom)
    checks = []
    all_pass = True
    for alpha in sorted(P.coeffs):
        a = P.plain_coefficient(alpha)
        lhs = sigma_sup(a, dom)
        lhs_gauss = a.gauss_valuation()
        rhs = upper + NormValue.of(n * mi_total(alpha) * vpi) \
            + NormValue.of(-factorial_valuation(alpha))
        ok = lhs >= rhs
        all_pass = all_pass and ok
        margin = NormValue(None) if (lhs.is_infinite or rhs.is_infinite) \
            else NormValue(lhs.valuation - rhs.valuation)
        gauss_margin = NormValue(None) if (lhs_gauss.is_infinite or rhs.is_infinite) \
            else NormValue(lhs_gauss.valuation - rhs.valuation)
        checks.append({
            "index": list(alpha),
            "expected": format_valuation(rhs),
            "got": format_valuation(lhs),
            "margin": format_valuation(margin),
            "gauss_margin": format_valuation(gauss_margin),
            "pass": ok,
        })
    return {
        "operator_id": operator_id,
        "subdisc_exponent": n,
        "norm_valuation_upper": format_valuation(upper),
        "checks": checks,
        "pass": all_pass,
    }


@given(st.sampled_from([P2, P3, HAHN]), st.integers(1, 3), st.integers(0, 3),
       st.booleans(), st.integers(0, 10_000))
@settings(max_examples=80)
def test_decay_report_matches_bracket_oracle(field, dim, n, divided, seed):
    rng = random.Random(seed)
    P = random_operator(rng, field, dim, 3, 2)
    P = DiffOperator.make(field, dim, P.coeffs, P.order, divided)
    report = coefficient_decay_report(P, n, operator_id="fuzz")
    assert report == bracket_decay_report(P, n, operator_id="fuzz")
    disc = Polydisc(tuple(field.zero() for _ in range(dim)),
                    (Fraction(n) * field.pi_valuation,) * dim)
    _, upper = operator_norm_bracket(P, disc)
    assert report["norm_valuation_upper"] == format_valuation(upper)


@given(st.integers(0, 10_000))
@settings(max_examples=20)
def test_decay_report_holds_on_fuzz(seed):
    rng = random.Random(seed)
    field = rng.choice([P2, HAHN])
    P = random_operator(rng, field, 1, 3, 2)
    assert coefficient_decay_report(P, rng.randint(0, 2))["pass"]


# ---------------------------------------------------------------------------
# decay classifier


def test_classifier_worked_families():
    # members pi^(a^2), 1 and pi^(2a), by their Gauss valuations
    for field in (P2, HAHN):
        vpi = field.pi_valuation
        quadratic = CoefficientFamily(
            field, 1, lambda a: NormValue.of(a[0] * a[0] * vpi),
            bound=DecayBound(quad=vpi))
        assert classify_rapid_decay(quadratic) == DECREASING_WITNESSED
        constant = CoefficientFamily(field, 1, lambda a: NormValue.of(0))
        assert classify_rapid_decay(constant) == NON_DECREASING_WITNESSED
        linear = CoefficientFamily(field, 1, lambda a: NormValue.of(2 * a[0] * vpi))
        assert classify_rapid_decay(linear) == NON_DECREASING_WITNESSED


def test_classifier_rejects_overstated_bound():
    constant = CoefficientFamily(
        P2, 1, lambda a: NormValue.of(0),
        bound=DecayBound(quad=Fraction(1), offset=Fraction(5)))
    with pytest.raises(ValueError):
        classify_rapid_decay(constant)


def test_classifier_checks_the_bound_at_every_degree_up_to_the_cap():
    # member 5 sits one below the declared bound k^2; a cap of 8 reads it
    family = CoefficientFamily(
        P2, 1, lambda a: NormValue.of(a[0] ** 2 - (1 if a[0] == 5 else 0)),
        bound=DecayBound(quad=Fraction(1)))
    with pytest.raises(ValueError, match=r"at \(5,\)"):
        classify_rapid_decay(family, index_cap=8)
    assert classify_rapid_decay(family, index_cap=4) == DECREASING_WITNESSED


def test_classifier_is_inconclusive_when_window_is_too_short():
    # growth rate 2 v(pi) per index needs ratio r = 3; with index_cap 4 the
    # guard 2r <= cap blocks that ratio, so no witness can be formed
    linear = CoefficientFamily(P2, 1, lambda a: NormValue.of(2 * a[0]))
    assert classify_rapid_decay(linear, r_max=3, index_cap=4) == INCONCLUSIVE


def family_meeting(bound):
    """member(k) = t^(L(k)) over Hahn: valuations equal to the declared bound."""
    return CoefficientFamily(HAHN, 1, lambda a: NormValue.of(bound(a[0])), bound=bound)


def test_classifier_certificate_paths_agree():
    # the bound certifies decay exactly when it is quadratic; otherwise the
    # non-decaying members are witnessed
    for quad in (Fraction(0), Fraction(1, 3), Fraction(2)):
        expected = DECREASING_WITNESSED if quad > 0 else NON_DECREASING_WITNESSED
        for slope in (Fraction(0), Fraction(1)):
            for shift in (0, 2):
                bound = DecayBound(quad=quad, slope=slope, shift=shift)
                assert classify_rapid_decay(family_meeting(bound)) == expected, bound


@pytest.mark.parametrize("bound", [None, DecayBound(quad=Fraction(1))])
def test_classifier_refuses_a_family_of_polynomials(bound):
    # a family states valuations; a polynomial cannot be ordered against them
    polys = CoefficientFamily(P2, 1, lambda a: const(1), bound=bound)
    with pytest.raises(TypeError):
        classify_rapid_decay(polys)


# ---------------------------------------------------------------------------
# operator text format


def test_operator_text_roundtrip_examples():
    P = DiffOperator.make(P2, 1, {(1,): x_var(), (2,): const(16)}, order=3)
    assert operator_from_text(operator_to_text(P)) == P
    t = HAHN.uniformizer()
    b = SparsePoly.variable(HAHN, 2, 1).scale(t)
    Q = DiffOperator.make(HAHN, 2, {(1, 0): SparsePoly.constant(HAHN, 2, t), (2, 1): b},
                          divided=True)
    assert operator_from_text(operator_to_text(Q)) == Q
    # a divided file is written back as given, alpha! a_alpha = b
    assert operator_to_text(Q).endswith(f"\n2,1 : {poly_to_text(b)}\n")


def test_operator_text_roundtrip_fuzz():
    rng = random.Random(3)
    for field in (P2, HAHN):
        for _ in range(15):
            P = random_operator(rng, field, rng.randint(1, 2), 3, 2)
            assert operator_from_text(operator_to_text(P), field) == P


def test_operator_text_errors_carry_line_numbers():
    text = "dim: 1\nbackend: p=2\n1 : (1/1@2) * x1^1\n1 : (2/1@2) * x1^0\n"
    with pytest.raises(ValueError, match="line 4"):
        operator_from_text(text)
    bad_poly = "dim: 1\nbackend: p=2\n1 : (1/1@3) * x1^1\n"
    with pytest.raises(ValueError, match="line 3"):
        operator_from_text(bad_poly)
    # headers, and checks that only the assembled operator could make before
    for text, line in [("dim: x\nbackend: p=2\n", 1),
                       ("backend: p=2\ndim: 0\n", 2),
                       ("backend: p=4\n", 1),
                       ("dim: 1\nbackend: p=2\norder: 1\n2 : (1/1@2) * x1^0\n", 4),
                       ("dim: 1\nbackend: p=2\n-1 : (1/1@2) * x1^0\n", 3),
                       ("dim: 1\n\n1 : (1/1@2) * x1^0\n", 3)]:
        with pytest.raises(ValueError, match=f"^line {line}:"):
            operator_from_text(text)


def test_operator_text_backend_mismatch():
    text = operator_to_text(DiffOperator.make(P2, 1, {(1,): const(1)}))
    with pytest.raises(ValueError, match="p=2"):
        operator_from_text(text, HAHN)
