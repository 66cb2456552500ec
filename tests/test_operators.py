import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    _norm_bracket_terms,
    _shifted_monomial_basis,
    random_scalar,
    symbol_coefficient,
    total_symbol,
    translation_invariance_check,
)
from nadops.scalars import HahnField, NormValue, PAdicField, format_valuation
from test_affinoid import random_polydisc

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


def test_divided_and_plain_agree_through_to_plain():
    P = DiffOperator.make(P3, 1, {(2,): x_var(P3)}, divided=True)
    Q = P.to_plain()
    assert P == Q
    f = x_var(P3) ** 4
    assert apply_operator(P, f) == apply_operator(Q, f)


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


# the sums-by-repeated-addition that the summing kernel replaced, kept as its oracle


def old_apply_operator(P, f):
    out = SparsePoly.zero(P.field, P.dim)
    for alpha, a in P.coeffs.items():
        image = f.derivative(alpha, divided=P.divided)
        if not image.is_zero:
            out = out + a * image
    return out


def old_compose(P, Q):
    acc = {}
    Pp, Qp = P.to_plain(), Q.to_plain()
    for alpha, a in Pp.coeffs.items():
        for beta, b in Qp.coeffs.items():
            for gamma in mi_box(alpha):
                index = mi_add(mi_sub(alpha, gamma), beta)
                term = (a * b.derivative(gamma)).scale(mi_binomial(alpha, gamma))
                acc[index] = acc[index] + term if index in acc else term
    divided = P.divided and Q.divided
    if divided:
        acc = {a: poly.scale(mi_factorial(a)) for a, poly in acc.items()}
    return DiffOperator.make(P.field, P.dim, acc, P.order + Q.order, divided)


def old_symbol_coefficient(oracle, alpha):
    acc = SparsePoly.zero(oracle.field, oracle.dim)
    for beta in mi_box(alpha):
        gap = mi_sub(alpha, beta)
        weight = mi_binomial(alpha, beta) * (-1) ** mi_total(gap)
        acc = acc + oracle.query(beta) * SparsePoly.monomial(oracle.field, oracle.dim, gap, weight)
    return acc.scale(Fraction(1, mi_factorial(alpha)))


def normalized(P, divided):
    """P's stored coefficients under the given normalization."""
    return DiffOperator.make(P.field, P.dim, P.coeffs, P.order, divided)


@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]), st.booleans(), st.booleans())
@settings(max_examples=30)
def test_operator_sums_match_old_loops(seed, dim, p_divided, q_divided):
    rng = random.Random(seed)
    field = rng.choice([P2, P3, HAHN])
    P = normalized(random_operator(rng, field, dim, 2, 2), p_divided)
    Q = normalized(random_operator(rng, field, dim, 2, 2), q_divided)
    f = random_poly(rng, field, dim, 3)
    assert apply_operator(P, f) == old_apply_operator(P, f)
    assert apply_operator(Q, f) == old_apply_operator(Q, f)
    C, old = compose(P, Q), old_compose(P, Q)
    assert C.divided == old.divided == (p_divided and q_divided)
    assert C.coeffs == old.coeffs
    oracle = EndoOracle.from_operator(C)
    for alpha in mi_up_to_total(dim, C.order):
        assert symbol_coefficient(oracle, alpha) == old_symbol_coefficient(oracle, alpha)
    for alpha in P.coeffs:
        assert P.plain_coefficient(alpha) == P.coeffs[alpha].scale(
            Fraction(1, mi_factorial(alpha)) if p_divided else 1)


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


def test_shifted_monomial_basis_example():
    # (x - 3)^2 = x^2 - 6x + 9, and the zero centre gives the plain monomial
    x = x_var(P3)
    assert _shifted_monomial_basis(P3, 1, (P3.from_rational(3),), (2,)) == \
        x ** 2 - x.scale(6) + const(9, P3)
    assert _shifted_monomial_basis(P3, 2, (P3.zero(), P3.one()), (3, 0)) == \
        SparsePoly.monomial(P3, 2, (3, 0))


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
    Q = DiffOperator.make(HAHN, 2, {(1, 0): SparsePoly.constant(HAHN, 2, t)},
                          divided=True)
    assert operator_from_text(operator_to_text(Q)) == Q


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
