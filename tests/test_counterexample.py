import math
import tracemalloc
from fractions import Fraction
from itertools import count
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from nadops import counterexample
from nadops.affinoid import Hole, SparsePoly
from nadops.counterexample import (
    CheckFailed,
    CosetRepScheme,
    RepProductFamily,
    _linear_power_product,
    cycling_scheme,
    default_scheme,
    integer_scheme,
    rational_scheme,
    verify_claim1_disc,
    verify_claim1_laurent,
    verify_claim2,
)
from nadops.operators import (
    DECREASING_WITNESSED,
    DiffOperator,
    apply_operator,
)
from nadops.scalars import HahnField, NormValue, PAdicField, format_valuation

P2 = PAdicField(2)
P3 = PAdicField(3)
HAHN = HahnField()
SCHEMES = [cycling_scheme(P2), cycling_scheme(P3), cycling_scheme(PAdicField(5)),
           integer_scheme(HAHN), rational_scheme(HAHN)]


def naive_member(scheme: CosetRepScheme, alpha: int) -> SparsePoly:
    """Reference expansion by direct powering; the fast path must agree."""
    field = scheme.field
    out = SparsePoly.constant(field, 1, 1)
    for beta in range(alpha + 1):
        linear = SparsePoly.variable(field, 1, 0) \
            - SparsePoly.constant(field, 1, scheme.rep(beta))
        out = out * linear ** (alpha * alpha)
    return out


def naive_member_on_subdisc(scheme: CosetRepScheme, alpha: int, center,
                            radius_valuation: Fraction) -> SparsePoly:
    """member(alpha) at x = center + sigma y, v(sigma) = radius_valuation,
    rescaled factor by factor: (sigma y + center - lambda_beta)^(alpha^2)."""
    field = scheme.field
    sigma_y = SparsePoly.variable(field, 1, 0).scale(field.element_of_valuation(radius_valuation))
    out = SparsePoly.constant(field, 1, 1)
    for beta in range(alpha + 1):
        linear = sigma_y + SparsePoly.constant(field, 1, center - scheme.rep(beta))
        out = out * linear ** (alpha * alpha)
    return out


def expansion_on_subdisc(fam: RepProductFamily, alpha: int, c: Fraction,
                         radius_valuation: Fraction) -> SparsePoly:
    """member(alpha) at x = c + sigma y for a rational center c: the
    expansion stream about c, coefficient j scaled by sigma^j.  It builds
    every coefficient whose valuation the fold takes, so it is the fold's
    oracle; unlike the generic rescale it also takes centers that are not
    integral."""
    field = fam.field
    sigma = field.element_of_valuation(radius_valuation)
    expansion = fam._expansion(alpha, c)
    return SparsePoly(field, 1, {
        (j,): field.from_rational(Fraction(value, expansion.lead)) * sigma ** j
        for j, value in zip(count(expansion.shift, expansion.step), expansion.numerators)
        if value})


def expand(roots: list[tuple[Fraction, int]]) -> list[Fraction]:
    """The streamed expansion written out as ascending coefficients:
    numerator k is the coefficient of x^(shift + step k)."""
    expansion = _linear_power_product(roots)
    out: list[Fraction] = []
    for j, c in zip(count(expansion.shift, expansion.step), expansion.numerators):
        out += [Fraction(0)] * (j - len(out)) + [Fraction(c, expansion.lead)]
    return out


def two_loop_linear_power_product(roots: list[tuple[Fraction, int]]) -> list[Fraction]:
    """The recurrence as first written, with its two inner loops per
    coefficient; the folded one in _linear_power_product must agree."""
    merged: dict[Fraction, int] = {}
    for mu, e in roots:
        if e:
            merged[mu] = merged.get(mu, 0) + e
    if not merged:
        return [Fraction(1)]
    shift = merged.pop(Fraction(0), 0)
    pairs = [(mu.numerator, mu.denominator, e) for mu, e in sorted(merged.items())]
    if not pairs:
        return [Fraction(0)] * shift + [Fraction(1)]
    n = sum(e for _, _, e in pairs)

    def poly_mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    linears = [[-p, q] for p, q, _ in pairs]
    A = [1]
    for lin in linears:
        A = poly_mul(A, lin)
    B = [0] * (len(A) - 1)
    for i, (_, q, e) in enumerate(pairs):
        partial = [1]
        for other in linears[:i] + linears[i + 1:]:
            partial = poly_mul(partial, other)
        for j, y in enumerate(partial):
            B[j] += e * q * y

    s = len(pairs)
    c = [0] * (n + 1)
    c[0] = 1
    for p, _, e in pairs:
        c[0] *= (-p) ** e
    for k in range(n):
        total = 0
        for j in range(1, s + 1):
            m = k - j + 1
            if 0 <= m <= n and c[m]:
                total -= A[j] * m * c[m]
        for j in range(s):
            m = k - j
            if 0 <= m <= n and c[m]:
                total += B[j] * c[m]
        quotient, remainder = divmod(total, A[0] * (k + 1))
        assert remainder == 0
        c[k + 1] = quotient
    lead = 1
    for _, q, e in pairs:
        lead *= q ** e
    assert c[n] == lead
    return [Fraction(0)] * shift + [Fraction(v, lead) for v in c]


# ---------------------------------------------------------------------------
# representative schemes


def test_cycling_scheme_walks_residues():
    scheme = cycling_scheme(P3)
    assert [scheme.rep_rational_fn(i) for i in range(7)] == [0, 1, 2, 0, 1, 2, 0]
    with pytest.raises(ValueError):
        cycling_scheme(HAHN)


def test_integer_scheme():
    scheme = integer_scheme(HAHN)
    assert [scheme.rep_rational_fn(i) for i in range(4)] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        integer_scheme(P2)


def test_rational_scheme_enumerates_all_of_q():
    scheme = rational_scheme(HAHN)
    prefix = [scheme.rep_rational_fn(i) for i in range(7)]
    assert prefix == [0, 1, -1, Fraction(1, 2), -Fraction(1, 2), 2, -2]
    seen = [scheme.rep_rational_fn(i) for i in range(600)]
    assert len(set(seen)) == len(seen)  # injective enumeration
    with pytest.raises(ValueError):
        rational_scheme(P2)


def test_default_scheme_dispatch():
    assert default_scheme(P2).name == "padic-cycling(p=2)"
    assert default_scheme(HAHN).name == "hahn-integer"


# ---------------------------------------------------------------------------
# the expansion kernel


def test_linear_power_product_examples():
    assert expand([(Fraction(2), 3)]) == [
        Fraction(-8), Fraction(12), Fraction(-6), Fraction(1)]
    assert expand([(Fraction(1, 2), 2)]) == [
        Fraction(1, 4), Fraction(-1), Fraction(1)]
    # zero roots shift, the rest expand
    assert expand([(Fraction(0), 2), (Fraction(1), 1)]) == [
        Fraction(0), Fraction(0), Fraction(-1), Fraction(1)]
    assert expand([]) == [Fraction(1)]
    # the stream is integral over the leading denominator
    expansion = _linear_power_product([(Fraction(0), 1), (Fraction(1, 2), 2)])
    assert (expansion.shift, expansion.lead) == (1, 4)
    assert list(expansion.numerators) == [1, -4, 4]
    with pytest.raises(ValueError):
        _linear_power_product([(Fraction(1), -1)])


ROOTS = st.lists(
    st.tuples(st.one_of(st.just(Fraction(0)),
                        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))),
              st.integers(0, 7)),
    max_size=6)


@given(ROOTS)
# mu and -mu at different multiplicities: the product is not even
@example([(Fraction(1), 2), (Fraction(-1), 3)])
@example([(Fraction(0), 1), (Fraction(3, 2), 4), (Fraction(-3, 2), 1), (Fraction(2), 2)])
# one nonzero root: the binomial row, with and without a shift, with a
# denominator and with a negative root
@example([(Fraction(3, 2), 5)])
@example([(Fraction(0), 4), (Fraction(-1), 7)])
@example([(Fraction(-5, 3), 6), (Fraction(0), 2), (Fraction(-5, 3), 1)])
def test_folded_recurrence_matches_two_loop_recurrence(roots):
    # non-integer roots, repeats and a root at 0 all come up in the draw
    assert expand(roots) == two_loop_linear_power_product(roots)


@st.composite
def symmetric_roots(draw):
    """Pairs +-mu of one multiplicity, mu rational with denominator 1-4,
    with or without a root at 0, listed in a shuffled order."""
    pairs = draw(st.lists(st.tuples(st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)),
                                    st.integers(1, 6)), min_size=1, max_size=4))
    roots = [(sign * mu, e) for mu, e in pairs for sign in (1, -1)]
    zero = draw(st.integers(0, 6))
    if zero:
        roots.append((Fraction(0), zero))
    return draw(st.permutations(roots))


@given(symmetric_roots())
@example([(Fraction(1, 2), 3), (Fraction(-1, 2), 3)])
@example([(Fraction(3, 4), 2), (Fraction(0), 5), (Fraction(-3, 4), 2), (Fraction(2), 1),
          (Fraction(-2), 1)])
# one pair +-mu: one root mu^2 in x^2, the binomial row, with a shift
@example([(Fraction(2), 4), (Fraction(0), 3), (Fraction(-2), 4)])
@example([(Fraction(-7, 3), 5), (Fraction(7, 3), 5)])
def test_even_expansion_matches_two_loop_recurrence(roots):
    # an even product streams its coefficients of even degree, in x^2
    assert _linear_power_product(roots).step == 2
    assert expand(roots) == two_loop_linear_power_product(roots)


# the recurrence's inputs for (x - 2)^3, one root, and for (x - 1)(x + 2),
# two roots: (c0, base, A, n, numerators)
STREAMS = {"one-root": (-8, [3], [-2, 1], 3, [-8, 12, -6, 1]),
           "two-roots": (-2, [1, 3], [-2, 1, 1], 2, [-2, 1, 1])}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_numerator_stream_checks_each_division_and_the_lead(name):
    c0, base, A, n, numerators = STREAMS[name]
    assert list(counterexample._numerator_stream(c0, base, A, n, 1)) == numerators
    # a wrong leading term fails when the stream ends, after every numerator
    stream = counterexample._numerator_stream(c0, base, A, n, 2)
    assert [next(stream) for _ in range(n + 1)] == numerators
    with pytest.raises(CheckFailed, match="lost the leading term"):
        next(stream)
    # c0 one off makes the first division inexact, which fails at once
    stream = counterexample._numerator_stream(c0 + 1, base, A, n, 1)
    assert next(stream) == c0 + 1
    with pytest.raises(CheckFailed, match="non-integer"):
        next(stream)


def test_folded_recurrence_matches_two_loop_on_family_roots():
    for alpha in (3, 5):
        roots = [(Fraction(beta % 3) - Fraction(1, 2), alpha * alpha) for beta in range(alpha + 1)]
        roots += [(Fraction(beta), alpha) for beta in range(-2, alpha)]
        assert expand(roots) == two_loop_linear_power_product(roots)


def test_linear_power_product_merges_repeated_roots():
    a = expand([(Fraction(1), 2), (Fraction(1), 3)])
    b = expand([(Fraction(1), 5)])
    assert a == b


# ---------------------------------------------------------------------------
# family members


def test_member_zero_is_one():
    for field in (P2, HAHN):
        fam = RepProductFamily(default_scheme(field))
        assert fam.member(0) == SparsePoly.constant(field, 1, 1)


def test_member_one_hahn():
    fam = RepProductFamily(integer_scheme(HAHN))
    x = SparsePoly.variable(HAHN, 1, 0)
    assert fam.member(1) == x * x - x


def test_member_two_p2_collapses_repeated_reps():
    # reps 0, 1, 0 with multiplicity 4 each: x^8 (x-1)^4
    fam = RepProductFamily(cycling_scheme(P2))
    xi = fam.member(2)
    assert xi.degree() == 12
    assert xi.coefficient((8,)) == P2.one()
    assert xi.coefficient((12,)) == P2.one()
    assert xi.coefficient((0,)).is_zero


def test_member_matches_naive_powering():
    for scheme in (cycling_scheme(P2), cycling_scheme(P3),
                   integer_scheme(HAHN), rational_scheme(HAHN)):
        fam = RepProductFamily(scheme)
        for alpha in range(4):
            assert fam.member(alpha) == naive_member(scheme, alpha), \
                (scheme.name, alpha)


def test_member_degree_and_gauss():
    fam = RepProductFamily(integer_scheme(HAHN))
    for alpha in range(5):
        xi = fam.member(alpha)
        assert xi.degree() == fam.member_expected_degree(alpha)
        assert xi.gauss_valuation() == NormValue.of(0)


def test_member_rejects_negative_index():
    with pytest.raises(ValueError):
        RepProductFamily(default_scheme(P2)).member(-1)


def test_member_on_subdisc_matches_generic_rescale():
    for field in (P2, HAHN):
        scheme = default_scheme(field)
        fam = RepProductFamily(scheme)
        for alpha in range(4):
            for c, r in ((0, 1), (1, 2)):
                got = fam.member_on_subdisc(alpha, field.from_rational(c), Fraction(r))
                assert got == expansion_on_subdisc(fam, alpha, Fraction(c), Fraction(r)), \
                    (field.name, alpha, c, r)
                assert got == naive_member_on_subdisc(scheme, alpha, field.from_rational(c),
                                                      Fraction(r))


def test_member_on_subdisc_fractional_radius_hahn():
    fam = RepProductFamily(integer_scheme(HAHN))
    got = fam.member_on_subdisc(2, HAHN.zero(), Fraction(1, 2))
    assert got == expansion_on_subdisc(fam, 2, Fraction(0), Fraction(1, 2))


def test_member_on_subdisc_series_center_falls_back():
    scheme = integer_scheme(HAHN)
    center = HAHN.from_terms([(Fraction(0), 2), (Fraction(1), 1)])  # 2 + t
    got = RepProductFamily(scheme).member_on_subdisc(2, center, Fraction(2))
    assert got == naive_member_on_subdisc(scheme, 2, center, Fraction(2))


def test_normalized_member_valuation():
    # member(alpha) * pi^alpha / (alpha! * pi^(2 alpha))
    fam = RepProductFamily(cycling_scheme(P2))
    for alpha in range(4):
        weight = (P2.uniformizer() ** (-alpha)).scaled(Fraction(1, math.factorial(alpha)))
        v = fam.member(alpha).scale(weight).gauss_valuation()
        expected = -alpha * P2.pi_valuation - P2.factorial_valuation(alpha)
        assert v == NormValue.of(expected)


def test_matching_indices():
    fam = RepProductFamily(cycling_scheme(P2))
    matches = fam.matching_indices(P2.zero(), 5)
    assert [beta for beta, _ in matches] == [0, 2, 4]
    famh = RepProductFamily(integer_scheme(HAHN))
    center = HAHN.from_terms([(Fraction(0), 2), (Fraction(1), 1)])  # 2 + t
    matches = famh.matching_indices(center, 5)
    assert matches == [(2, NormValue.of(1))]


@st.composite
def disc_cases(draw):
    """A scheme, an index, a center and a radius valuation.

    Half the rational centers sit on a representative, which puts a root at
    0 (a shift); the rest are drawn with denominators, which on the
    rational scheme and off-representative centers gives a leading
    denominator > 1.  On the Hahn schemes half the centers are series c0 +
    s instead, c0 drawn as a rational center and s of 1-3 terms with
    positive exponents, so q = v(s) > 0; the radius valuations fall on
    both sides of q.
    """
    scheme = draw(st.sampled_from(SCHEMES))
    series = isinstance(scheme.field, HahnField) and draw(st.booleans())
    alpha = draw(st.integers(0, 3 if series else 4))
    center = draw(st.one_of(
        st.integers(0, alpha + 2).map(scheme.rep_rational_fn),
        st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))))
    if series:
        exponents = draw(st.sets(st.builds(Fraction, st.integers(1, 6), st.integers(1, 3)),
                                 min_size=1, max_size=3))
        coefficients = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
        center = HAHN.from_terms([(Fraction(0), center)]
                                 + [(e, draw(coefficients)) for e in sorted(exponents)])
    if isinstance(scheme.field, PAdicField):
        radius = Fraction(draw(st.integers(0, 3)))
    else:
        radius = draw(st.builds(Fraction, st.integers(0, 7), st.integers(1, 4)))
    return scheme, alpha, center, radius


@pytest.mark.parametrize("scheme", [SCHEMES[0], SCHEMES[1], SCHEMES[3], SCHEMES[4]],
                         ids=lambda scheme: scheme.name)
def test_family_is_the_fold_of_member(scheme):
    # the classifier reads member(alpha)'s Gauss valuation off the fold
    fam = RepProductFamily(scheme)
    family = fam.family()
    for alpha in range(9):
        assert family.member((alpha,)) == fam.member(alpha).gauss_valuation(), alpha


@settings(deadline=None)
@given(st.sampled_from(SCHEMES), st.integers(0, 8))
# p=2 at odd alpha: the center of symmetry 1/2 is not integral
@example(SCHEMES[0], 3)
# even members: Hahn about alpha/2 at even and odd alpha, p=3 about 1
@example(SCHEMES[3], 4)
@example(SCHEMES[3], 5)
@example(SCHEMES[1], 5)
def test_fold_matches_member(scheme, alpha):
    # the fold reads the unit disc about the representatives' integral
    # center of symmetry, or their median; member is the expansion about 0
    fam = RepProductFamily(scheme)
    xi = fam.member(alpha)
    assert fam._degree_and_gauss(alpha) == (xi.degree(), xi.gauss_valuation())


def test_claim2_fold_about_the_median_streams_fewer_numerators():
    # the fold takes the representatives' integral center of symmetry and
    # streams the even member in y^2, where no numerator is 0; it clears the
    # roots' unit denominators, so every stream is over lead 1, and a
    # member with one nonzero root streams the binomial row (one lag)
    numerators, leads, lags = [], [], []

    def counting(roots):
        expansion = _linear_power_product(roots)
        leads.append(expansion.lead)

        def counted():
            for value in expansion.numerators:
                numerators.append(value)
                yield value
        return expansion._replace(numerators=counted())

    def spying(c0, base, A, n, lead):
        lags.append(len(base))
        return stream(c0, base, A, n, lead)

    stream = counterexample._numerator_stream
    for scheme, alpha, streamed, lag_count in [
        # about 8, Hahn member(16) is y^256 prod_k (y^2 - k^2)^256: 2,049
        # numerators, against 4,097 in y about the median
        (integer_scheme(HAHN), 16, 2049, 8),
        # about 17/2, a Hahn unit, member(17) is prod over k = 1..9 of
        # (y^2 - (k - 1/2)^2)^289: 2,602, against 5,203 about the median;
        # its roots clear by the unit 2, so the lead is 1, not 4^(9 * 289)
        (integer_scheme(HAHN), 17, 2602, 9),
        # about 1, p=3 member(11) is y^484 (y^2 - 1)^484: 485, one root in y^2
        (cycling_scheme(P3), 11, 485, 1),
        # about its median 0, p=2 member(6) is y^144 (y - 1)^108: 109
        (cycling_scheme(P2), 6, 109, 1),
    ]:
        numerators.clear()
        leads.clear()
        lags.clear()
        fam = RepProductFamily(scheme)
        with mock.patch.object(counterexample, "_linear_power_product", counting), \
                mock.patch.object(counterexample, "_numerator_stream", spying):
            degree, gauss = fam._degree_and_gauss(alpha)
        assert (degree, gauss) == (fam.member_expected_degree(alpha), NormValue.of(0))
        assert len(numerators) == streamed, (scheme.name, alpha)
        assert all(numerators)
        assert (leads, lags) == ([1], [lag_count]), (scheme.name, alpha)


def test_fold_scales_only_a_common_unit_denominator():
    # about 1/2 the integer scheme's roots all have the unit denominator 2,
    # so they stream over lead 1; the rational scheme's have different
    # denominators, so they stream unscaled, over the lead about 1/2
    leads = []

    def spying(roots):
        expansion = _linear_power_product(roots)
        leads.append(expansion.lead)
        return expansion

    half = HAHN.from_rational(Fraction(1, 2))
    unscaled = RepProductFamily(rational_scheme(HAHN))._expansion(4, Fraction(1, 2)).lead
    assert unscaled != 1
    for scheme, lead in [(integer_scheme(HAHN), 1), (rational_scheme(HAHN), unscaled)]:
        leads.clear()
        fam = RepProductFamily(scheme)
        with mock.patch.object(counterexample, "_linear_power_product", spying):
            fam._degree_and_gauss(4, half, Fraction(1, 2))
        assert leads == [lead], scheme.name


@settings(deadline=None, max_examples=150)
@given(disc_cases())
# a lead with positive valuation, and a root at 0 on the rational scheme
@example((SCHEMES[0], 2, Fraction(1, 2), Fraction(1)))
@example((SCHEMES[1], 2, Fraction(-4, 3), Fraction(2)))
@example((SCHEMES[4], 3, Fraction(1, 2), Fraction(3, 2)))
# the first nonzero numerator term (12) lies above the least (4)
@example((SCHEMES[0], 2, Fraction(-7), Fraction(1)))
# the unit disc about an integral center off the median, and about a
# center that is not integral, which the fold must not move
@example((SCHEMES[1], 4, Fraction(7), Fraction(0)))
@example((SCHEMES[0], 3, Fraction(1, 2), Fraction(0)))
@example((SCHEMES[4], 4, Fraction(-5, 3), Fraction(0)))
# series centers: r above q = 1/2 with c0 on lambda_2, where the shift
# makes the gauss q * 4 = 2 (the README's series disc); r below q; three
# terms with r between the first two exponents
@example((SCHEMES[3], 2, HAHN.from_terms([(0, 2), (Fraction(1, 2), 1)]), Fraction(3, 2)))
@example((SCHEMES[3], 3, HAHN.from_terms([(0, 1), (2, -3)]), Fraction(4, 3)))
@example((SCHEMES[4], 3, HAHN.from_terms([(0, Fraction(1, 2)), (Fraction(1, 3), 2),
                                          (1, 1), (Fraction(5, 3), -1)]), Fraction(2, 3)))
# centers whose roots' denominators are units, which the fold clears: p=2
# about 1/3, p=3 about 1/2, Hahn about -5/3 and about a series center with
# constant term 1/2, on the integer scheme whose roots all clear by 2
@example((SCHEMES[0], 3, Fraction(1, 3), Fraction(2)))
@example((SCHEMES[1], 4, Fraction(1, 2), Fraction(1)))
@example((SCHEMES[3], 3, Fraction(-5, 3), Fraction(2, 3)))
@example((SCHEMES[3], 3, HAHN.from_terms([(0, Fraction(1, 2)), (Fraction(1, 3), 1)]),
          Fraction(1, 2)))
def test_fold_matches_member_on_subdisc(case):
    # a series center is folded as its constant term at radius valuation
    # min(r, v(s)); the generic and the factor-by-factor rescales build the
    # member about the center itself
    scheme, alpha, c, r = case
    fam = RepProductFamily(scheme)
    rational = isinstance(c, Fraction)
    center = scheme.field.from_rational(c) if rational else c
    folded = fam._degree_and_gauss(alpha, center, r)
    if rational:
        xi = expansion_on_subdisc(fam, alpha, c, r)
        assert folded == (xi.degree(), xi.gauss_valuation())
    if center.valuation() >= NormValue.of(0):
        for xi in (fam.member_on_subdisc(alpha, center, r),
                   naive_member_on_subdisc(scheme, alpha, center, r)):
            assert folded == (xi.degree(), xi.gauss_valuation())


def test_fold_on_series_center_matches_the_generic_rescale():
    fam = RepProductFamily(integer_scheme(HAHN))
    center = HAHN.from_terms([(Fraction(0), 2), (Fraction(1), 1)])  # 2 + t
    generic = naive_member_on_subdisc(fam.scheme, 2, center, Fraction(2))
    assert fam._degree_and_gauss(2, center, Fraction(2)) == (12, generic.gauss_valuation())


def test_fold_rejects_series_center_that_is_not_integral():
    # a term of negative exponent: the generic rescale refuses it too
    fam = RepProductFamily(integer_scheme(HAHN))
    center = HAHN.from_terms([(Fraction(-1, 2), 1), (Fraction(0), 2), (Fraction(1), 1)])
    with pytest.raises(ValueError):
        fam._degree_and_gauss(2, center, Fraction(1))
    with pytest.raises(ValueError):
        fam.member_on_subdisc(2, center, Fraction(1))


def test_fold_rejects_radius_outside_value_group():
    fam = RepProductFamily(cycling_scheme(P2))
    with pytest.raises(ValueError):
        fam._degree_and_gauss(2, P2.from_rational(1), Fraction(1, 2))
    with pytest.raises(ValueError):
        fam.member_on_subdisc(2, P2.from_rational(1), Fraction(1, 2))
    with pytest.raises(ValueError):
        fam._degree_and_gauss(-1)


def test_claim2_holds_one_window_of_coefficients():
    # the expansions are folded as they stream; building every member as a
    # SparsePoly instead peaks at 5.5 MiB on this call
    family = RepProductFamily(integer_scheme(HahnField()))
    tracemalloc.start()
    try:
        report = verify_claim2(family, 14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["pass"]
    assert peak < 1 << 20, f"peak {peak / (1 << 20):.2f} MiB"


# ---------------------------------------------------------------------------
# claim 1, discs


def test_claim1_disc_hahn_worked_rows():
    fam = RepProductFamily(integer_scheme(HAHN))
    rep = verify_claim1_disc(fam, HAHN.zero(), Fraction(1), 4)
    got = [(r["alpha"], r["valuation_lhs"]) for r in rep["rows"]]
    assert got == [(0, "0"), (1, "1"), (2, "4"), (3, "9"), (4, "16")]
    assert rep["pass"]
    assert rep["params"]["gamma"] == 0
    assert rep["restricted_family_verdict"] == DECREASING_WITNESSED


def test_claim1_disc_p2_matching_count_strengthens_bound():
    fam = RepProductFamily(cycling_scheme(P2))
    rep = verify_claim1_disc(fam, P2.zero(), Fraction(1), 6)
    by_alpha = {r["alpha"]: r for r in rep["rows"]}
    # alpha = 4: matching beta in {0, 2, 4}, three factors of weight 16
    assert by_alpha[4]["valuation_rhs"] == "48"
    assert rep["pass"]


def test_claim1_disc_series_center():
    fam = RepProductFamily(integer_scheme(HAHN))
    center = HAHN.from_terms([(Fraction(0), 2), (Fraction(1), 1)])  # 2 + t
    rep = verify_claim1_disc(fam, center, Fraction(2), 3)
    assert rep["params"]["gamma"] == 2
    # v(center - 2) = 1 < radius valuation 2; bound alpha^2 * 1 from alpha >= 2
    by_alpha = {r["alpha"]: r for r in rep["rows"]}
    assert by_alpha[1]["valuation_rhs"] == "0"
    assert by_alpha[2]["valuation_rhs"] == "4"
    assert by_alpha[3]["valuation_rhs"] == "9"
    assert rep["pass"]


def test_claim1_disc_rational_scheme_fractional_center():
    fam = RepProductFamily(rational_scheme(HAHN))
    rep = verify_claim1_disc(fam, HAHN.from_rational(Fraction(1, 2)), Fraction(1), 5)
    assert rep["params"]["gamma"] == 3  # 1/2 sits at index 3 of the enumeration
    assert rep["pass"]


@pytest.mark.parametrize("scheme, c, r", [
    (cycling_scheme(P2), 1, Fraction(3)),
    (cycling_scheme(P3), 4, Fraction(1)),
    (integer_scheme(HAHN), 2, Fraction(3, 2)),
    (rational_scheme(HAHN), Fraction(1, 2), Fraction(1, 3)),
])
def test_claim1_disc_witness_is_the_subdisc_gauss_valuation(scheme, c, r):
    # the rows, which fix the verdict, read the Gauss valuation of each
    # member rescaled to the disc
    fam = RepProductFamily(scheme)
    center = scheme.field.from_rational(c)
    report = verify_claim1_disc(fam, center, r, 4)
    assert report["pass"]
    assert report["restricted_family_verdict"] == DECREASING_WITNESSED
    for alpha, row in enumerate(report["rows"]):
        want = fam.member_on_subdisc(alpha, center, r).gauss_valuation()
        assert row["valuation_lhs"] == format_valuation(want), alpha


def test_claim1_disc_memory_does_not_grow_with_the_radius():
    # the rows fold the stream; rescaling the members by 2^(10^6 j)
    # instead peaks at 79 MiB on this call
    family = RepProductFamily(cycling_scheme(P2))
    tracemalloc.start()
    try:
        report = verify_claim1_disc(family, P2.from_rational(1), Fraction(10**6), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["pass"]
    assert peak < 2 << 20, f"peak {peak / (1 << 20):.2f} MiB"


def test_claim1_disc_validates_inputs():
    fam = RepProductFamily(integer_scheme(HAHN))
    with pytest.raises(ValueError):
        verify_claim1_disc(fam, HAHN.zero(), Fraction(0), 3)
    with pytest.raises(ValueError):
        verify_claim1_disc(fam, HAHN.element_of_valuation(-1), Fraction(1), 3)


# ---------------------------------------------------------------------------
# claim 1, disc with a hole


def test_claim1_laurent_hahn_hole_at_zero():
    fam = RepProductFamily(integer_scheme(HAHN))
    rep = verify_claim1_laurent(fam, Hole(HAHN.zero(), Fraction(1)), 5, 4, 6)
    assert rep["pass"]
    assert rep["stabilization_index"] == 0
    assert rep["c_valuation"] == "0"
    assert all(r["valuation_rhs"] == "0" for r in rep["rows"])


def test_claim1_laurent_p2_offset_center():
    # hole center 3 matches rep lambda_1 = 1 with rho = 2, so the bound dips
    # to -1 at alpha = 1 before stabilizing at alpha = 2 = ceil(vtau / vrho)
    fam = RepProductFamily(cycling_scheme(P2))
    rep = verify_claim1_laurent(fam, Hole(P2.from_rational(3), Fraction(2)), 8, 4, 6)
    assert rep["pass"]
    assert rep["params"]["gamma"] == 1
    assert rep["stabilization_index"] == 2
    assert rep["c_valuation"] == "-1"
    by_alpha = {r["alpha"]: r for r in rep["rows"]}
    assert by_alpha[1]["valuation_rhs"] == "-1"
    assert by_alpha[2]["valuation_rhs"] == "0"


def test_claim1_laurent_monomial_side_is_integral():
    fam = RepProductFamily(cycling_scheme(P3))
    rep = verify_claim1_laurent(fam, Hole(P3.zero(), Fraction(1)), 4, 3, 8)
    assert rep["pass"]
    for row in rep["rows"]:
        assert row["valuation_lhs"] != "inf"


def apply_operator_monomial_side(family: RepProductFamily, alpha: int,
                                 delta_max: int) -> NormValue:
    """The monomial side as first written: apply member(alpha) d^(alpha) to
    each x^delta; the fold in verify_claim1_laurent must agree."""
    field = family.field
    op = DiffOperator.make(field, 1, {(alpha,): family.member(alpha)}, divided=True)
    worst = NormValue.infinite()
    for delta in range(delta_max + 1):
        image = apply_operator(op, SparsePoly.monomial(field, 1, (delta,)))
        worst = min(worst, image.gauss_valuation())
    return worst


@st.composite
def laurent_cases(draw):
    """A scheme, a hole with an integral center, and the three caps."""
    scheme = draw(st.sampled_from(SCHEMES[:4]))
    if isinstance(scheme.field, PAdicField):
        radius = Fraction(draw(st.integers(1, 3)))
    else:
        radius = draw(st.builds(Fraction, st.integers(1, 7), st.integers(1, 3)))
    center = scheme.field.from_rational(draw(st.integers(-3, 9)))
    alpha_max = draw(st.integers(0, 10))
    beta_max = draw(st.integers(0, 4))
    delta_max = draw(st.integers(0, 25))
    return scheme, Hole(center, radius), alpha_max, beta_max, delta_max


@settings(deadline=None, max_examples=20)
@given(laurent_cases())
@example((SCHEMES[0], Hole(P2.from_rational(3), Fraction(2)), 10, 2, 4))
@example((SCHEMES[3], Hole(HAHN.from_rational(2), Fraction(3, 2)), 7, 3, 25))
def test_laurent_monomial_fold_matches_apply_operator(case):
    scheme, hole, alpha_max, beta_max, delta_max = case
    family = RepProductFamily(scheme)
    oracle = {alpha: apply_operator_monomial_side(family, alpha, delta_max)
              for alpha in range(alpha_max + 1)}
    assert {alpha: counterexample._monomial_side_valuation(family, alpha, delta_max)
            for alpha in oracle} == oracle
    report = verify_claim1_laurent(family, hole, alpha_max, beta_max, delta_max)
    with mock.patch.object(counterexample, "_monomial_side_valuation",
                           lambda _family, alpha, _delta_max: oracle[alpha]):
        assert verify_claim1_laurent(family, hole, alpha_max, beta_max, delta_max) == report


def test_claim1_laurent_tail_decay_flag():
    fam = RepProductFamily(integer_scheme(HAHN))
    rep = verify_claim1_laurent(fam, Hole(HAHN.from_rational(1), Fraction(3)), 6, 3, 4)
    assert rep["tail_decay_pass"]
    assert rep["pass"]


# ---------------------------------------------------------------------------
# claim 2


def test_claim2_worked_rows():
    fam2 = RepProductFamily(cycling_scheme(P2))
    rep = verify_claim2(fam2, 5)
    by_alpha = {r["alpha"]: (r["valuation_lhs"], r["valuation_rhs"]) for r in rep["rows"]}
    assert by_alpha[3] == ("-4", "-3")
    assert rep["pass"]

    famh = RepProductFamily(integer_scheme(HAHN))
    reph = verify_claim2(famh, 5)
    by_alpha = {r["alpha"]: (r["valuation_lhs"], r["valuation_rhs"]) for r in reph["rows"]}
    assert by_alpha[5] == ("-5", "-5")
    assert reph["pass"]


def test_claim2_rational_scheme_small():
    fam = RepProductFamily(rational_scheme(HAHN))
    rep = verify_claim2(fam, 5)
    assert rep["pass"]
    assert rep["scheme"] == "hahn-rational"


def test_claim2_report_shape():
    fam = RepProductFamily(cycling_scheme(P2))
    rep = verify_claim2(fam, 3)
    assert rep["claim"] == "claim2"
    assert rep["params"] == {"alpha_max": 3}
    assert [r["alpha"] for r in rep["rows"]] == [0, 1, 2, 3]
    assert all(set(r) == {"alpha", "valuation_lhs", "valuation_rhs", "pass"}
               for r in rep["rows"])
