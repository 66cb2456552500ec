from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from nadops.scalars import (
    HahnDivisionError,
    HahnField,
    NormValue,
    PAdicField,
    _int_valuation,
    _is_prime,
    _qadd,
    _qdiv,
    _qmul,
    _qneg,
    _qof,
    _qtext,
    backend_from_name,
    format_valuation,
    parse_scalar,
)

P2 = PAdicField(2)
P3 = PAdicField(3)
P5 = PAdicField(5)
HAHN = HahnField()


# independent oracle for v_p(m!): factor every k <= m by trial division
def brute_factorial_valuation(m: int, p: int) -> int:
    total = 0
    for k in range(2, m + 1):
        while k % p == 0:
            total += 1
            k //= p
    return total


# the Fraction summing that HahnField.from_terms and the general Hahn product
# replaced, kept as their oracle
def _normalize_hahn(terms):
    acc = {}
    for exponent, coeff in terms:
        e, c = Fraction(exponent), Fraction(coeff)
        c = acc.get(e, Fraction(0)) + c
        if c == 0:
            acc.pop(e, None)
        else:
            acc[e] = c
    return tuple(sorted(acc.items()))


# the one-factor-at-a-time loop that _int_valuation replaced, kept as its oracle
def loop_int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_scalars(field):
    def build(num, den, k):
        return field.from_rational(Fraction(num, den) * Fraction(field.p) ** k)
    return st.builds(build, st.integers(-50, 50), st.integers(1, 50),
                     st.integers(-3, 3))


def hahn_scalars():
    term = st.tuples(
        st.builds(Fraction, st.integers(-8, 12), st.integers(1, 3)),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))
    return st.lists(term, min_size=0, max_size=4).map(HAHN.from_terms)


# ---------------------------------------------------------------------------
# the rational kernel on normalized int pairs, against Fraction


BIG = st.integers(-2 ** 200, 2 ** 200)
FRACTIONS = st.one_of(
    st.builds(Fraction, BIG, BIG.filter(bool)),  # negative denominators normalize away
    st.builds(Fraction, st.integers(-12, 12), st.integers(-6, 6).filter(bool)),
    st.just(Fraction(0)),
)


@st.composite
def fraction_pairs(draw):
    """(x, y) with y often -x (a sum cancelling to zero), zero, or x shifted by
    an integer (equal denominators, whose sum may still reduce)."""
    x = draw(FRACTIONS)
    y = draw(st.one_of(FRACTIONS, st.just(-x), st.just(x),
                       st.builds(lambda k, sign: sign * x + k, BIG, st.sampled_from([1, -1]))))
    return x, y


def canonical(q):
    n, d = q
    return type(n) is int and type(d) is int and d > 0 and gcd(n, d) == 1


@given(fraction_pairs())
def test_rational_kernel_matches_fraction(pair):
    x, y = pair
    a, b = _qof(x), _qof(y)
    assert a == (x.numerator, x.denominator)
    results = [(_qadd(a, b), x + y), (_qadd(a, _qneg(b)), x - y), (_qmul(a, b), x * y),
               (_qmul(b, a), y * x), (_qneg(a), -x)]
    if y:
        results.append((_qdiv(a, b), x / y))
    else:
        with pytest.raises(ZeroDivisionError):
            _qdiv(a, b)
    for got, want in results:
        assert canonical(got), got
        assert got == (want.numerator, want.denominator)
        assert _qtext(got) == str(want)


def test_rational_kernel_edges():
    assert _qof(5) == (5, 1) and _qof(-3) == (-3, 1) and _qof(0) == (0, 1)
    assert _qof(Fraction(6, -4)) == (-3, 2)
    assert _qadd((1, 2), (1, 2)) == (1, 1)        # equal denominators that reduce
    assert _qadd((1, 6), (1, 6)) == (1, 3)
    assert _qadd((3, 4), (-3, 4)) == (0, 1)       # cancellation gives the one zero
    assert _qadd((1, 6), (1, 10)) == (4, 15)      # shared factor in the denominators
    assert _qmul((0, 1), (-7, 3)) == (0, 1)
    assert _qdiv((1, 2), (-3, 4)) == (-2, 3)      # the divisor's sign moves up
    assert _qdiv((0, 1), (-5, 1)) == (0, 1)
    assert [_qtext(q) for q in ((3, 1), (-4, 3), (0, 1))] == ["3", "-4/3", "0"]


# ---------------------------------------------------------------------------
# NormValue


def test_norm_value_ordering_puts_infinity_on_top():
    assert NormValue.of(0) < NormValue.of(Fraction(3, 2)) < NormValue.infinite()
    assert NormValue.infinite() <= NormValue.infinite()
    assert not (NormValue.infinite() < NormValue.infinite())
    assert NormValue.infinite() > NormValue.of(7) >= NormValue.of(7)


@pytest.mark.parametrize("other", [3, Fraction(1, 2), None, "0"])
def test_norm_value_refuses_to_order_against_other_types(other):
    # each of these once recursed without end or raised AttributeError
    for compare in (lambda: NormValue.of(0) < other, lambda: NormValue.of(0) <= other,
                    lambda: NormValue.of(0) > other, lambda: NormValue.of(0) >= other,
                    lambda: other < NormValue.infinite()):
        with pytest.raises(TypeError):
            compare()


# the tuple key that NormValue's ordering compared before it read the
# valuations directly, kept as its oracle
def old_norm_key(x):
    return (1, Fraction(0)) if x.valuation is None else (0, x.valuation)


NORM_VALUES = st.one_of(
    st.just(NormValue.infinite()),
    st.sampled_from([-1, 0, Fraction(1, 2)]).map(NormValue.of),  # ties are likely
    st.fractions(min_value=-6, max_value=6, max_denominator=6).map(NormValue.of))


@given(NORM_VALUES, NORM_VALUES)
def test_norm_value_order_matches_old_key(a, b):
    ka, kb = old_norm_key(a), old_norm_key(b)
    assert (a < b) == (ka < kb)
    assert (a <= b) == (ka <= kb)
    assert (a > b) == (ka > kb)
    assert (a >= b) == (ka >= kb)
    assert old_norm_key(min(a, b)) == min(ka, kb)


def test_norm_value_addition_and_scaling():
    assert NormValue.of(2) + NormValue.of(Fraction(1, 3)) == NormValue.of(Fraction(7, 3))
    assert NormValue.infinite() + NormValue.of(-5) == NormValue.infinite()


def test_valuation_text_roundtrip():
    for v in (NormValue.of(Fraction(-7, 3)), NormValue.of(0), NormValue.of(5)):
        assert NormValue.of(Fraction(format_valuation(v))) == v
        assert format_valuation(v) == format_valuation(v.valuation)
    assert format_valuation(NormValue.infinite()) == "inf"
    assert format_valuation(Fraction(-8, 6)) == "-4/3"


# ---------------------------------------------------------------------------
# p-adic field


def test_padic_valuation_examples():
    assert P2.from_rational(12).valuation() == NormValue.of(2)
    assert P3.from_rational(Fraction(1, 3)).valuation() == NormValue.of(-1)
    assert P5.from_rational(250).valuation() == NormValue.of(3)
    assert P2.zero().valuation().is_infinite


PRIMES = st.sampled_from([2, 3, 5, 7])
NONZERO = st.integers(-10**40, 10**40).filter(bool)


@given(PRIMES, NONZERO, st.integers(0, 300))
def test_int_valuation_matches_loop(p, unit, k):
    n = unit * p ** k
    assert _int_valuation(n, p) == loop_int_valuation(n, p)


@given(PRIMES, NONZERO, st.integers(1, 10**12), st.integers(0, 300), st.integers(0, 300))
def test_padic_valuation_matches_loop(p, num, den, k_num, k_den):
    # denominators divisible by p are part of the draw
    q = Fraction(num * p ** k_num, den * p ** k_den)
    want = loop_int_valuation(q.numerator, p) - loop_int_valuation(q.denominator, p)
    x = PAdicField(p).from_rational(q)
    assert PAdicField(p).valuation(x.q) == want
    assert x.valuation() == NormValue.of(want)


def test_int_valuation_edges():
    assert _int_valuation(1, 2) == 0
    assert _int_valuation(-1, 3) == 0
    assert _int_valuation(-(2 ** 1000), 2) == 1000
    assert _int_valuation(3 ** 1023 * 7, 3) == 1023
    assert _int_valuation(5 ** 1024, 5) == 1024
    assert _int_valuation(7 ** 255 * 2, 7) == 255


def test_padic_arithmetic_example():
    third = P3.from_rational(Fraction(1, 3))
    nine = P3.from_rational(9)
    assert (third * nine).valuation() == NormValue.of(1)


def test_padic_field_rejects_composite_prime():
    with pytest.raises(ValueError):
        PAdicField(4)
    with pytest.raises(ValueError):
        PAdicField(1)


# the trial division that _is_prime replaced, kept as its oracle
def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if _is_prime(n) != trial_division_is_prime(n)] == []


def test_is_prime_large_inputs():
    assert _is_prime(2**61 - 1)
    # strong pseudoprimes to the bases 2..23 and 2..37; the later bases catch them
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    with pytest.raises(ValueError, match="too large"):
        _is_prime(3317044064679887385961981)
    with pytest.raises(ValueError, match="too large"):
        PAdicField(2**89 - 1)


def test_padic_element_of_valuation_rejects_fractions():
    assert P2.element_of_valuation(3).valuation() == NormValue.of(3)
    with pytest.raises(ValueError):
        P2.element_of_valuation(Fraction(1, 2))


def test_check_valuation_is_the_value_group_check():
    # the check element_of_valuation runs, without building p^v
    assert P2.check_valuation(10**9) == Fraction(10**9)
    assert HAHN.check_valuation(Fraction(-3, 7)) == Fraction(-3, 7)
    message = "valuation 1/2 is not in the value group Z of the p-adic backend"
    for check in (P2.check_valuation, P2.element_of_valuation):
        with pytest.raises(ValueError, match=message):
            check(Fraction(1, 2))


def test_legendre_factorial_examples():
    assert P2.factorial_valuation(4) == 3
    assert P2.factorial_valuation(10) == 8
    assert P3.factorial_valuation(9) == 4
    assert P5.factorial_valuation(100) == 24
    assert P2.factorial_valuation(0) == 0


def test_legendre_matches_brute_factorization():
    for field in (P2, P3, P5, PAdicField(7)):
        for m in range(0, 201):
            assert field.factorial_valuation(m) == brute_factorial_valuation(m, field.p)


@given(padic_scalars(P3), padic_scalars(P3))
def test_padic_ultrametric(a, b):
    va, vb, vs = a.valuation(), b.valuation(), (a + b).valuation()
    assert vs >= min(va, vb)
    if va != vb:
        assert vs == min(va, vb)


@given(padic_scalars(P2), padic_scalars(P2))
def test_padic_multiplicativity(a, b):
    assert (a * b).valuation() == a.valuation() + b.valuation()


@given(padic_scalars(P5), padic_scalars(P5))
def test_padic_division_inverts_multiplication(a, b):
    if not b.is_zero:
        assert (a * b).div(b) == a


# ---------------------------------------------------------------------------
# Hahn field


# monomials: one term, negative and fractional exponents, negative coefficients
HAHN_MONOMIALS = st.tuples(
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 5)),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4)),
).map(lambda term: HAHN.from_terms([term]))


@given(HAHN_MONOMIALS, st.one_of(hahn_scalars(), HAHN_MONOMIALS), st.booleans())
def test_hahn_monomial_product_matches_general_path(mono, other, mono_first):
    a, b = (mono, other) if mono_first else (other, mono)
    terms = [(ea + eb, ca * cb) for ea, ca in a.payload for eb, cb in b.payload]
    assert (a * b).payload == _normalize_hahn(terms)


@given(st.lists(st.tuples(
    st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-8, 12), st.integers(1, 6))),
    st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))),
    max_size=8))
def test_hahn_from_terms_matches_normalize_oracle(terms):
    # repeated exponents that cancel, ints beside Fractions, and fractional
    # exponents whose order differs from the order of their int pairs
    assert HAHN.from_terms(terms).payload == _normalize_hahn(terms)


# the general product that the integer-keyed one replaced: a dict keyed by
# exponent pairs, sorted once by the exact Fraction of each exponent
def fraction_keyed_mul(a, b):
    acc = {}
    for ea, ca in a:
        for eb, cb in b:
            e = _qadd(ea, eb)
            prev = acc.get(e)
            acc[e] = _qmul(ca, cb) if prev is None else _qadd(prev, _qmul(ca, cb))
    return tuple(sorted([term for term in acc.items() if term[1][0]],
                        key=lambda term: Fraction(*term[0])))


# exponents over many different denominators, so that the lcm of an
# operand pair differs from either operand's largest denominator
WIDE_HAHN_TERMS = st.tuples(
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 5, 6, 9, 10, 35])),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))


@given(st.lists(WIDE_HAHN_TERMS, min_size=2, max_size=5),
       st.lists(WIDE_HAHN_TERMS, min_size=2, max_size=5))
def test_hahn_general_product_matches_fraction_keyed_product(terms_a, terms_b):
    a, b = HAHN.from_terms(terms_a), HAHN.from_terms(terms_b)
    want = fraction_keyed_mul(a.q, b.q)
    assert HAHN.mul(a.q, b.q) == want and HAHN.mul(b.q, a.q) == want
    product = [(ea + eb, ca * cb) for ea, ca in a.payload for eb, cb in b.payload]
    assert (a * b).payload == _normalize_hahn(product)


def test_hahn_general_product_keys_over_the_lcm():
    # denominators 2 and 3: the common denominator is 6, not the larger 3
    a = HAHN.from_terms([(Fraction(1, 2), 1), (1, 1)])
    b = HAHN.from_terms([(Fraction(1, 3), 1), (Fraction(-2, 3), 2)])
    assert (a * b).payload == ((Fraction(-1, 6), 2), (Fraction(1, 3), 2),
                               (Fraction(5, 6), 1), (Fraction(4, 3), 1))
    assert (a * HAHN.zero()).is_zero and (HAHN.zero() * a).is_zero


def test_hahn_valuation_examples():
    s = HAHN.from_terms([(Fraction(1, 2), 1), (Fraction(2), 1)])
    assert s.valuation() == NormValue.of(Fraction(1, 2))
    assert HAHN.zero().valuation().is_infinite
    assert HAHN.from_rational(7).valuation() == NormValue.of(0)


def test_hahn_addition_cancels_terms():
    t = HAHN.uniformizer()
    t2 = HAHN.from_terms([(Fraction(2), 1)])
    assert (t + t2) + (-t) == t2
    assert (t + (-t)).is_zero


def test_hahn_multiplication_convolves():
    a = HAHN.from_terms([(Fraction(0), 1), (Fraction(1), 1)])    # 1 + t
    b = HAHN.from_terms([(Fraction(0), 1), (Fraction(1), -1)])   # 1 - t
    assert a * b == HAHN.from_terms([(Fraction(0), 1), (Fraction(2), -1)])


def test_hahn_element_of_valuation_accepts_fractions():
    s = HAHN.element_of_valuation(Fraction(-3, 7))
    assert s.valuation() == NormValue.of(Fraction(-3, 7))


def test_split_constant_reads_the_constant_term_and_the_rest():
    assert P2.split_constant(P2.from_rational(Fraction(-3, 4)).q) == (Fraction(-3, 4), None)
    assert HAHN.split_constant(HAHN.zero().q) == (0, None)
    assert HAHN.split_constant(HAHN.from_rational(Fraction(5, 2)).q) == (Fraction(5, 2), None)
    center = HAHN.from_terms([(Fraction(2), 1), (Fraction(0), -2), (Fraction(1, 3), 7)])
    assert HAHN.split_constant(center.q) == (-2, Fraction(1, 3))
    assert HAHN.split_constant(HAHN.uniformizer().q) == (0, 1)
    for terms in ([(Fraction(-1, 2), 1)], [(Fraction(-1), 1), (Fraction(0), 3), (Fraction(1), 1)]):
        with pytest.raises(ValueError):
            HAHN.split_constant(HAHN.from_terms(terms).q)


def test_hahn_division_exact_case():
    t = HAHN.uniformizer()
    num = HAHN.from_terms([(Fraction(2), 1), (Fraction(3), 1)])
    assert num.div(t) == HAHN.from_terms([(Fraction(1), 1), (Fraction(2), 1)])


def test_hahn_division_cutoff():
    one_plus_t = HAHN.from_terms([(Fraction(0), 1), (Fraction(1), 1)])
    with pytest.raises(HahnDivisionError):
        HAHN.one().div(one_plus_t)
    with pytest.raises(HahnDivisionError):
        one_plus_t ** (-1)


@given(hahn_scalars(), hahn_scalars())
def test_hahn_ultrametric(a, b):
    va, vb, vs = a.valuation(), b.valuation(), (a + b).valuation()
    assert vs >= min(va, vb)
    if va != vb:
        assert vs == min(va, vb)


@given(hahn_scalars(), hahn_scalars())
def test_hahn_multiplicativity(a, b):
    assert (a * b).valuation() == a.valuation() + b.valuation()


@given(hahn_scalars())
def test_hahn_division_by_self_support(a):
    base = HAHN.from_terms([(Fraction(1), 2)])
    assert (a * base).div(base) == a


# ---------------------------------------------------------------------------
# the Scalar arithmetic the field classes replaced, kept as their oracle


def old_add(a, b):
    if isinstance(a.payload, Fraction):
        return a.field.from_rational(a.payload + b.payload)
    return a.field.from_terms(_normalize_hahn(list(a.payload) + list(b.payload)))


def old_neg(a):
    if isinstance(a.payload, Fraction):
        return a.field.from_rational(-a.payload)
    return a.field.from_terms(tuple((e, -c) for e, c in a.payload))


def old_mul(a, b):
    if isinstance(a.payload, Fraction):
        return a.field.from_rational(a.payload * b.payload)
    terms = [(ea + eb, ca * cb) for ea, ca in a.payload for eb, cb in b.payload]
    return a.field.from_terms(_normalize_hahn(terms))


def old_div(a, b, exponent_cutoff=64):
    """Term-by-term Hahn quotient search, bounded by an exponent cutoff."""
    if isinstance(a.payload, Fraction):
        return a.field.from_rational(a.payload / b.payload)
    remainder = dict(a.payload)
    lead_exp, lead_coeff = b.payload[0]
    quotient = []
    limit = None
    while remainder:
        low = min(remainder)
        exp = low - lead_exp
        if limit is None:
            limit = exp + exponent_cutoff
        elif exp > limit:
            raise HahnDivisionError("quotient support exceeded the exponent cutoff")
        coeff = remainder[low] / lead_coeff
        quotient.append((exp, coeff))
        for d_exp, d_coeff in b.payload:
            key = exp + d_exp
            value = remainder.get(key, Fraction(0)) - coeff * d_coeff
            if value == 0:
                remainder.pop(key, None)
            else:
                remainder[key] = value
    return a.field.from_terms(quotient)


def old_valuation(a):
    if isinstance(a.payload, Fraction):
        q, p = a.payload, a.field.p
        return NormValue(None if q == 0 else Fraction(
            loop_int_valuation(q.numerator, p) - loop_int_valuation(q.denominator, p)))
    return NormValue(a.payload[0][0] if a.payload else None)


def old_text(a):
    if isinstance(a.payload, Fraction):
        return f"{a.payload.numerator}/{a.payload.denominator}@{a.field.p}"
    return " + ".join(f"{c}*t^({e})" for e, c in a.payload) or "0"


HAHN_TERMS = st.tuples(st.builds(Fraction, st.integers(-8, 12), st.integers(1, 3)),
                       st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))


@st.composite
def related_pairs(draw):
    """(a, b) on one backend, with b often -a, or sharing a's support so
    that sums cancel term by term and supports overlap."""
    if draw(st.booleans()):
        a = draw(padic_scalars(P3))
        b = draw(st.one_of(padic_scalars(P3), st.just(-a), st.just(a.scaled(2))))
        return a, b
    a = draw(hahn_scalars())
    shared = [(e, c * draw(st.sampled_from([-1, 1, 2]))) for e, c in a.payload
              if draw(st.booleans())]
    b = HAHN.from_terms(shared + draw(st.lists(HAHN_TERMS, max_size=3)))
    return a, b


def same(x, y):
    """Equal, and with the payload views written the same way (Fractions, not ints)."""
    return x == y and repr(x.payload) == repr(y.payload)


@given(related_pairs())
def test_field_arithmetic_matches_old_scalar_arithmetic(pair):
    a, b = pair
    assert same(a + b, old_add(a, b))
    assert same(a - b, old_add(a, old_neg(b)))
    assert same(-a, old_neg(a))
    assert same(a * b, old_mul(a, b))
    assert same(b * a, old_mul(a, b))
    for x in (a, b, a + b, a - b):
        assert x.is_zero == (old_valuation(x).is_infinite)
        assert x.valuation() == old_valuation(x)
        assert x.to_text() == old_text(x)
        assert hash(x) == hash((x.field, x.q))


@given(related_pairs(), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
       st.integers(-9, 9).filter(bool))
def test_monomial_division_matches_old_search(pair, exponent, coeff):
    a, _ = pair
    v = exponent if a.field == HAHN else exponent.numerator  # p-adic valuations are integers
    divisor = a.field.element_of_valuation(v).scaled(coeff)
    assert same(a.div(divisor), old_div(a, divisor))


def test_hahn_division_rejects_every_non_monomial():
    # the term-by-term search finds this quotient, but the field refuses every
    # non-monomial divisor, whether or not a search would terminate
    one_plus_t = HAHN.from_terms([(0, 1), (1, 1)])
    square = one_plus_t * one_plus_t
    assert old_div(square, one_plus_t) == one_plus_t
    with pytest.raises(HahnDivisionError):
        square.div(one_plus_t)
    with pytest.raises(ZeroDivisionError):
        square.div(HAHN.zero())


# ---------------------------------------------------------------------------
# the weight and valuation kernels, against the Scalar routines they replaced


def scalars_of(field):
    return hahn_scalars() if field == HAHN else padic_scalars(field)


FIELDS = st.sampled_from([P2, P3, HAHN])


@given(FIELDS.flatmap(lambda field: scalars_of(field)), FRACTIONS)
def test_times_matches_product_with_a_constant(x, r):
    # the old Scalar.scaled: a product with the constant built as a scalar
    want = x * x.field.from_rational(r)
    assert x.field.times(x.q, _qof(r)) == want.q
    assert same(x.scaled(r), want)


@given(FIELDS.flatmap(lambda field: st.lists(scalars_of(field), max_size=6)))
def test_min_valuation_matches_per_value_min(values):
    # p-adic draws put powers of p in the denominators; lists may hold zeros
    field = values[0].field if values else P2
    want = min((x.valuation() for x in values), default=NormValue.infinite())
    assert NormValue(field.min_valuation([x.q for x in values])) == want


def test_min_valuation_reads_denominators():
    values = [P2.from_rational(Fraction(3, 8)).q, P2.from_rational(12).q]
    assert P2.min_valuation(values) == -3
    assert P3.min_valuation([P3.from_rational(Fraction(2, 9)).q]) == -2
    assert HAHN.min_valuation([HAHN.from_terms([(Fraction(1, 2), 1)]).q,
                               HAHN.from_terms([(Fraction(1, 3), 5), (4, 1)]).q]) == Fraction(1, 3)
    assert P2.min_valuation([]) is None and HAHN.min_valuation([()]) is None


# ---------------------------------------------------------------------------
# value semantics and the payload view


def test_scalar_equality_and_hash_follow_value():
    for field in (P2, P3, HAHN):
        pairs = [
            (field.from_rational(Fraction(2, 4)), field.from_rational(Fraction(1, 2))),
            (field.from_rational(Fraction(1, 6)) + field.from_rational(Fraction(1, 6)),
             field.from_rational(Fraction(1, 3))),
            (field.from_rational(7) - field.from_rational(7), field.zero()),
            (field.from_rational(2).div(field.from_rational(-4)),
             field.from_rational(Fraction(-1, 2))),
        ]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
        assert len({x for pair in pairs[:2] for x in pair}) == 2
    assert HAHN.from_terms([(Fraction(2, 4), 3), (1, 0)]) == HAHN.from_terms([(Fraction(1, 2), 3)])


@given(related_pairs())
def test_arithmetic_back_to_the_same_value_is_equal(pair):
    a, b = pair
    back = (a + b) - b
    assert back == a and hash(back) == hash(a)


@given(padic_scalars(P3))
def test_payload_view_roundtrips_padic(x):
    assert P3.from_rational(x.payload) == x


@given(hahn_scalars())
def test_payload_view_roundtrips_hahn(x):
    assert HAHN.from_terms(x.payload) == x


@given(st.one_of(padic_scalars(P2), hahn_scalars()))
def test_payload_layout_read_by_bench_tracing(x):
    """bench/tracing.py's _payload_bits reads ``payload`` on every traced
    valuation call: a Fraction, or sorted (Fraction, Fraction) pairs."""
    payload = x.payload
    if x.field == P2:
        assert type(payload) is Fraction
    else:
        assert type(payload) is tuple
        assert all(type(term) is tuple and len(term) == 2
                   and all(type(v) is Fraction for v in term) for term in payload)
        exponents = [e for e, _ in payload]
        assert exponents == sorted(set(exponents))
        assert all(c != 0 for _, c in payload)
    with pytest.raises(AttributeError):
        x.payload = payload


# ---------------------------------------------------------------------------
# mixed-backend guards, serialization, helpers


def test_mixed_backend_arithmetic_rejected():
    with pytest.raises(ValueError):
        P2.one() + P3.one()
    with pytest.raises(ValueError):
        P2.one() * HAHN.one()


def test_scalar_text_roundtrip():
    samples = [
        P2.from_rational(Fraction(-3, 8)),
        P2.zero(),
        P5.from_rational(125),
        HAHN.zero(),
        HAHN.from_terms([(Fraction(-1, 2), Fraction(3, 4)), (Fraction(2), -1)]),
    ]
    for s in samples:
        assert parse_scalar(s.to_text(), s.field) == s


def test_parse_scalar_rejects_malformed():
    with pytest.raises(ValueError):
        parse_scalar("3@2", P2)
    with pytest.raises(ValueError):
        parse_scalar("1/2@3", P2)  # wrong prime
    with pytest.raises(ValueError):
        parse_scalar("t^2", HAHN)
    with pytest.raises(ValueError):
        parse_scalar("1/0@2", P2)  # zero denominator
    with pytest.raises(ValueError):
        parse_scalar("1*t^(1/00)", HAHN)


@given(padic_scalars(P2))
def test_scalar_text_roundtrip_fuzz_padic(s):
    assert parse_scalar(s.to_text(), P2) == s


@given(hahn_scalars())
def test_scalar_text_roundtrip_fuzz_hahn(s):
    assert parse_scalar(s.to_text(), HAHN) == s


def test_backend_from_name():
    assert backend_from_name("hahn") == HAHN
    assert backend_from_name("p=7") == PAdicField(7)
    with pytest.raises(ValueError):
        backend_from_name("p=6")
    with pytest.raises(ValueError):
        backend_from_name("real")


def test_scaled_shortcut():
    assert P2.from_rational(3).scaled(Fraction(1, 3)) == P2.one()
    t = HAHN.uniformizer()
    assert t.scaled(2) == HAHN.from_terms([(Fraction(1), 2)])
