"""Exact scalars for two non-Archimedean coefficient fields.

A Scalar is a record of a field and a value in the field's internal form.
Each field owns the arithmetic on that form (add, mul, neg, div, is_zero,
valuation, to_text), so a Scalar only checks that both operands share a
field and delegates.

Every rational inside a value is a normalized int pair (n, d): d > 0,
gcd(n, d) = 1, and zero is always (0, 1).  A small kernel of module-private
functions (_qadd, _qmul, _qneg, _qdiv, _qtext) computes on these pairs
exactly as Fraction does, without Fraction's per-operation overhead; since
the form is canonical, equal values have equal pairs, and tuple equality and
hashing follow value.  The two fields:

  * p-adic rationals: the value is one pair, and the valuation is the
    p-adic valuation v_p(n) - v_p(d).  Arithmetic is plain rational
    arithmetic, so every operation is exact.
  * Hahn series over the rationals with rational exponents: the value is a
    finite support map {exponent: coefficient}, stored as a tuple of
    (exponent pair, coefficient pair) terms sorted by exponent, with no zero
    coefficients.  The valuation is the smallest exponent in the support.
    Sums merge two sorted supports, comparing exponents by
    cross-multiplication.  A general product writes every exponent as an
    integer over the lcm L of both operands' exponent denominators, sums
    and sorts those integers, and maps each key e back exactly as the pair
    (e/g, L/g) with g = gcd(e, L).  Division is exact only by a monomial,
    because the inverse of any other series has infinite support.

Besides add, mul, neg and div, each field has two kernels for callers that
hold a rational weight or a whole polynomial's coefficients: ``times(q, r)``
multiplies a value by a rational pair r (a Hahn series scales its
coefficients only, with no exponent sums), and ``min_valuation(values)`` is
the least valuation over many values, each optionally raised by an integer
weight over a common denominator, compared as integers and built as one
Fraction at the end.

The internal form lives in the Scalar's ``q`` slot.  ``Scalar.payload`` is
a read-only view of it in the documented layout: a Fraction for a p-adic
scalar, and a tuple of sorted (Fraction, Fraction) pairs for a Hahn series.
Fraction remains only at the edges: the view, ``split_constant``, valuations
(a NormValue holds a Fraction) and the parsing of input.

Norms are never represented as floats.  A norm is carried as a NormValue,
which is just the valuation (an exact Fraction, or +infinity for zero);
comparing norms means comparing valuations in reverse.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from typing import Iterable, Union

Rational = Union[int, Fraction]

# a normalized rational n/d: d > 0, gcd(n, d) = 1, zero is (0, 1)
_Q = tuple[int, int]

# a Hahn series' internal form: (exponent, coefficient) terms, sorted by exponent
HahnPayload = tuple[tuple[_Q, _Q], ...]


class HahnDivisionError(ArithmeticError):
    """A Hahn series was divided by a series that is not a monomial.

    The quotient would have infinite support; the caller must restructure
    the computation symbolically instead of dividing.
    """


@dataclass(frozen=True, order=False)
class NormValue:
    """A norm carried exactly, as the valuation of the element.

    ``valuation`` is a Fraction, or None for +infinity (the zero element).
    The ordering implemented here is the valuation ordering with +infinity
    greatest.  Norm comparisons are the reverse: |x| <= |y| exactly when
    x's valuation is >= y's.
    """

    valuation: Fraction | None

    @classmethod
    def of(cls, value: Rational) -> "NormValue":
        return cls(Fraction(value))

    @classmethod
    def infinite(cls) -> "NormValue":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.valuation is None

    def __add__(self, other: "NormValue") -> "NormValue":
        # valuation of a product; +infinity absorbs
        if self.valuation is None or other.valuation is None:
            return NormValue(None)
        return NormValue(self.valuation + other.valuation)

    # > and >= come from Python's reflection of these two; against any other
    # type both sides decline and the comparison raises TypeError
    def __lt__(self, other: "NormValue") -> bool:
        if not isinstance(other, NormValue):
            return NotImplemented
        a, b = self.valuation, other.valuation
        if a is None:
            return False
        return b is None or a < b

    def __le__(self, other: "NormValue") -> bool:
        if not isinstance(other, NormValue):
            return NotImplemented
        a, b = self.valuation, other.valuation
        if b is None:
            return True
        return a is not None and a <= b

    def __str__(self) -> str:
        return "inf" if self.valuation is None else str(self.valuation)

    def __repr__(self) -> str:
        return f"NormValue({self})"


def format_valuation(value: "NormValue | Rational") -> str:
    """Canonical report rendering: 'inf', '3', '-4/3'."""
    if isinstance(value, NormValue):
        return str(value)
    return str(Fraction(value))


# the first 13 primes; as Miller-Rabin bases they decide primality exactly
# for every n below _PRIME_TEST_BOUND (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or above the bound
    where the fixed bases are proven to decide."""
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(f"p = {n} is too large: primality is decided only below "
                         f"{_PRIME_TEST_BOUND}")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_valuation(n: int, p: int) -> int:
    """v_p(n), n != 0: a bit scan for p = 2, else O(log v_p(n)) divisions by p^(2^i)."""
    if p == 2:
        return (n & -n).bit_length() - 1
    # climb p, p^2, p^4, ... while they divide (one division when p does not),
    # then descend through the same powers
    powers: list[int] = []
    v = 0
    q = p
    while True:
        quotient, remainder = divmod(n, q)
        if remainder:
            break
        n = quotient
        v += 1 << len(powers)
        powers.append(q)
        q *= q
    for i in range(len(powers) - 1, -1, -1):
        quotient, remainder = divmod(n, powers[i])
        if not remainder:
            n = quotient
            v += 1 << i
    return v


# ---------------------------------------------------------------------------
# the rational kernel on normalized int pairs; each function follows the
# algorithm of the matching Fraction operation, so results are canonical


def _qof(x: Rational) -> _Q:
    """The pair of an int or a Fraction, read off its numerator and denominator
    without building a Fraction; any other number goes through Fraction first."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return (x.numerator, x.denominator)


def _qadd(a: _Q, b: _Q) -> _Q:
    na, da = a
    nb, db = b
    if da == db:
        # only this branch can cancel to zero, and gcd(0, d) = d gives (0, 1)
        n = na + nb
        g = gcd(n, da)
        return (n, da) if g == 1 else (n // g, da // g)
    g = gcd(da, db)
    if g == 1:
        return (na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    return (t, s * db) if g2 == 1 else (t // g2, s * (db // g2))


def _qneg(a: _Q) -> _Q:
    return (-a[0], a[1])


def _qmul(a: _Q, b: _Q) -> _Q:
    # cross-gcd: cancel each numerator against the other denominator
    na, da = a
    nb, db = b
    g = gcd(na, db)
    if g > 1:
        na //= g
        db //= g
    g = gcd(nb, da)
    if g > 1:
        nb //= g
        da //= g
    return (na * nb, da * db)


def _qdiv(a: _Q, b: _Q) -> _Q:
    na, da = a
    nb, db = b
    if not nb:
        raise ZeroDivisionError("rational division by zero")
    g = gcd(na, nb)
    if g > 1:
        na //= g
        nb //= g
    g = gcd(db, da)
    if g > 1:
        db //= g
        da //= g
    n, d = na * db, nb * da
    # the divisor's sign moves to the numerator
    return (-n, -d) if d < 0 else (n, d)


def _qtext(a: _Q) -> str:
    """The text str(Fraction) gives: '3', '-4/3'."""
    return str(a[0]) if a[1] == 1 else f"{a[0]}/{a[1]}"


def _support(acc: dict[_Q, _Q]) -> HahnPayload:
    """The sorted Hahn form of an {exponent: coefficient} map, zeros dropped.

    Exponents sort as integers over the lcm of their denominators."""
    terms = [term for term in acc.items() if term[1][0]]
    L = lcm(*[e[1] for e, _ in terms])
    return tuple(sorted(terms, key=lambda term: term[0][0] * (L // term[0][1])))


_ZERO = (0, 1)
_ONE = (1, 1)


@dataclass(frozen=True)
class PAdicField:
    """Rationals with the p-adic valuation, normalized so v(p) = 1."""

    p: int

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")

    @property
    def name(self) -> str:
        return f"p={self.p}"

    def zero(self) -> "Scalar":
        return Scalar(self, _ZERO)

    def one(self) -> "Scalar":
        return Scalar(self, _ONE)

    def from_rational(self, q: Rational) -> "Scalar":
        return Scalar(self, _qof(q))

    def uniformizer(self) -> "Scalar":
        return Scalar(self, (self.p, 1))

    @property
    def pi_valuation(self) -> Fraction:
        """v(pi) for the uniformizer pi = p."""
        return Fraction(1)

    # arithmetic on the internal form: one normalized pair
    add = staticmethod(_qadd)
    mul = staticmethod(_qmul)
    times = staticmethod(_qmul)
    neg = staticmethod(_qneg)
    div = staticmethod(_qdiv)

    @staticmethod
    def is_zero(q: _Q) -> bool:
        return not q[0]

    def valuation(self, q: _Q) -> Fraction | None:
        n, d = q
        if not n:
            return None
        return Fraction(_int_valuation(n, self.p) - _int_valuation(d, self.p))

    def min_valuation(self, values: Iterable[_Q], weights: Iterable[int] | None = None,
                      denominator: int = 1) -> Fraction | None:
        """The least v(q) + w / denominator over the values q and their integer
        weights w (0 without weights), compared as integers; None when all are
        zero or there are none."""
        p = self.p
        best = None
        for (n, d), w in zip(values, repeat(0) if weights is None else weights):
            if not n:
                continue
            # n and d are coprime, so p divides at most one of them
            v = (_int_valuation(n, p) if d % p else -_int_valuation(d, p)) * denominator + w
            if best is None or v < best:
                best = v
        return None if best is None else Fraction(best, denominator)

    def to_text(self, q: _Q) -> str:
        return f"{q[0]}/{q[1]}@{self.p}"

    @staticmethod
    def split_constant(q: _Q) -> tuple[Fraction, Fraction | None]:
        """The value as c0 + s, c0 a rational constant and v(s) > 0: (c0, v(s)),
        with None for s = 0.  Every p-adic scalar is a rational constant."""
        return Fraction(*q), None

    @staticmethod
    def _view(q: _Q) -> Fraction:
        return Fraction(*q)

    @staticmethod
    def check_valuation(v: Rational) -> Fraction:
        """v as a Fraction; the value group is Z, so a fractional v is an error."""
        v = Fraction(v)
        if v.denominator != 1:
            raise ValueError(f"valuation {v} is not in the value group Z of the p-adic backend")
        return v

    def element_of_valuation(self, v: Rational) -> "Scalar":
        """Some scalar of the requested valuation; here, a power of p."""
        k = int(self.check_valuation(v))
        return Scalar(self, (self.p ** k, 1) if k >= 0 else (1, self.p ** -k))

    def factorial_valuation(self, m: int) -> int:
        """v_p(m!) by Legendre's formula, the sum of floor(m / p^k)."""
        if m < 0:
            raise ValueError("factorial of a negative integer")
        total = 0
        q = self.p
        while q <= m:
            total += m // q
            q *= self.p
        return total


@dataclass(frozen=True)
class HahnField:
    """Finite-support Hahn series over Q with rational exponents.

    The residue field is Q itself (characteristic zero), so factorials are
    units and the factorial valuation is identically zero.  A product of two
    series that are not monomials is keyed by integers: each exponent n/d
    becomes n * (L/d) over the lcm L of both operands' exponent denominators,
    and each summed key e maps back exactly to the exponent (e/g, L/g) with
    g = gcd(e, L).
    """

    @property
    def name(self) -> str:
        return "hahn"

    def zero(self) -> "Scalar":
        return Scalar(self, ())

    def one(self) -> "Scalar":
        return Scalar(self, ((_ZERO, _ONE),))

    def from_rational(self, q: Rational) -> "Scalar":
        c = _qof(q)
        return Scalar(self, ((_ZERO, c),) if c[0] else ())

    def from_terms(self, terms: Iterable[tuple[Rational, Rational]]) -> "Scalar":
        """Build a series from (exponent, coefficient) pairs in any order."""
        acc: dict[_Q, _Q] = {}
        for exponent, coeff in terms:
            e = _qof(exponent)
            c = _qof(coeff)
            prev = acc.get(e)
            acc[e] = c if prev is None else _qadd(prev, c)
        return Scalar(self, _support(acc))

    def uniformizer(self) -> "Scalar":
        return Scalar(self, ((_ONE, _ONE),))

    @property
    def pi_valuation(self) -> Fraction:
        """v(pi) for the uniformizer pi = t."""
        return Fraction(1)

    # arithmetic on the internal form: sorted (exponent, coefficient) terms
    is_zero = staticmethod(operator.not_)

    @staticmethod
    def add(a: HahnPayload, b: HahnPayload) -> HahnPayload:
        """Merge two sorted supports, summing shared exponents and dropping zeros."""
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ta, tb = a[i], b[j]
            ea, eb = ta[0], tb[0]
            if ea == eb:
                c = _qadd(ta[1], tb[1])
                if c[0]:
                    out.append((ea, c))
                i += 1
                j += 1
            elif ea[0] * eb[1] < eb[0] * ea[1]:  # ea < eb, as denominators are positive
                out.append(ta)
                i += 1
            else:
                out.append(tb)
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return tuple(out)

    @staticmethod
    def mul(a: HahnPayload, b: HahnPayload) -> HahnPayload:
        if len(a) != 1:
            a, b = b, a
        if len(a) == 1:
            # a monomial shifts and scales: the result stays sorted and nonzero
            (e, c), = a
            return tuple((_qadd(e, eb), _qmul(c, cb)) for eb, cb in b)
        if not a or not b:
            return ()
        # integer keys over the common denominator L (class docstring)
        L = lcm(*[e[1] for e, _ in a], *[e[1] for e, _ in b])
        keyed_b = [(n * (L // d), cb) for (n, d), cb in b]
        acc: dict[int, _Q] = {}
        get = acc.get
        for (n, d), ca in a:
            ka = n * (L // d)
            for kb, cb in keyed_b:
                k = ka + kb
                prev = get(k)
                acc[k] = _qmul(ca, cb) if prev is None else _qadd(prev, _qmul(ca, cb))
        out = []
        for k in sorted(acc):
            c = acc[k]
            if c[0]:
                g = gcd(k, L)
                out.append(((k // g, L // g), c))
        return tuple(out)

    @staticmethod
    def times(a: HahnPayload, r: _Q) -> HahnPayload:
        """a times the rational r: the coefficients scale, the exponents stay."""
        if not r[0]:
            return ()
        return tuple((e, _qmul(c, r)) for e, c in a)

    @staticmethod
    def neg(a: HahnPayload) -> HahnPayload:
        return tuple((e, _qneg(c)) for e, c in a)

    @staticmethod
    def div(a: HahnPayload, b: HahnPayload) -> HahnPayload:
        """Exact quotient by a monomial; any other divisor raises HahnDivisionError."""
        if len(b) != 1:
            raise HahnDivisionError("a Hahn series divides exactly only by a monomial")
        (e, c), = b
        shift = _qneg(e)
        return tuple((_qadd(ea, shift), _qdiv(ca, c)) for ea, ca in a)

    @staticmethod
    def valuation(q: HahnPayload) -> Fraction | None:
        if not q:
            return None
        return Fraction(*q[0][0])  # support is sorted, valuation is the least exponent

    @staticmethod
    def min_valuation(values: Iterable[HahnPayload], weights: Iterable[int] | None = None,
                      denominator: int = 1) -> Fraction | None:
        """The least v(q) + w / denominator over the values q and their integer
        weights w (0 without weights), compared as integers; None when all are
        zero or there are none."""
        best = None
        for q, w in zip(values, repeat(0) if weights is None else weights):
            if not q:
                continue
            n, d = q[0][0]  # v(q) + w / denominator, as one integer pair
            e = (n * denominator + w * d, d * denominator)
            # e < best, as denominators are positive
            if best is None or e[0] * best[1] < best[0] * e[1]:
                best = e
        return None if best is None else Fraction(*best)

    @staticmethod
    def to_text(q: HahnPayload) -> str:
        if not q:
            return "0"
        return " + ".join(f"{_qtext(c)}*t^({_qtext(e)})" for e, c in q)

    @staticmethod
    def split_constant(q: HahnPayload) -> tuple[Fraction, Fraction | None]:
        """The value as c0 + s, c0 its t^0 coefficient and v(s) > 0: (c0, v(s)),
        with None for s = 0.  A term of negative exponent makes v(s) < 0, and
        the value is not integral: ValueError."""
        c0 = Fraction(0)
        rest = None
        for e, c in q:
            if e == _ZERO:
                c0 = Fraction(*c)
            elif rest is None:
                rest = e  # the support is sorted, so the first is the least
        if rest is not None and rest[0] < 0:
            raise ValueError(f"{HahnField.to_text(q)} is not integral")
        return c0, None if rest is None else Fraction(*rest)

    @staticmethod
    def _view(q: HahnPayload) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((Fraction(*e), Fraction(*c)) for e, c in q)

    @staticmethod
    def check_valuation(v: Rational) -> Fraction:
        """v as a Fraction; the value group is all of Q."""
        return Fraction(v)

    def element_of_valuation(self, v: Rational) -> "Scalar":
        """t^v."""
        return Scalar(self, ((_qof(self.check_valuation(v)), _ONE),))

    def factorial_valuation(self, m: int) -> int:
        if m < 0:
            raise ValueError("factorial of a negative integer")
        return 0


Field = Union[PAdicField, HahnField]


class Scalar:
    """An exact element of one of the two coefficient fields.

    A record of (field, q), treated as immutable, where q is the field's
    internal form (module docstring); every operation returns a new Scalar
    and delegates the arithmetic to the field.  Equality and hashing read q,
    which is canonical, so they follow value.
    """

    __slots__ = ("field", "q")

    def __init__(self, field: Field, q: _Q | HahnPayload) -> None:
        self.field = field
        self.q = q

    @property
    def payload(self) -> Fraction | tuple[tuple[Fraction, Fraction], ...]:
        """Read-only view of the value: a Fraction for a p-adic scalar, sorted
        (exponent, coefficient) Fraction pairs for a Hahn series."""
        return self.field._view(self.q)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Scalar:
            return NotImplemented
        return self.field == other.field and self.q == other.q

    def __hash__(self) -> int:
        return hash((self.field, self.q))

    def __repr__(self) -> str:
        return f"Scalar({self.field!r}, {self.payload!r})"

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.field.is_zero(self.q)

    def valuation(self) -> NormValue:
        return NormValue(self.field.valuation(self.q))

    # -- arithmetic ------------------------------------------------------

    def _same_field(self, other: "Scalar") -> Field:
        field = self.field
        if other.field is not field and other.field != field:
            raise ValueError(f"mixed-backend arithmetic: {field.name} vs {other.field.name}")
        return field

    def __add__(self, other: "Scalar") -> "Scalar":
        field = self._same_field(other)
        return Scalar(field, field.add(self.q, other.q))

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, self.field.neg(self.q))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        field = self._same_field(other)
        return Scalar(field, field.mul(self.q, other.q))

    def scaled(self, q: Rational) -> "Scalar":
        """Multiplication by a rational constant."""
        return Scalar(self.field, self.field.times(self.q, _qof(q)))

    def div(self, other: "Scalar") -> "Scalar":
        """Exact division; a Hahn divisor must be a monomial (HahnDivisionError)."""
        field = self._same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(field, field.div(self.q, other.q))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self.div(other)

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.field.one().div(self.__pow__(-n))
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        return self.field.to_text(self.q)

    def __str__(self) -> str:
        return self.to_text()


_DENOMINATOR = r"0*[1-9]\d*"  # digits, not all zero
_PADIC_RE = re.compile(rf"^(-?\d+)/({_DENOMINATOR})@(\d+)$")
_HAHN_TERM_RE = re.compile(rf"^(-?\d+(?:/{_DENOMINATOR})?)\*t\^\((-?\d+(?:/{_DENOMINATOR})?)\)$")


def parse_scalar(text: str, field: Field) -> Scalar:
    """Inverse of Scalar.to_text for the given backend; round-trips bit-exactly."""
    text = text.strip()
    if isinstance(field, PAdicField):
        m = _PADIC_RE.match(text)
        if m is None:
            raise ValueError(f"malformed p-adic scalar: {text!r}")
        num, den, p = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if p != field.p:
            raise ValueError(f"scalar {text!r} is written over p={p}, expected p={field.p}")
        return field.from_rational(Fraction(num, den))
    if text == "0":
        return field.zero()
    terms = []
    for chunk in text.split(" + "):
        m = _HAHN_TERM_RE.match(chunk.strip())
        if m is None:
            raise ValueError(f"malformed Hahn term: {chunk!r}")
        terms.append((Fraction(m.group(2)), Fraction(m.group(1))))
    return field.from_terms(terms)


def backend_from_name(name: str) -> Field:
    """Parse a backend tag such as 'p=2' or 'hahn'."""
    name = name.strip().lower()
    if name == "hahn":
        return HahnField()
    m = re.match(r"^p=(\d+)$", name)
    if m is None:
        raise ValueError(f"unknown backend {name!r}; expected 'hahn' or 'p=<prime>'")
    return PAdicField(int(m.group(1)))
