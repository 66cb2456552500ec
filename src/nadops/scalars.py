"""Exact scalars for two non-Archimedean coefficient fields.

A Scalar is a record of a field and a payload.  Each field owns the
arithmetic on its payloads (add, mul, neg, div, is_zero, valuation,
to_text), so a Scalar only checks that both operands share a field and
delegates.  The two fields:

  * p-adic rationals: the payload is a Fraction, and the valuation is the
    p-adic valuation v_p(num) - v_p(den).  Arithmetic is plain rational
    arithmetic, so every operation is exact.
  * Hahn series over the rationals with rational exponents: the payload is a
    finite support map {exponent: coefficient}, stored as a sorted tuple of
    (Fraction, Fraction) pairs with no zero coefficients.  The valuation is
    the smallest exponent in the support.  Sums merge two sorted payloads;
    division is exact only by a monomial, because the inverse of any other
    series has infinite support.

Norms are never represented as floats.  A norm is carried as a NormValue,
which is just the valuation (an exact Fraction, or +infinity for zero);
comparing norms means comparing valuations in reverse.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rational = Union[int, Fraction]

HahnPayload = tuple[tuple[Fraction, Fraction], ...]


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

    def _key(self) -> tuple[int, Fraction]:
        return (1, Fraction(0)) if self.valuation is None else (0, self.valuation)

    # > and >= come from Python's reflection of these two; against any other
    # type both sides decline and the comparison raises TypeError
    def __lt__(self, other: "NormValue") -> bool:
        if not isinstance(other, NormValue):
            return NotImplemented
        return self._key() < other._key()

    def __le__(self, other: "NormValue") -> bool:
        if not isinstance(other, NormValue):
            return NotImplemented
        return self._key() <= other._key()

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


def _normalize_hahn(terms: Iterable[tuple[Rational, Rational]]) -> HahnPayload:
    """Payload of unsorted (exponent, coefficient) pairs, e.g. parsed text."""
    acc: dict[Fraction, Fraction] = {}
    for exponent, coeff in terms:
        e, c = Fraction(exponent), Fraction(coeff)
        c = acc.get(e, Fraction(0)) + c
        if c == 0:
            acc.pop(e, None)
        else:
            acc[e] = c
    return tuple(sorted(acc.items()))


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
        return Scalar(self, Fraction(0))

    def one(self) -> "Scalar":
        return Scalar(self, Fraction(1))

    def from_rational(self, q: Rational) -> "Scalar":
        return Scalar(self, Fraction(q))

    def uniformizer(self) -> "Scalar":
        return Scalar(self, Fraction(self.p))

    @property
    def pi_valuation(self) -> Fraction:
        """v(pi) for the uniformizer pi = p."""
        return Fraction(1)

    # payload arithmetic: payloads are Fractions
    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)
    div = staticmethod(operator.truediv)
    is_zero = staticmethod(operator.not_)

    def valuation(self, payload: Fraction) -> Fraction | None:
        if payload == 0:
            return None
        return Fraction(_int_valuation(payload.numerator, self.p)
                        - _int_valuation(payload.denominator, self.p))

    def to_text(self, payload: Fraction) -> str:
        return f"{payload.numerator}/{payload.denominator}@{self.p}"

    @staticmethod
    def as_rational(payload: Fraction) -> Fraction:
        """The payload as a plain rational constant; every p-adic scalar is one."""
        return payload

    def element_of_valuation(self, v: Rational) -> "Scalar":
        """Some scalar of the requested valuation; here, a power of p.

        The value group is Z, so a fractional request is an error.
        """
        v = Fraction(v)
        if v.denominator != 1:
            raise ValueError(f"valuation {v} is not in the value group Z of the p-adic backend")
        return Scalar(self, Fraction(self.p) ** int(v))

    def factorial_valuation(self, m: int) -> Fraction:
        """v_p(m!) by summing floor(m / p^k); bounded by m/(p-1)."""
        if m < 0:
            raise ValueError("factorial of a negative integer")
        total = 0
        q = self.p
        while q <= m:
            total += m // q
            q *= self.p
        result = Fraction(total)
        if result > Fraction(m, self.p - 1):
            raise ArithmeticError(f"v_p({m}!) = {result} exceeds the Legendre bound {m}/(p-1)")
        return result


@dataclass(frozen=True)
class HahnField:
    """Finite-support Hahn series over Q with rational exponents.

    The residue field is Q itself (characteristic zero), so factorials are
    units and the factorial valuation is identically zero.
    """

    @property
    def name(self) -> str:
        return "hahn"

    def zero(self) -> "Scalar":
        return Scalar(self, ())

    def one(self) -> "Scalar":
        return Scalar(self, ((Fraction(0), Fraction(1)),))

    def from_rational(self, q: Rational) -> "Scalar":
        q = Fraction(q)
        return Scalar(self, () if q == 0 else ((Fraction(0), q),))

    def from_terms(self, terms: Iterable[tuple[Rational, Rational]]) -> "Scalar":
        """Build a series from (exponent, coefficient) pairs."""
        return Scalar(self, _normalize_hahn(terms))

    def uniformizer(self) -> "Scalar":
        return Scalar(self, ((Fraction(1), Fraction(1)),))

    @property
    def pi_valuation(self) -> Fraction:
        """v(pi) for the uniformizer pi = t."""
        return Fraction(1)

    # payload arithmetic: payloads are sorted (exponent, coefficient) tuples
    is_zero = staticmethod(operator.not_)

    @staticmethod
    def add(a: HahnPayload, b: HahnPayload) -> HahnPayload:
        """Merge two sorted supports, summing shared exponents and dropping zeros."""
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ea, ca = a[i]
            eb, cb = b[j]
            if ea < eb:
                out.append(a[i])
                i += 1
            elif eb < ea:
                out.append(b[j])
                j += 1
            else:
                c = ca + cb
                if c:
                    out.append((ea, c))
                i += 1
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
            return tuple((e + eb, c * cb) for eb, cb in b)
        acc: dict[Fraction, Fraction] = {}
        for ea, ca in a:
            for eb, cb in b:
                e = ea + eb
                prev = acc.get(e)
                acc[e] = ca * cb if prev is None else prev + ca * cb
        return tuple(sorted(term for term in acc.items() if term[1]))

    @staticmethod
    def neg(a: HahnPayload) -> HahnPayload:
        return tuple((e, -c) for e, c in a)

    @staticmethod
    def div(a: HahnPayload, b: HahnPayload) -> HahnPayload:
        """Exact quotient by a monomial; any other divisor raises HahnDivisionError."""
        if len(b) != 1:
            raise HahnDivisionError("a Hahn series divides exactly only by a monomial")
        (e, c), = b
        return tuple((ea - e, ca / c) for ea, ca in a)

    @staticmethod
    def valuation(payload: HahnPayload) -> Fraction | None:
        if not payload:
            return None
        return payload[0][0]  # support is sorted, valuation is the least exponent

    @staticmethod
    def to_text(payload: HahnPayload) -> str:
        if not payload:
            return "0"
        return " + ".join(f"{c}*t^({e})" for e, c in payload)

    @staticmethod
    def as_rational(payload: HahnPayload) -> Fraction | None:
        """The payload as a plain rational constant, or None for a real series."""
        if not payload:
            return Fraction(0)
        if len(payload) == 1 and payload[0][0] == 0:
            return payload[0][1]
        return None

    def element_of_valuation(self, v: Rational) -> "Scalar":
        """t^v; the value group is all of Q."""
        return Scalar(self, ((Fraction(v), Fraction(1)),))

    def factorial_valuation(self, m: int) -> Fraction:
        if m < 0:
            raise ValueError("factorial of a negative integer")
        return Fraction(0)


Field = Union[PAdicField, HahnField]


class Scalar:
    """An exact element of one of the two coefficient fields.

    A record of (field, payload), treated as immutable; every operation
    returns a new Scalar and delegates the payload arithmetic to the field.
    """

    __slots__ = ("field", "payload")

    def __init__(self, field: Field, payload: Fraction | HahnPayload) -> None:
        self.field = field
        self.payload = payload

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Scalar:
            return NotImplemented
        return self.field == other.field and self.payload == other.payload

    def __hash__(self) -> int:
        return hash((self.field, self.payload))

    def __repr__(self) -> str:
        return f"Scalar({self.field!r}, {self.payload!r})"

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.field.is_zero(self.payload)

    def valuation(self) -> NormValue:
        return NormValue(self.field.valuation(self.payload))

    # -- arithmetic ------------------------------------------------------

    def _same_field(self, other: "Scalar") -> Field:
        field = self.field
        if other.field is not field and other.field != field:
            raise ValueError(f"mixed-backend arithmetic: {field.name} vs {other.field.name}")
        return field

    def __add__(self, other: "Scalar") -> "Scalar":
        field = self._same_field(other)
        return Scalar(field, field.add(self.payload, other.payload))

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, self.field.neg(self.payload))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        field = self._same_field(other)
        return Scalar(field, field.mul(self.payload, other.payload))

    def scaled(self, q: Rational) -> "Scalar":
        """Multiplication by a rational constant."""
        return self * self.field.from_rational(q)

    def div(self, other: "Scalar") -> "Scalar":
        """Exact division; a Hahn divisor must be a monomial (HahnDivisionError)."""
        field = self._same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(field, field.div(self.payload, other.payload))

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
        return self.field.to_text(self.payload)

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
        return Scalar(field, Fraction(num, den))
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
