"""Exact scalars for two non-Archimedean coefficient fields.

Two backends share one Scalar type:

  * p-adic rationals: the payload is a Fraction, and the valuation is the
    p-adic valuation v_p(num) - v_p(den).  Arithmetic is plain rational
    arithmetic, so every operation is exact.
  * Hahn series over the rationals with rational exponents: the payload is a
    finite support map {exponent: coefficient}, stored as a sorted tuple of
    (Fraction, Fraction) pairs with no zero coefficients.  The valuation is
    the smallest exponent in the support.

Norms are never represented as floats.  A norm is carried as a NormValue,
which is just the valuation (an exact Fraction, or +infinity for zero);
comparing norms means comparing valuations in reverse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rational = Union[int, Fraction]

HahnPayload = tuple[tuple[Fraction, Fraction], ...]


class HahnDivisionError(ArithmeticError):
    """Hahn quotient did not terminate within the exponent cutoff.

    Raised when the divisor is not a monomial times a unit with an exactly
    computable inverse; the caller must restructure the computation
    symbolically instead of dividing.
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

    def __lt__(self, other: "NormValue") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "NormValue") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "NormValue") -> bool:
        return other < self

    def __ge__(self, other: "NormValue") -> bool:
        return other <= self

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

    def _valuation(self, payload: Fraction) -> Fraction | None:
        if payload == 0:
            return None
        return Fraction(_int_valuation(payload.numerator, self.p)
                        - _int_valuation(payload.denominator, self.p))

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

    def factorial_rate(self) -> Fraction:
        """Slope of the factorial valuation bound: v(m!) <= m * rate."""
        return Fraction(1, self.p - 1)

    def residue(self, x: "Scalar") -> int:
        """The image of an integral scalar in Z/p, as an int in [0, p)."""
        if x.valuation() < NormValue.of(0):
            raise ValueError("residue requires valuation >= 0")
        q: Fraction = x.payload
        return q.numerator * pow(q.denominator, -1, self.p) % self.p


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

    @staticmethod
    def _valuation(payload: HahnPayload) -> Fraction | None:
        if not payload:
            return None
        return payload[0][0]  # support is sorted, valuation is the least exponent

    def element_of_valuation(self, v: Rational) -> "Scalar":
        """t^v; the value group is all of Q."""
        return Scalar(self, ((Fraction(v), Fraction(1)),))

    def factorial_valuation(self, m: int) -> Fraction:
        if m < 0:
            raise ValueError("factorial of a negative integer")
        return Fraction(0)

    def factorial_rate(self) -> Fraction:
        return Fraction(0)

    def residue(self, x: "Scalar") -> Fraction:
        """The constant coefficient of an integral series, in Q."""
        if x.valuation() < NormValue.of(0):
            raise ValueError("residue requires valuation >= 0")
        for exponent, coeff in x.payload:
            if exponent == 0:
                return coeff
        return Fraction(0)


Field = Union[PAdicField, HahnField]

# Exact Hahn division is a search; quotients longer than this many terms are
# rejected unless the caller raises the cutoff explicitly.
DEFAULT_DIVISION_CUTOFF = 64


@dataclass(frozen=True)
class Scalar:
    """An exact element of one of the two coefficient fields."""

    field: Field
    payload: Fraction | HahnPayload

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.payload == 0 if isinstance(self.payload, Fraction) else not self.payload

    def valuation(self) -> NormValue:
        if isinstance(self.payload, Fraction):
            return NormValue(self.field._valuation(self.payload))
        return NormValue(HahnField._valuation(self.payload))

    # -- arithmetic ------------------------------------------------------

    def _check_same_field(self, other: "Scalar") -> None:
        if self.field != other.field:
            raise ValueError(f"mixed-backend arithmetic: {self.field.name} vs {other.field.name}")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check_same_field(other)
        if isinstance(self.payload, Fraction):
            return Scalar(self.field, self.payload + other.payload)
        return Scalar(self.field, _normalize_hahn(list(self.payload) + list(other.payload)))

    def __neg__(self) -> "Scalar":
        if isinstance(self.payload, Fraction):
            return Scalar(self.field, -self.payload)
        return Scalar(self.field, tuple((e, -c) for e, c in self.payload))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check_same_field(other)
        if isinstance(self.payload, Fraction):
            return Scalar(self.field, self.payload * other.payload)
        a, b = self.payload, other.payload
        if len(a) != 1:
            a, b = b, a
        if len(a) == 1:
            # a monomial shifts and scales: the result stays sorted and nonzero
            (e, c), = a
            return Scalar(self.field, tuple((e + eb, c * cb) for eb, cb in b))
        terms = [(ea + eb, ca * cb) for ea, ca in self.payload for eb, cb in other.payload]
        return Scalar(self.field, _normalize_hahn(terms))

    def scaled(self, q: Rational) -> "Scalar":
        """Multiplication by a rational constant."""
        return self * self.field.from_rational(q)

    def div(self, other: "Scalar", exponent_cutoff: Rational = DEFAULT_DIVISION_CUTOFF) -> "Scalar":
        """Exact division.

        p-adic scalars divide exactly.  A Hahn quotient is computed term by
        term from the bottom of the support; it is returned only if the
        remainder reaches zero before the quotient support stretches more
        than exponent_cutoff past v(self) - v(other), otherwise
        HahnDivisionError is raised.
        """
        self._check_same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        if isinstance(self.payload, Fraction):
            return Scalar(self.field, self.payload / other.payload)
        remainder = dict(self.payload)
        divisor = other.payload
        lead_exp, lead_coeff = divisor[0]
        quotient: list[tuple[Fraction, Fraction]] = []
        limit = None
        while remainder:
            low = min(remainder)
            exp = low - lead_exp
            if limit is None:
                limit = exp + Fraction(exponent_cutoff)
            elif exp > limit:
                raise HahnDivisionError(
                    f"quotient support exceeded the exponent cutoff {Fraction(exponent_cutoff)}"
                )
            coeff = remainder[low] / lead_coeff
            quotient.append((exp, coeff))
            for d_exp, d_coeff in divisor:
                key = exp + d_exp
                value = remainder.get(key, Fraction(0)) - coeff * d_coeff
                if value == 0:
                    remainder.pop(key, None)
                else:
                    remainder[key] = value
        return Scalar(self.field, tuple(quotient))

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
        if isinstance(self.payload, Fraction):
            return f"{self.payload.numerator}/{self.payload.denominator}@{self.field.p}"
        if not self.payload:
            return "0"
        return " + ".join(f"{c}*t^({e})" for e, c in self.payload)

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
