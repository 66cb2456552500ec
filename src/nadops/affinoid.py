"""Sparse polynomials over the exact scalars, with polydisc norms.

A function on a polydisc is represented at truncation level by a sparse
multivariate polynomial: a mapping from exponent tuples to nonzero Scalars.
That makes the Gauss norm (the minimum coefficient valuation) exact, and the
sup norm over any sub-polydisc exact as well: translate x = c + y, and weigh
each coefficient f_gamma of the result by the radii, min over gamma of
v(f_gamma) + sum_i gamma_i r_i.  The radius is a weight, so no element of
valuation r is ever built.

Multi-indices are plain tuples of naturals; the helpers here are the only
place componentwise order, factorials and binomials are spelled out.

The one domain type is the Polydisc.  A Hole is not a domain: it is the
parameter of claim 1's disc-with-a-hole check, which takes no sup norm
over the holed disc.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .scalars import Field, NormValue, Rational, Scalar, parse_scalar

MultiIndex = tuple[int, ...]


# ---------------------------------------------------------------------------
# multi-index helpers


def mi_total(a: MultiIndex) -> int:
    return sum(a)

def mi_le(a: MultiIndex, b: MultiIndex) -> bool:
    """Componentwise order (the order divided powers are indexed by)."""
    return all(x <= y for x, y in zip(a, b))

def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(map(operator.add, a, b))

def mi_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    out = tuple(x - y for x, y in zip(a, b))
    if any(x < 0 for x in out):
        raise ValueError(f"multi-index subtraction underflow: {a} - {b}")
    return out

def mi_factorial(a: MultiIndex) -> int:
    out = 1
    for x in a:
        out *= math.factorial(x)
    return out

def mi_binomial(a: MultiIndex, b: MultiIndex) -> int:
    """Product of componentwise binomials; zero unless b <= a."""
    out = 1
    for x, y in zip(a, b):
        if y > x:
            return 0
        out *= math.comb(x, y)
    return out

def mi_falling(b: MultiIndex, a: MultiIndex) -> int:
    """prod b_i! / (b_i - a_i)!, the coefficient of a plain derivative; zero unless a <= b."""
    out = 1
    for x, y in zip(b, a):
        if y > x:
            return 0
        out *= math.perm(x, y)
    return out

def mi_box(a: MultiIndex) -> Iterator[MultiIndex]:
    """All indices <= a componentwise."""
    return itertools.product(*(range(x + 1) for x in a))

def mi_with_total(dim: int, total: int) -> Iterator[MultiIndex]:
    """All indices with |a| = total in lexicographic order, by stars and bars."""
    if dim == 1:
        yield (total,)
        return
    slots = total + dim - 1
    for bars in itertools.combinations(range(slots), dim - 1):
        index, previous = [], -1
        for bar in bars:
            index.append(bar - previous - 1)
            previous = bar
        index.append(slots - previous - 1)
        yield tuple(index)

def mi_up_to_total(dim: int, cap: int) -> Iterator[MultiIndex]:
    """All indices with |a| <= cap, in graded order."""
    for total in range(cap + 1):
        yield from mi_with_total(dim, total)


# ---------------------------------------------------------------------------
# sparse polynomials


@dataclass(frozen=True, eq=False)
class SparsePoly:
    """A polynomial with Scalar coefficients, keyed by exponent tuple.

    Invariant: every stored coefficient is nonzero, every key has length
    ``dim``, and every coefficient lives in ``field``.  Instances are treated
    as immutable; all operations return new objects.
    """

    field: Field
    dim: int
    coeffs: Mapping[MultiIndex, Scalar]

    @classmethod
    def make(cls, field: Field, dim: int,
             items: Mapping[MultiIndex, Scalar] | Iterable[tuple[MultiIndex, Scalar]]) -> "SparsePoly":
        pairs = items.items() if isinstance(items, Mapping) else items

        def checked() -> Iterator[tuple[MultiIndex, Scalar]]:
            for exponent, coeff in pairs:
                exponent = tuple(exponent)
                if len(exponent) != dim or any(e < 0 for e in exponent):
                    raise ValueError(f"bad exponent {exponent} for dimension {dim}")
                if coeff.field != field:
                    raise ValueError("coefficient from a different backend")
                yield exponent, coeff

        return _combine(field, dim, [(checked(), None, None)])

    @classmethod
    def zero(cls, field: Field, dim: int) -> "SparsePoly":
        return cls(field, dim, {})

    @classmethod
    def constant(cls, field: Field, dim: int, value: Scalar | Rational) -> "SparsePoly":
        if not isinstance(value, Scalar):
            value = field.from_rational(value)
        return cls.make(field, dim, {(0,) * dim: value})

    @classmethod
    def monomial(cls, field: Field, dim: int, exponent: MultiIndex,
                 value: Scalar | Rational = 1) -> "SparsePoly":
        if not isinstance(value, Scalar):
            value = field.from_rational(value)
        return cls.make(field, dim, {tuple(exponent): value})

    @classmethod
    def variable(cls, field: Field, dim: int, i: int) -> "SparsePoly":
        exponent = tuple(1 if j == i else 0 for j in range(dim))
        return cls.monomial(field, dim, exponent)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((mi_total(e) for e in self.coeffs), default=-1)

    def coefficient(self, exponent: MultiIndex) -> Scalar:
        return self.coeffs.get(tuple(exponent), self.field.zero())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (self.field, self.dim, dict(self.coeffs)) == (other.field, other.dim, dict(other.coeffs))

    def _check_compatible(self, other: "SparsePoly") -> None:
        if self.field != other.field or self.dim != other.dim:
            raise ValueError("polynomials live over different backends or dimensions")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        return _combine(self.field, self.dim,
                        [(self.coeffs.items(), None, None), (other.coeffs.items(), None, None)])

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.field, self.dim, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        terms = self.coeffs.items()
        return _combine(self.field, self.dim,
                        [(terms, coeff.q, exponent) for exponent, coeff in other.coeffs.items()])

    def scale(self, value: Scalar | Rational) -> "SparsePoly":
        if not isinstance(value, Scalar):
            value = self.field.from_rational(value)
        _check_field(self.field, value)
        return _combine(self.field, self.dim, [(self.coeffs.items(), value.q, None)])

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = SparsePoly.constant(self.field, self.dim, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def derivative(self, order: MultiIndex, divided: bool = False) -> "SparsePoly":
        """Plain d^order, or the divided power d^order / order! when asked.

        Exact in characteristic zero either way: the coefficients picked up
        are falling factorials, resp. binomials.
        """
        field = self.field
        weight, times = (mi_binomial if divided else mi_falling), field.times
        acc: dict[MultiIndex, Scalar] = {}
        for exponent, coeff in self.coeffs.items():
            k = weight(exponent, order)
            if k:  # nonzero only when order <= exponent, so the gap cannot underflow
                acc[tuple(map(operator.sub, exponent, order))] = Scalar(field, times(coeff.q, (k, 1)))
        return SparsePoly(field, self.dim, acc)

    # -- norms ---------------------------------------------------------------

    def gauss_valuation(self) -> NormValue:
        """Valuation form of the Gauss norm: min coefficient valuation.

        Multiplicative, because both backends have an integral (in fact
        field) residue ring.
        """
        return NormValue(self.field.min_valuation([c.q for c in self.coeffs.values()]))

    def weighted_valuation(self, weights: tuple[int, ...], denominator: int) -> NormValue:
        """min over gamma of v(f_gamma) + sum_i gamma_i w_i / denominator: the sup
        valuation of f on the polydisc about the origin of radius valuations
        r_i = w_i / denominator (Polydisc.weights), since f(sigma y) with
        v(sigma_i) = r_i has the coefficients f_gamma sigma^gamma."""
        return NormValue(self.field.min_valuation(
            [c.q for c in self.coeffs.values()],
            [sum(map(operator.mul, exponent, weights)) for exponent in self.coeffs],
            denominator))

    # -- substitution ----------------------------------------------------------

    def substitute_affine(self, center: tuple[Scalar, ...], scales: tuple[Scalar, ...]) -> "SparsePoly":
        """Exact expansion of f(c_1 + s_1 y_1, ..., c_d + s_d y_d).

        One Horner pass per variable, so no binomial tables are needed and
        integer coefficient growth stays linear in the degree.
        """
        if len(center) != self.dim or len(scales) != self.dim:
            raise ValueError("center/scale arity does not match dimension")
        for value in (*center, *scales):
            _check_field(self.field, value)
        out = self
        for i in range(self.dim):
            out = out._substitute_one(i, center[i], scales[i])
        return out

    def _substitute_one(self, i: int, c: Scalar, s: Scalar) -> "SparsePoly":
        if self.is_zero:
            return self
        # regroup as a polynomial in variable i with coefficients free of it
        layers: dict[int, list[tuple[MultiIndex, Scalar]]] = {}
        for exponent, coeff in self.coeffs.items():
            flat = exponent[:i] + (0,) + exponent[i + 1:]
            layers.setdefault(exponent[i], []).append((flat, coeff))
        unit = tuple(int(j == i) for j in range(self.dim))
        acc = SparsePoly.zero(self.field, self.dim)
        for k in range(max(layers), -1, -1):
            # Horner step: acc * (c + s y_i) + layer k
            terms = acc.coeffs.items()
            parts = [(terms, s.q, unit), (layers.get(k, ()), None, None)]
            if not c.is_zero:
                parts.append((terms, c.q, None))
            acc = _combine(self.field, self.dim, parts)
        return acc


def _check_field(field: Field, value: Scalar) -> None:
    if value.field is not field and value.field != field:
        raise ValueError(f"mixed-backend arithmetic: {field.name} vs {value.field.name}")


# (terms, factor, shift); the factor is a value in the field's internal form,
# or with rational=True a normalized int pair
_Part = tuple[Iterable[tuple[MultiIndex, Scalar]], object, MultiIndex | None]


def _combine(field: Field, dim: int, parts: Iterable[_Part], rational: bool = False) -> SparsePoly:
    """The polynomial sum of factor * x^shift * terms over (terms, factor, shift) parts.

    ``terms`` is any iterable of (exponent, coefficient) pairs over ``field``,
    such as ``poly.coeffs.items()``; a None factor stands for 1 and a None
    shift for 0.  A factor is a value in the field's internal form (a
    Scalar's ``q``, whose field the caller has checked), or, when
    ``rational`` is set, a normalized int pair applied through the field's
    ``times``.  Every coefficient is summed into one dict of the field's
    internal values, and zeros are dropped once at the end, so a cancellation
    anywhere in the sum leaves no key behind.
    """
    add, mul = field.add, (field.times if rational else field.mul)
    acc: dict = {}
    get = acc.get
    for terms, factor, shift in parts:
        for exponent, coeff in terms:
            value = coeff.q if factor is None else mul(coeff.q, factor)
            if shift is not None:
                exponent = mi_add(exponent, shift)
            prev = get(exponent)
            acc[exponent] = value if prev is None else add(prev, value)
    is_zero = field.is_zero
    return SparsePoly(field, dim, {exponent: Scalar(field, value)
                                   for exponent, value in acc.items() if not is_zero(value)})


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class Polydisc:
    """Closed polydisc inside the unit polydisc: center c, radii |pi|-powers.

    Radii are stored as plain radius valuations (nonnegative rationals); the
    radius itself is the norm of any element of that valuation.  Each radius
    valuation must lie in the backend's value group: the p-adic value group
    is Z, so fractional radii are only meaningful on the Hahn backend.
    """

    center: tuple[Scalar, ...]
    radius_valuations: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.center) != len(self.radius_valuations):
            raise ValueError("center and radii arity mismatch")
        for c in self.center:
            if c.valuation() < NormValue.of(0):
                raise ValueError("polydisc center must be integral (valuation >= 0)")
        for r in self.radius_valuations:
            if r < 0:
                raise ValueError("radius valuation must be >= 0 (radius <= 1)")
            self.field.check_valuation(r)

    @cached_property
    def weights(self) -> tuple[tuple[int, ...], int]:
        """The radius valuations over their common denominator L: (w, L) with
        r_i = w_i / L, the arguments of SparsePoly.weighted_valuation."""
        L = math.lcm(*(r.denominator for r in self.radius_valuations))
        return tuple(r.numerator * (L // r.denominator) for r in self.radius_valuations), L

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def field(self) -> Field:
        return self.center[0].field


def unit_polydisc(field: Field, dim: int) -> Polydisc:
    return Polydisc(tuple(field.zero() for _ in range(dim)),
                    tuple(Fraction(0) for _ in range(dim)))


@dataclass(frozen=True)
class Hole:
    """The open hole |x - center| < |tau|, with v(tau) = radius_valuation."""

    center: Scalar
    radius_valuation: Fraction

    def __post_init__(self) -> None:
        if self.center.valuation() < NormValue.of(0):
            raise ValueError("hole center must be integral (valuation >= 0)")
        if self.radius_valuation < 0:
            raise ValueError("hole radius valuation must be >= 0")


def rescale_to_subdisc(f: SparsePoly, center: tuple[Scalar, ...],
                       radius_valuations: tuple[Fraction, ...]) -> SparsePoly:
    """g(y) = f(c + sigma*y) with v(sigma_i) equal to the radius valuation.

    Exact; the unit polydisc in y corresponds to the requested subdisc in x,
    so gauss(g) is the sup norm of f there.
    """
    field = f.field
    for c in center:
        if c.valuation() < NormValue.of(0):
            raise ValueError("subdisc center must be integral")
    scales = []
    for r in radius_valuations:
        if r < 0:
            raise ValueError("radius valuation must be >= 0")
        scales.append(field.element_of_valuation(r))
    return f.substitute_affine(tuple(center), tuple(scales))


def sup_norm(f: SparsePoly, domain: Polydisc) -> NormValue:
    """Exact sup norm of f over the polydisc, in valuation form: translate
    to its center and weigh each coefficient by the radii."""
    if f.dim != domain.dim:
        raise ValueError("dimension mismatch between function and domain")
    if f.field != domain.field:
        raise ValueError("function and domain use different backends")
    moved = f.substitute_affine(domain.center, (f.field.one(),) * f.dim)
    return moved.weighted_valuation(*domain.weights)


# ---------------------------------------------------------------------------
# text format: sorted "(<scalar>) * x1^e1 ... xd^ed" terms


def poly_to_text(f: SparsePoly) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for exponent in sorted(f.coeffs):
        body = " ".join(f"x{i + 1}^{e}" for i, e in enumerate(exponent))
        parts.append(f"({f.coeffs[exponent].to_text()}) * {body}")
    return " + ".join(parts)


def _split_top_level(text: str) -> list[str]:
    """Split on ' + ' outside parentheses (Hahn scalars contain ' + ' inside)."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", i):
            parts.append(text[start:i])
            i += 3
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def poly_from_text(text: str, field: Field, dim: int) -> SparsePoly:
    text = text.strip()
    if text == "0":
        return SparsePoly.zero(field, dim)
    items: list[tuple[MultiIndex, Scalar]] = []
    for term in _split_top_level(text):
        term = term.strip()
        if not term.startswith("("):
            raise ValueError(f"malformed polynomial term: {term!r}")
        depth, i = 0, 0
        for i, ch in enumerate(term):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    break
        scalar = parse_scalar(term[1:i], field)
        rest = term[i + 1:].strip()
        if not rest.startswith("*"):
            raise ValueError(f"malformed polynomial term: {term!r}")
        exponent = [0] * dim
        tokens = rest[1:].split()
        if len(tokens) != dim:
            raise ValueError(f"term {term!r} does not name all {dim} variables")
        for j, token in enumerate(tokens):
            name, _, power = token.partition("^")
            if name != f"x{j + 1}" or not power.lstrip("-").isdigit():
                raise ValueError(f"malformed variable token {token!r}, expected x{j + 1}^<nat>")
            exponent[j] = int(power)
        items.append((tuple(exponent), scalar))
    return SparsePoly.make(field, dim, items)


# ---------------------------------------------------------------------------
# domain descriptors (JSON-shaped dicts)


def domain_to_json(domain: Polydisc) -> dict:
    return {
        "type": "polydisc",
        "center": [c.to_text() for c in domain.center],
        "radii": [str(r) for r in domain.radius_valuations],
    }


_RATIONAL_TEXT = re.compile(r"-?\d+(?:/\d+)?")


def _parse_rational(text: str) -> Fraction | None:
    """The rational that text such as '2' or '-3/2' names, or None.

    Only this grammar reaches Fraction, which also reads exponent text:
    Fraction('1e10000000') alone takes seconds, and larger exponents longer.
    """
    if _RATIONAL_TEXT.fullmatch(text.strip()):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):  # a zero denominator, or too many digits
            pass
    return None


def _json_rational(value: object, what: str) -> Fraction:
    """A rational given as a JSON integer or as text such as '2' or '-3/2'."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    q = _parse_rational(value) if isinstance(value, str) else None
    if q is None:
        raise ValueError(f"{what} must be a rational such as 2 or -3/2, got {value!r}")
    return q


def _json_scalar(value: object, field: Field) -> Scalar:
    if not isinstance(value, str):
        raise ValueError(f"a center must be scalar text, got {value!r}")
    return parse_scalar(value, field)


def _json_list(obj: dict, key: str) -> list:
    value = obj.get(key)
    if not isinstance(value, list):
        raise ValueError(f"a polydisc descriptor needs a list under {key!r}, got {value!r}")
    return value


def domain_from_json(obj: object, field: Field) -> Polydisc:
    """Inverse of domain_to_json; a malformed descriptor raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"a domain descriptor must be a JSON object, got {obj!r}")
    kind = obj.get("type")
    if kind != "polydisc":
        raise ValueError(f"unknown domain type {kind!r}, expected 'polydisc'")
    center = tuple(_json_scalar(c, field) for c in _json_list(obj, "center"))
    radii = tuple(_json_rational(r, "a radius valuation") for r in _json_list(obj, "radii"))
    return Polydisc(center, radii)
