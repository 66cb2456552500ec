"""Finite-order differential operators, symbol extraction, and norm brackets.

An operator is a finite sum of terms a_alpha * d^alpha (or divided powers
d^(alpha) = d^alpha / alpha!) with sparse polynomial coefficients, truncated
at a stated order.  Everything here is exact:

  * apply/compose realize the Weyl-algebra action and are tied together by
    the contract apply(compose(P, Q), f) == apply(P, apply(Q, f));
  * symbol_coefficient recovers the coefficient family of a black-box
    endomorphism from its values on monomials, and roundtrip_report checks
    that recovery is exact on a concrete operator;
  * the norm bracket computes the operator norm on a polydisc from the
    monomial images and from the coefficients, and the two sides are equal:
    in the unit polydisc's coordinates, alpha! b_alpha is an integer
    combination of the images P y^beta with |beta| <= |alpha|, so the
    coefficient norm and the norm as an endomorphism are one number; both
    sides are read after one translation, with the radii as weights;
  * the decay report reads one sup valuation per coefficient on a small
    subdisc, and takes the operator norm there from those same valuations.

Every weight in these sums is an integer or a normalized int pair (n, d):
C(alpha, gamma), a falling factorial, or C(alpha, beta) (-1)^|gap| / alpha!
reduced by one gcd.  The sums go through affinoid's one summing kernel,
which multiplies such a weight straight into each coefficient's internal
value with the field's ``times`` (a Hahn series scales its coefficients
only), so no Fraction, Scalar or SparsePoly is built for a single term.
compose computes the derivative of each (beta, gamma) once and reuses it
for every alpha; (x - c)^beta is the direct product of one binomial row
per coordinate.

Rapid decay of a coefficient family (a_alpha / pi^{r|alpha|} -> 0 for every
natural r) can never be concluded from finitely many queries, so the
classifier returns "decreasing-witnessed" only from a structured valuation
lower bound, and "non-decreasing-witnessed" only from an explicit growing
witness sequence; everything else is "inconclusive".
"""

from __future__ import annotations

import itertools
import operator
import random
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import comb, gcd

from .affinoid import (
    MultiIndex,
    Polydisc,
    SparsePoly,
    _combine,
    mi_binomial,
    mi_box,
    mi_factorial,
    mi_falling,
    mi_le,
    mi_sub,
    mi_total,
    mi_up_to_total,
    mi_with_total,
    poly_from_text,
    poly_to_text,
    sup_norm,
)
from .scalars import Field, NormValue, PAdicField, Rational, Scalar, backend_from_name, format_valuation

DECREASING_WITNESSED = "decreasing-witnessed"
NON_DECREASING_WITNESSED = "non-decreasing-witnessed"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# operators


@dataclass(frozen=True, eq=False)
class DiffOperator:
    """A truncated differential operator with polynomial coefficients.

    ``coeffs`` maps derivative multi-indices to nonzero coefficient
    polynomials; every index satisfies |alpha| <= order.  When ``divided``
    is set, the index alpha multiplies the divided power d^alpha / alpha!.
    """

    field: Field
    dim: int
    coeffs: Mapping[MultiIndex, SparsePoly]
    order: int
    divided: bool = False

    @classmethod
    def make(cls, field: Field, dim: int,
             coeffs: Mapping[MultiIndex, SparsePoly],
             order: int | None = None, divided: bool = False) -> "DiffOperator":
        clean: dict[MultiIndex, SparsePoly] = {}
        for alpha, poly in coeffs.items():
            alpha = tuple(alpha)
            if len(alpha) != dim or any(a < 0 for a in alpha):
                raise ValueError(f"bad derivative index {alpha} for dimension {dim}")
            if poly.field != field or poly.dim != dim:
                raise ValueError(f"coefficient at {alpha} has mismatched backend or dimension")
            if not poly.is_zero:
                clean[alpha] = poly
        top = max((mi_total(a) for a in clean), default=0)
        if order is None:
            order = top
        if top > order:
            raise ValueError(f"coefficient index exceeds truncation order {order}")
        return cls(field, dim, clean, order, divided)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def plain_coefficient(self, alpha: MultiIndex) -> SparsePoly:
        """Coefficient of d^alpha in the plain (non divided power) expansion."""
        alpha = tuple(alpha)
        poly = self.coeffs.get(alpha)
        if poly is None:
            return SparsePoly.zero(self.field, self.dim)
        if self.divided:
            return _combine(self.field, self.dim,
                            [(poly.coeffs.items(), (1, mi_factorial(alpha)), None)], rational=True)
        return poly

    def to_plain(self) -> "DiffOperator":
        if not self.divided:
            return self
        coeffs = {a: self.plain_coefficient(a) for a in self.coeffs}
        return DiffOperator(self.field, self.dim, coeffs, self.order, False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        if (self.field, self.dim, self.order) != (other.field, other.dim, other.order):
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.plain_coefficient(k) == other.plain_coefficient(k) for k in keys)


def apply_operator(P: DiffOperator, f: SparsePoly) -> SparsePoly:
    """P(f), exactly.  d^alpha x^beta = (beta! / (beta-alpha)!) x^(beta-alpha)."""
    if f.field != P.field or f.dim != P.dim:
        raise ValueError("operator and argument use different backends or dimensions")
    weight = mi_binomial if P.divided else mi_falling
    times, sub = P.field.times, operator.sub
    image = f.coeffs.items()
    parts = []
    for alpha, a in P.coeffs.items():
        terms = a.coeffs.items()
        for exponent, coeff in image:
            k = weight(exponent, alpha)
            if k:  # alpha <= exponent, so the gap cannot underflow
                parts.append((terms, times(coeff.q, (k, 1)), tuple(map(sub, exponent, alpha))))
    return _combine(P.field, P.dim, parts)


def compose(P: DiffOperator, Q: DiffOperator) -> DiffOperator:
    """Operator composition P then-applied-after Q.

    Leibniz: (a d^alpha)(b d^beta) = sum over gamma <= alpha of
    C(alpha, gamma) * a * d^gamma(b) * d^(alpha - gamma + beta).
    The result is truncated at order(P) + order(Q), and is divided-power
    normalized only when both inputs are.
    """
    if P.field != Q.field or P.dim != Q.dim:
        raise ValueError("cannot compose operators over different backends or dimensions")
    field = P.field
    times = field.times
    divided = P.divided and Q.divided
    parts: dict[MultiIndex, list] = {}
    # d^gamma(b) for each (beta, gamma), computed once and reused for every alpha
    derivatives: dict[tuple[MultiIndex, MultiIndex], list] = {}
    Pp, Qp = P.to_plain(), Q.to_plain()
    for alpha, a in Pp.coeffs.items():
        terms = a.coeffs.items()
        for beta, b in Qp.coeffs.items():
            for gamma in mi_box(alpha):
                derivative = derivatives.get((beta, gamma))
                if derivative is None:
                    derivative = derivatives[beta, gamma] = list(b.derivative(gamma).coeffs.items())
                index = tuple(x - y + z for x, y, z in zip(alpha, gamma, beta))
                # a divided-power result stores alpha! times the plain coefficient
                weight = (mi_binomial(alpha, gamma) * (mi_factorial(index) if divided else 1), 1)
                parts.setdefault(index, []).extend(
                    (terms, times(coeff.q, weight), exponent) for exponent, coeff in derivative)
    acc = {index: _combine(field, P.dim, index_parts) for index, index_parts in parts.items()}
    return DiffOperator.make(field, P.dim, acc, P.order + Q.order, divided)


# ---------------------------------------------------------------------------
# black-box endomorphisms and symbol extraction


@dataclass(eq=False)
class EndoOracle:
    """A linear endomorphism queried through its values on monomials.

    ``degree_cap`` bounds |beta| for queries; anything beyond is an error,
    which keeps truncation explicit at call sites.
    """

    field: Field
    dim: int
    degree_cap: int
    query_fn: Callable[[MultiIndex], SparsePoly]
    _cache: dict[MultiIndex, SparsePoly] = dataclass_field(default_factory=dict)

    @classmethod
    def from_operator(cls, P: DiffOperator, degree_cap: int | None = None) -> "EndoOracle":
        cap = P.order if degree_cap is None else degree_cap
        return cls(P.field, P.dim, cap,
                   lambda beta: apply_operator(P, SparsePoly.monomial(P.field, P.dim, beta)))

    def query(self, beta: MultiIndex) -> SparsePoly:
        beta = tuple(beta)
        if mi_total(beta) > self.degree_cap:
            raise ValueError(f"query {beta} exceeds the declared degree cap {self.degree_cap}")
        hit = self._cache.get(beta)
        if hit is None:
            hit = self.query_fn(beta)
            if hit.field != self.field or hit.dim != self.dim:
                raise ValueError("oracle returned a value over the wrong backend or dimension")
            self._cache[beta] = hit
        return hit

    def apply_poly(self, f: SparsePoly) -> SparsePoly:
        """Extend the monomial table by linearity."""
        if f.field != self.field:
            raise ValueError(f"mixed-backend arithmetic: {self.field.name} vs {f.field.name}")
        return _combine(self.field, self.dim, [(self.query(exponent).coeffs.items(), coeff.q, None)
                                                for exponent, coeff in f.coeffs.items()])


def symbol_coefficient(oracle: EndoOracle, alpha: MultiIndex) -> SparsePoly:
    """Extract the coefficient of d^alpha from monomial values.

    (1/alpha!) * sum over beta <= alpha of psi(x^beta) * C(alpha, beta)
    * (-x)^(alpha-beta).  For psi arising from a finite operator this
    recovers the plain coefficient a_alpha exactly.
    """
    alpha = tuple(alpha)
    if mi_total(alpha) > oracle.degree_cap:
        raise ValueError(f"symbol index {alpha} exceeds the oracle degree cap")
    factorial = mi_factorial(alpha)
    parts = []
    for beta in mi_box(alpha):
        gap = tuple(map(operator.sub, alpha, beta))  # beta <= alpha: no underflow
        n = mi_binomial(alpha, beta)
        if sum(gap) & 1:
            n = -n
        g = gcd(n, factorial)
        parts.append((oracle.query(beta).coeffs.items(), (n // g, factorial // g), gap))
    return _combine(oracle.field, oracle.dim, parts, rational=True)


def total_symbol(oracle: EndoOracle, degree_cap: int) -> SparsePoly:
    """Sum of symbol_coefficient(alpha) * zeta^alpha over |alpha| <= cap.

    Returned in 2d variables: x1..xd are the base coordinates, x(d+1)..x(2d)
    the cotangent (zeta) coordinates.
    """
    d = oracle.dim
    parts = []
    for alpha in mi_up_to_total(d, degree_cap):
        coeffs = symbol_coefficient(oracle, alpha).coeffs
        parts.append(([(exponent + alpha, c) for exponent, c in coeffs.items()], None, None))
    return _combine(oracle.field, 2 * d, parts)


def combinatorial_delta(alpha: MultiIndex, gamma: MultiIndex) -> int:
    """Direct box sum behind exact symbol recovery.

    sum over alpha <= beta <= gamma of (beta!/(beta-alpha)!) * C(gamma, beta)
    * (-1)^{|gamma - beta|}, which collapses to gamma! when alpha == gamma
    and to 0 otherwise.  Computed by summation, checked against the closed
    form (ArithmeticError on a mismatch), returned as an int.
    """
    if not mi_le(alpha, gamma):
        raise ValueError("requires alpha <= gamma componentwise")
    total = 0
    for beta in mi_box(gamma):
        if not mi_le(alpha, beta):
            continue
        total += mi_falling(beta, alpha) * mi_binomial(gamma, beta) * (-1) ** mi_total(mi_sub(gamma, beta))
    expected = mi_factorial(gamma) if alpha == gamma else 0
    if total != expected:
        raise ArithmeticError(f"delta identity failed at alpha={alpha}, gamma={gamma}")
    return total


def roundtrip_report(P: DiffOperator, operator_id: str = "operator") -> dict:
    """Recover every coefficient of P from its monomial action; exact or bust."""
    oracle = EndoOracle.from_operator(P)
    checks = []
    all_pass = True
    for gamma in mi_up_to_total(P.dim, P.order):
        expected = P.plain_coefficient(gamma)
        got = symbol_coefficient(oracle, gamma)
        ok = got == expected
        all_pass = all_pass and ok
        checks.append({
            "index": list(gamma),
            "expected": poly_to_text(expected),
            "got": poly_to_text(got),
            "pass": ok,
        })
    return {"operator_id": operator_id, "checks": checks, "pass": all_pass}


def _shifted_monomial_basis(field: Field, dim: int, center: tuple[Scalar, ...],
                            beta: MultiIndex) -> SparsePoly:
    """(x - c)^beta expanded exactly, as the direct product over the coordinates
    of the binomial rows (x_i - c_i)^b = sum_k C(b, k) (-c_i)^(b-k) x_i^k."""
    mul, times, is_zero = field.mul, field.times, field.is_zero
    rows = []
    for c, b in zip(center, beta):
        # (-c)^j for j <= b; for c = 0 only j = 0 is nonzero, and only x^b is kept
        minus_c = field.neg(c.q)
        powers = [field.one().q]
        for _ in range(b):
            powers.append(mul(powers[-1], minus_c))
        rows.append([(k, times(powers[b - k], (comb(b, k), 1)))
                     for k in range(b + 1) if not is_zero(powers[b - k])])
    coeffs = {}
    for row_terms in itertools.product(*rows):
        value = row_terms[0][1]
        for _, factor in row_terms[1:]:
            value = mul(value, factor)
        coeffs[tuple(k for k, _ in row_terms)] = Scalar(field, value)
    return SparsePoly(field, dim, coeffs)


def translation_invariance_check(oracle: EndoOracle, center: tuple[Scalar, ...],
                                 alpha: MultiIndex) -> bool:
    """Symbol extraction does not depend on the chosen integral origin.

    Compares the extraction sum written in x against the same sum written in
    y = x - c, with psi evaluated on (x - c)^beta by linearity.  Exact
    equality of polynomials.
    """
    for c in center:
        if c.valuation() < NormValue.of(0):
            raise ValueError("translation centers must be integral")
    field, d = oracle.field, oracle.dim
    times = field.times
    lhs_parts, rhs_parts = [], []
    for beta in mi_box(alpha):
        gap = tuple(map(operator.sub, alpha, beta))  # beta <= alpha: no underflow
        n = mi_binomial(alpha, beta)
        weight = (-n if sum(gap) & 1 else n, 1)
        lhs_parts.append((oracle.query(beta).coeffs.items(), weight, gap))
        image = oracle.apply_poly(_shifted_monomial_basis(field, d, center, beta)).coeffs.items()
        tail = _shifted_monomial_basis(field, d, center, gap)
        rhs_parts += [(image, times(coeff.q, weight), exponent)
                      for exponent, coeff in tail.coeffs.items()]
    return _combine(field, d, lhs_parts, rational=True) == _combine(field, d, rhs_parts)


# ---------------------------------------------------------------------------
# seminorms and operator norm brackets


def radius_seminorm(P: DiffOperator, radius_valuation: Rational) -> NormValue:
    """Valuation form of sup_alpha |a_alpha| R^{|alpha|} on plain coefficients.

    ``radius_valuation`` is v of the radius; large radii mean negative
    values.  The sup of norms is the min of valuations.
    """
    r = Fraction(radius_valuation)
    best = NormValue.infinite()
    for alpha in P.coeffs:
        v = P.plain_coefficient(alpha).gauss_valuation() + NormValue.of(mi_total(alpha) * r)
        best = min(best, v)
    return best


def _translate_to_center(P: DiffOperator, domain: Polydisc) -> tuple[DiffOperator, dict]:
    """Rewrite P in the coordinates y = x - c about the center of ``domain``,
    and read off the sup valuation of each plain coefficient on ``domain``.

    d/dx_i = d/dy_i, so the plain coefficient at alpha becomes a_alpha(c + y).
    Its valuation weighted by the radii is the sup valuation of a_alpha on
    ``domain``, so one substitution per coefficient gives both.
    """
    field = P.field
    ones = (field.one(),) * P.dim
    coeffs, sups = {}, {}
    for alpha in P.coeffs:
        moved = coeffs[alpha] = P.plain_coefficient(alpha).substitute_affine(domain.center, ones)
        sups[alpha] = moved.weighted_valuation(*domain.weights)
    return DiffOperator.make(field, P.dim, coeffs, P.order, divided=False), sups


def _coefficient_side(field: Field, radii: tuple[Fraction, ...],
                      sups: Mapping[MultiIndex, NormValue]) -> tuple[NormValue, dict]:
    """The coefficient side of the norm bracket: its least value and, per
    alpha, sup_alpha - sum_i alpha_i r_i + v(alpha!).

    sup_alpha is the sup valuation of a_alpha on the polydisc of radius
    valuations r.  In the unit polydisc's coordinates x = c + sigma y, the
    coefficient b_alpha = a_alpha(c + sigma y) sigma^-alpha has Gauss
    valuation sup_alpha - sum_i alpha_i r_i, and d^alpha = alpha!
    d^(alpha) with divided powers of norm at most one there, so each value
    is the valuation of the bound |alpha!| |b_alpha|.
    """
    terms = {alpha: sup + NormValue.of(sum(map(field.factorial_valuation, alpha))
                                       - sum(map(operator.mul, alpha, radii)))
             for alpha, sup in sups.items()}
    return min(terms.values(), default=NormValue.infinite()), terms


def _norm_bracket_terms(P: DiffOperator,
                        domain: Polydisc) -> tuple[NormValue, NormValue, dict, dict]:
    """operator_norm_bracket's (lower, upper), then the sup valuation of each
    a_alpha on ``domain`` and the coefficient side's value at each alpha."""
    if P.dim != domain.dim:
        raise ValueError("operator and domain dimensions differ")
    moved, sups = _translate_to_center(P, domain)
    weights, denominator = domain.weights
    lower = NormValue.infinite()
    for delta in mi_up_to_total(P.dim, P.order):
        image = apply_operator(moved, SparsePoly.monomial(P.field, P.dim, delta))
        # the sup valuation of P y^delta less that of y^delta on the polydisc
        shift = sum(map(operator.mul, delta, weights))
        lower = min(lower, image.weighted_valuation(weights, denominator)
                    + NormValue(Fraction(-shift, denominator)))
    upper, terms = _coefficient_side(P.field, domain.radius_valuations, sups)
    return lower, upper, sups, terms


def operator_norm_bracket(P: DiffOperator, domain: Polydisc) -> tuple[NormValue, NormValue]:
    """The operator norm of P on a polydisc, from its action and from its
    coefficients; the two sides are equal.

    Returns (lower, upper) in valuation form.  In the unit polydisc's
    coordinates x = c + sigma y, with b_alpha the plain coefficients there,
    lower is the least Gauss valuation of P y^delta over |delta| <= order,
    and upper the least v(alpha!) + v(b_alpha) (_coefficient_side).  lower
    >= upper since d^alpha y^delta = alpha! C(delta, alpha) y^(delta -
    alpha), and upper >= lower since alpha! b_alpha = sum over beta <= alpha
    of C(alpha, beta) (-y)^(alpha - beta) P y^beta, an integer combination
    of monomial images.  So the coefficient norm of P and its norm as an
    endomorphism are one number.

    Neither side builds sigma: with P_c the translation of P to the center,
    P y^delta = sigma^-delta (P_c y^delta)(sigma y), whose Gauss valuation
    is the weighted valuation of P_c y^delta less sum_i delta_i r_i.
    """
    lower, upper, _, _ = _norm_bracket_terms(P, domain)
    return lower, upper


def coefficient_decay_report(P: DiffOperator, n: int, operator_id: str = "operator") -> dict:
    """Check the coefficient decay forced by boundedness on a small subdisc.

    On the subdisc X_n of radius |pi|^n about the origin, the plain
    coefficients of any operator satisfy, per stored alpha,

        v(a_alpha restricted to X_n) >= W + n |alpha| v(pi) - v(alpha!)

    where W is the operator norm of P on X_n, in valuation form.  W is read
    from the coefficient side of operator_norm_bracket(P, X_n), which equals
    its action side: the least sup - n |alpha| v(pi) + v(alpha!) over the
    same sup valuations, one per coefficient.  The restriction on the left
    is what the origin-centered estimate controls; the plain Gauss valuation
    of a_alpha is also reported (gauss_margin) and coincides for
    coefficients whose sup is attained at the center.
    """
    if n < 0:
        raise ValueError("subdisc exponent must be a natural number")
    field, d = P.field, P.dim
    radii = (Fraction(n) * field.pi_valuation,) * d
    dom = Polydisc(tuple(field.zero() for _ in range(d)), radii)
    coefficients = []
    for alpha in sorted(P.coeffs):
        a = P.plain_coefficient(alpha)
        coefficients.append((alpha, sup_norm(a, dom), a.gauss_valuation()))
    upper, terms = _coefficient_side(field, radii, {alpha: lhs for alpha, lhs, _ in coefficients})
    checks = []
    all_pass = True
    # every stored coefficient is nonzero, so every valuation below is finite
    for alpha, lhs, lhs_gauss in coefficients:
        margin = terms[alpha].valuation - upper.valuation
        rhs = NormValue(lhs.valuation - margin)
        ok = lhs >= rhs
        all_pass = all_pass and ok
        checks.append({
            "index": list(alpha),
            "expected": format_valuation(rhs),
            "got": format_valuation(lhs),
            "margin": format_valuation(margin),
            "gauss_margin": format_valuation(lhs_gauss.valuation - rhs.valuation),
            "pass": ok,
        })
    return {
        "operator_id": operator_id,
        "subdisc_exponent": n,
        "norm_valuation_upper": format_valuation(upper),
        "checks": checks,
        "pass": all_pass,
    }


# ---------------------------------------------------------------------------
# coefficient families and the rapid-decay classifier


@dataclass(frozen=True)
class DecayBound:
    """Declared valuation lower bound, as a function of the total degree k:

        L(k) = quad * max(0, k - shift)^2 + slope * k + offset

    Shipping the bound in this shape is what lets the classifier certify a
    limit; an opaque callable could only ever be sampled.  The classifier
    spot-checks it against the family's Gauss valuations at the first
    degrees before trusting it.
    """

    quad: Fraction
    slope: Fraction = Fraction(0)
    offset: Fraction = Fraction(0)
    shift: int = 0

    def __call__(self, total_degree: int) -> Fraction:
        k = total_degree
        return (Fraction(self.quad) * max(0, k - self.shift) ** 2
                + Fraction(self.slope) * k + Fraction(self.offset))


@dataclass(eq=False)
class CoefficientFamily:
    """A coefficient family alpha -> a_alpha, carried as the Gauss valuation
    v(a_alpha) of each member, optionally with a DecayBound.

    Rapid decay compares v(a_alpha) - r |alpha| v(pi) as alpha grows, so the
    valuations are all the classifier reads.  The bound, when present, must
    lower-bound the valuation at every index.
    """

    field: Field
    dim: int
    gauss: Callable[[MultiIndex], NormValue]
    bound: DecayBound | None = None

    def member(self, alpha: MultiIndex) -> NormValue:
        """v(a_alpha), the Gauss valuation of member alpha."""
        return self.gauss(tuple(alpha))


def classify_rapid_decay(family: CoefficientFamily, r_max: int = 3,
                         index_cap: int = 12) -> str:
    """Three-valued verdict on a_alpha / pi^{r |alpha|} -> 0 for every r.

    Positive verdicts come only from the structured bound, and only when its
    quadratic part is positive.  Negative verdicts need an explicit witness:
    for some r <= r_max with 2r <= index_cap, the per-degree valuation trend
    v - r k v(pi) bottoms out at the final degree, falls strictly across the
    last quarter, and ends at least v(pi) below its first-half minimum.  The
    2r <= index_cap guard avoids mistaking the front slope of a quadratic
    family for growth.
    """
    vpi = family.field.pi_valuation
    if family.bound is not None:
        for k in range(min(3, index_cap) + 1):
            for alpha in mi_with_total(family.dim, k):
                truth = family.member(alpha)
                if truth < NormValue.of(family.bound(k)):
                    raise ValueError(
                        f"declared bound exceeds the true valuation at {alpha}: "
                        f"{family.bound(k)} > {truth}")
        # L(k) - r k v(pi) must grow without bound for every natural r; r is
        # unbounded, so only quadratic growth beats every linear drain
        if family.bound.quad > 0:
            return DECREASING_WITNESSED

    level_valuations: list[Fraction | None] = []
    for k in range(index_cap + 1):
        level = NormValue.infinite()
        for alpha in mi_with_total(family.dim, k):
            level = min(level, family.member(alpha))
        level_valuations.append(level.valuation)

    for r in range(1, r_max + 1):
        if 2 * r > index_cap:
            continue
        trend = [None if v is None else v - r * k * vpi
                 for k, v in enumerate(level_valuations)]
        if _witnesses_growth(trend, vpi):
            return NON_DECREASING_WITNESSED
    return INCONCLUSIVE


def _witnesses_growth(trend: list[Fraction | None], pi_valuation: Fraction) -> bool:
    cap = len(trend) - 1
    last = trend[cap]
    if last is None:
        return False
    finite_head = [v for v in trend[:cap] if v is not None]
    if len(finite_head) < len(trend[:cap]):
        return False  # gaps in the family; refuse to extrapolate
    if not all(last < v for v in finite_head):
        return False
    window = max(2, cap // 4)
    for k in range(cap - window, cap):
        if not trend[k + 1] < trend[k]:
            return False
    first_half_min = min(trend[: cap // 2 + 1])
    return last <= first_half_min - pi_valuation


# ---------------------------------------------------------------------------
# operator text format: header lines, then "a1,...,ad : <polynomial>"


def operator_to_text(P: DiffOperator) -> str:
    lines = [
        f"dim: {P.dim}",
        f"backend: {P.field.name}",
        f"normalization: {'divided' if P.divided else 'plain'}",
        f"order: {P.order}",
    ]
    for alpha in sorted(P.coeffs):
        lines.append(f"{','.join(str(a) for a in alpha)} : {poly_to_text(P.coeffs[alpha])}")
    return "\n".join(lines) + "\n"


def operator_from_text(text: str, field: Field | None = None) -> DiffOperator:
    """Parse the operator file format; every error carries a 1-based line
    number (the last line for a header missing from the whole file)."""
    headers: dict[str, tuple[int, str]] = {}
    body: list[tuple[int, str, str]] = []
    last = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key: value' or 'index : polynomial'")
        head = head.strip()
        if head and head[0].isalpha():
            headers[head] = (lineno, tail.strip())
        else:
            body.append((lineno, head, tail.strip()))
    if "backend" in headers:
        lineno, name = headers["backend"]
        try:
            written = backend_from_name(name)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if field is None:
            field = written
        elif written != field:
            raise ValueError(f"line {lineno}: operator file is written over {name}, "
                             f"but {field.name} was requested")
    elif field is None:
        raise ValueError(f"line {last}: no backend header and no backend supplied")

    def natural_header(key: str, minimum: int) -> int:
        lineno, value = headers[key]
        try:
            number = int(value)
        except ValueError:
            number = None
        if number is None or number < minimum:
            raise ValueError(f"line {lineno}: header {key!r} must be an integer >= {minimum}, "
                             f"got {value!r}")
        return number

    if "dim" in headers:
        dim = natural_header("dim", 1)
    elif body:
        dim = len(body[0][1].split(","))
    else:
        raise ValueError(f"line {last}: cannot infer dimension of an empty operator "
                         f"without a dim header")
    order = natural_header("order", 0) if "order" in headers else None
    divided = headers.get("normalization", (0, "plain"))[1] == "divided"
    coeffs: dict[MultiIndex, SparsePoly] = {}
    for lineno, head, tail in body:
        try:
            alpha = tuple(int(part) for part in head.split(","))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: malformed derivative index {head!r}") from exc
        if any(a < 0 for a in alpha):
            raise ValueError(f"line {lineno}: negative derivative index {head!r}")
        if len(alpha) != dim:
            raise ValueError(f"line {lineno}: index arity {len(alpha)} does not match dim {dim}")
        if alpha in coeffs:
            raise ValueError(f"line {lineno}: duplicate index {alpha}")
        if order is not None and sum(alpha) > order:
            raise ValueError(f"line {lineno}: index {alpha} exceeds the truncation order {order}")
        try:
            coeffs[alpha] = poly_from_text(tail, field, dim)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return DiffOperator.make(field, dim, coeffs, order, divided)


# ---------------------------------------------------------------------------
# seeded random inputs (shared by the CLI fuzz modes and the test suite)


def random_scalar(rng: random.Random, field: Field) -> Scalar:
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


def random_poly(rng: random.Random, field: Field, dim: int, degree: int,
                max_terms: int = 4) -> SparsePoly:
    pool = list(mi_up_to_total(dim, degree))
    support = rng.sample(pool, k=min(len(pool), rng.randint(1, max_terms)))
    return SparsePoly.make(field, dim, [(e, random_scalar(rng, field)) for e in support])


def random_operator(rng: random.Random, field: Field, dim: int, order: int,
                    coeff_degree: int, max_support: int = 4) -> DiffOperator:
    pool = list(mi_up_to_total(dim, order))
    support = rng.sample(pool, k=min(len(pool), rng.randint(1, max_support)))
    coeffs = {alpha: random_poly(rng, field, dim, coeff_degree) for alpha in support}
    return DiffOperator.make(field, dim, coeffs, order, divided=rng.random() < 0.5)
