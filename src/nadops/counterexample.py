"""A coefficient family that is bounded on every tested proper subdomain of
the unit disc, yet fails the global decay condition.

The family is built from coset representatives of the maximal ideal: member
alpha is the product over beta <= alpha of (x - lambda_beta)^(alpha^2).
Each member is monic with integral coefficients, so its Gauss valuation is 0
and the pi-rescaled operator family sum xi_alpha pi^alpha d^(alpha) /
(alpha! pi^(2 alpha)) has terms of valuation <= -alpha v(pi): no decay on
the full disc.  Restricted to a proper subdisc or a disc with holes, the
matching factor (x - lambda_gamma)^(alpha^2) is small, which is what the
claim1 verifiers certify row by row.

Expansions are exact.  The product F = prod (x - mu_i)^(e_i) (rational
roots, denominators cleared) is written against its logarithmic
derivative, A F' = B F with A the product of the distinct linear factors,
and its coefficients are read off the resulting first-order recurrence.
Each coefficient costs one big x small product per lag, s lags in all for
s distinct nonzero roots: the two sums of the recurrence fold into one
small-integer weight per lag.  That is O(degree * s) big-integer work
instead of O(degree^2).  With one nonzero root (s = 1, as on p = 2 about
the median) the product is a binomial row, and each numerator is the one
before times one small weight, divided by one small divisor, with no
window of lags.

The recurrence is a stream: it yields the integer numerators over one
leading denominator, lowest degree first, and keeps only the last s of
them, so reading it needs O(s) coefficients of memory however large the
degree.  The integrality of every division is checked as each numerator is
produced, and the leading term when the stream ends.  Every claim reads
only a degree and a Gauss valuation, so the stream is folded into min over
j of v(c_j) + j r, less v(lead), without building a polynomial: on a disc
of radius valuation r about a rational center, that is the Gauss valuation
of the rescaled member.  The numerators are ints, so v(c_j) >= 0: once j r
is at least the least value so far, no later term can go below it, and
the fold takes no more valuations.  The family handed to the classifier is
that fold too.  member builds the polynomial about 0 from the same stream,
and member_on_subdisc rescales it generically; they are the fold's test
oracle, and no claim calls them.

Every integral center c0 + s (c0 its constant term, q = v(s) > 0, and q =
inf for s = 0) is folded about c0 at radius valuation min(r, q).  That is
exact: with b_k the coefficients about c0 and k_min(j) the least k >= j with
b_k != 0, coefficient j of member(c0 + s + t^r y) has valuation j r +
q (k_min(j) - j) + v(b_k_min), because that term alone has the least
exponent and its leading coefficient is nonzero in characteristic 0; the
least over j is the fold about c0 at min(r, q) (q is finite only on the
Hahn backend, where every nonzero b_k is a unit).

On the closed unit disc (radius valuation 0) the fold expands member(alpha)
about a center of its own choosing rather than about 0.  For integral c,
y -> c + y maps the closed unit disc isometrically onto itself: f -> f(c +
y) maps the integral polynomials onto themselves (its inverse is f -> f(y -
c)) and commutes with reduction modulo the maximal ideal, so it keeps the
Gauss valuation, and it keeps the degree.  Which integral center is taken
therefore does not change the result.  The fold takes the center the
representatives are symmetric about when there is one and it is integral:
alpha/2 on the Hahn integer scheme, 0 on the rational scheme at even
alpha, and on a cycling scheme for odd p the middle residue (p - 1)/2 when
every residue occurs equally often, or alpha/2 while alpha < p.  About it
the roots come in pairs +-mu of one multiplicity, so the member is y^shift
prod (y^2 - mu^2)^e, a polynomial in y^2: the expansion runs in y^2, over
half the degree with half the lags.  Otherwise (always on p = 2, whose
center 1/2 is not integral) it takes the median representative, about
which the roots sit on both sides of 0 and are about half as large.  Each
coefficient is still computed exactly and checked.

Whatever the center, when the nonzero roots mu = lambda_beta - c share
one denominator Q and Q is a unit, the fold multiplies them by Q and
streams prod (y - Q mu)^e = Q^n member(c + y/Q), whose roots are
integers, over lead 1: no numerator carries the powers of Q.  Its
coefficient j is Q^(n - j) times that of member(c + y), a unit multiple,
so the degree and every valuation v(c_j) + j r are unchanged.  A center
c = a/b off the representatives gives every root the denominator b when
the representatives are integers: about alpha/2 at odd alpha the Hahn
roots are half-integers, cleared by 2; on a p-adic field b is a unit
exactly when p does not divide it (p = 2 about 1/3, say), and a center
such as 1/2 on p = 2 keeps Q = 1.  Roots with different denominators
q_i (as on the Hahn rational scheme) are not scaled: by their lcm L,
numerator k would carry L^(n - k) where the unscaled stream carries the
lead prod q_i^e, and summed over k that is more bits as soon as L
exceeds the square of the q_i's geometric mean.

Claim 1's monomial side on a disc with a hole reads the same fold: the
divided-power operator member(alpha) d^(alpha) sends x^delta to
C(delta, alpha) member(alpha) x^(delta - alpha), whose Gauss valuation is
v(C(delta, alpha)) + gauss(member(alpha)).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from operator import mul, sub
from typing import Callable, Iterator, NamedTuple

from .affinoid import (
    Hole,
    SparsePoly,
    rescale_to_subdisc,
)
from .operators import (
    CoefficientFamily,
    DECREASING_WITNESSED,
    INCONCLUSIVE,
)
from .scalars import (
    Field,
    HahnField,
    NormValue,
    PAdicField,
    Scalar,
    _int_valuation,
    format_valuation,
)


# ---------------------------------------------------------------------------
# representative schemes


@dataclass(frozen=True, eq=False)
class CosetRepScheme:
    """Integral representatives lambda_0, lambda_1, ... of residue classes.

    Every representative is a rational constant, given by rep_rational_fn;
    the integer expansion of the members relies on that.
    """

    field: Field
    name: str
    rep_rational_fn: Callable[[int], Fraction]

    def rep(self, i: int) -> Scalar:
        return self.field.from_rational(self.rep_rational_fn(i))


def cycling_scheme(field: PAdicField) -> CosetRepScheme:
    """lambda_i = i mod p: the full residue system of Z/p, repeating.

    Every p steps the same representative recurs, so a disc around an
    integral center collects one more matching factor; the subdisc bound
    strengthens accordingly.
    """
    if not isinstance(field, PAdicField):
        raise ValueError("cycling scheme needs a p-adic backend")
    return CosetRepScheme(field, f"padic-cycling(p={field.p})",
                          lambda i: Fraction(i % field.p))


def integer_scheme(field: HahnField) -> CosetRepScheme:
    """lambda_i = i: distinct residues (the residue field has characteristic 0)."""
    if not isinstance(field, HahnField):
        raise ValueError("integer scheme needs the Hahn backend")
    return CosetRepScheme(field, "hahn-integer", lambda i: Fraction(i))


def _calkin_wilf(count: int) -> list[Fraction]:
    """First ``count`` positive rationals, each exactly once."""
    out: list[Fraction] = []
    q = Fraction(1)
    for _ in range(count):
        out.append(q)
        q = 1 / (2 * (q.numerator // q.denominator) + 1 - q)
    return out


def rational_scheme(field: HahnField) -> CosetRepScheme:
    """An enumeration of ALL rational residues: 0, 1, -1, 1/2, -1/2, 2, ...

    With this scheme every integral constant center matches some
    representative, realizing the partition of the unit ball by residue
    classes that the subdisc bounds are really about.
    """
    if not isinstance(field, HahnField):
        raise ValueError("rational scheme needs the Hahn backend")
    positives = _calkin_wilf(256)  # rep doubles the table on demand

    def rep(i: int) -> Fraction:
        if i == 0:
            return Fraction(0)
        k, sign = divmod(i - 1, 2)
        while k >= len(positives):
            positives.extend(_calkin_wilf(2 * len(positives))[len(positives):])
        return positives[k] if sign == 0 else -positives[k]

    return CosetRepScheme(field, "hahn-rational", rep)


def default_scheme(field: Field) -> CosetRepScheme:
    if isinstance(field, PAdicField):
        return cycling_scheme(field)
    return integer_scheme(field)


# ---------------------------------------------------------------------------
# exact expansion of products of powers of linear factors


class CheckFailed(ArithmeticError):
    """An exact check inside a computation failed: the result it guards is
    wrong, so no report row can be trusted."""


class _Expansion(NamedTuple):
    """prod (x - mu)^e = x^shift * sum_k numerators[k] x^(step k) / lead.

    ``numerators`` is a one-shot iterator of exact ints, lowest degree first;
    numerator k is the coefficient of x^(shift + step k).  ``step`` is 2 for
    an even product (every nonzero root paired with its negative), whose
    odd coefficients are 0 and are not streamed, and 1 otherwise.
    """

    shift: int
    lead: int
    numerators: Iterator[int]
    step: int


def _linear_power_product(roots: list[tuple[Fraction, int]]) -> _Expansion:
    """prod (x - mu)^e as a stream of integer numerators over one denominator.

    Denominators are cleared, so the recurrence below runs over plain ints;
    every division it performs is exact by construction, and a remainder
    raises CheckFailed as the coefficient is produced.  Coefficient k+1
    reads only the s coefficients before it (s distinct nonzero roots), so
    the stream holds s of them at a time.  The last coefficient must equal
    the leading denominator; that is checked when the stream ends.

    When every nonzero root mu has -mu at the same multiplicity, the product
    is x^shift prod over mu > 0 of (x^2 - mu^2)^e, and the same recurrence
    runs on the roots mu^2 in x^2 (step 2).  With mu = p/q the pair clears
    to q^2 x^2 - p^2, so the leading denominator and the numerators are
    those of the expansion in x at even degree; the odd ones are 0.
    """
    merged: dict[Fraction, int] = {}
    for mu, e in roots:
        if e < 0:
            raise ValueError("negative multiplicity")
        if e:
            merged[mu] = merged.get(mu, 0) + e
    shift = merged.pop(Fraction(0), 0)
    step = 1
    if all(merged.get(-mu) == e for mu, e in merged.items()):
        merged = {mu * mu: e for mu, e in merged.items() if mu > 0}
        step = 2
    live = sorted(merged.items())
    if not live:
        return _Expansion(shift, 1, iter([1]), 1)

    # factor x - p/q becomes (q x - p); H = prod (q x - p)^e is integral
    pairs = [(mu.numerator, mu.denominator, e) for mu, e in live]
    n = sum(e for _, _, e in pairs)

    def poly_mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out

    linears = [[-p, q] for p, q, _ in pairs]
    prefix = [[1]]
    for lin in linears:
        prefix.append(poly_mul(prefix[-1], lin))
    suffix = [[1]] * (len(linears) + 1)
    for i in range(len(linears) - 1, -1, -1):
        suffix[i] = poly_mul(suffix[i + 1], linears[i])
    A = prefix[-1]
    B = [0] * (len(A) - 1)
    for i, (p, q, e) in enumerate(pairs):
        partial = poly_mul(prefix[i], suffix[i + 1])
        w = e * q
        for j, y in enumerate(partial):
            B[j] += w * y

    # (k+1) a0 c[k+1] = sum over lags j of (B[j] - (k-j) A[j+1]) c[k-j]; the
    # weight at lag j is base[j] - k A[j+1], a small int, so each lag costs
    # one big x small product.  Each step lowers the weights by A[j+1] and
    # raises the divisor by a0.
    s = len(pairs)
    base = [B[j] + j * A[j + 1] for j in range(s)]
    c0 = 1
    lead = 1
    for p, q, e in pairs:
        c0 *= (-p) ** e
        lead *= q ** e
    return _Expansion(shift, lead, _numerator_stream(c0, base, A, n, lead), step)


def _numerator_stream(c0: int, base: list[int], A: list[int], n: int,
                      lead: int) -> Iterator[int]:
    """c0 and the n numerators after it, from (k+1) A[0] c[k+1] = sum over
    the s = len(base) lags j of (base[j] - k A[j+1]) c[k-j].

    Each division is checked to be exact as its numerator is produced, and
    the last numerator to equal lead when the stream ends; either failure
    raises CheckFailed.  With one root (s = 1, A = q x - p) the numerators
    are the binomial row c[k+1] = c[k] (e - k) q / ((k + 1) (-p)): one
    weight and one product per step, with no window of lags.
    """
    a0 = A[0]
    c = c0
    yield c
    if len(base) == 1:
        w, d = base[0], a0  # the weight and the divisor at k = 0
        for _ in range(n):
            c, remainder = divmod(c * w, d)
            if remainder:
                raise CheckFailed("coefficient recurrence produced a non-integer")
            yield c
            w -= A[1]
            d += a0
    else:
        slope = A[1:]
        window = deque([c0], maxlen=len(base))  # c[k], c[k-1], ..., newest first
        w, d = base, a0  # the weights and the divisor at k = 0
        for _ in range(n):
            c, remainder = divmod(sum(map(mul, w, window)), d)
            if remainder:
                raise CheckFailed("coefficient recurrence produced a non-integer")
            window.appendleft(c)
            yield c
            w = list(map(sub, w, slope))
            d += a0
    if c != lead:
        raise CheckFailed("coefficient recurrence lost the leading term")


# ---------------------------------------------------------------------------
# the family itself


@dataclass(eq=False)
class RepProductFamily:
    """Member alpha: prod over beta <= alpha of (x - lambda_beta)^(alpha^2)."""

    scheme: CosetRepScheme

    @property
    def field(self) -> Field:
        return self.scheme.field

    def _roots(self, alpha: int, center: Fraction) -> list[tuple[Fraction, int]]:
        """member(alpha)'s roots at x = center + y: lambda_beta - center, each
        of multiplicity alpha^2."""
        if alpha < 0:
            raise ValueError("family index must be a natural number")
        return [(self.scheme.rep_rational_fn(beta) - center, alpha * alpha)
                for beta in range(alpha + 1)]

    def _expansion(self, alpha: int, center: Fraction) -> _Expansion:
        """member(alpha) at x = center + y."""
        return _linear_power_product(self._roots(alpha, center))

    def member(self, alpha: int) -> SparsePoly:
        expansion = self._expansion(alpha, Fraction(0))
        return SparsePoly(self.field, 1, {
            (j,): self.field.from_rational(Fraction(value, expansion.lead))
            for j, value in zip(count(expansion.shift, expansion.step), expansion.numerators)
            if value})

    def member_expected_degree(self, alpha: int) -> int:
        return (alpha + 1) * alpha * alpha

    def member_on_subdisc(self, alpha: int, center: Scalar,
                          radius_valuation: Fraction) -> SparsePoly:
        """member(alpha) at x = center + sigma y, with v(sigma) =
        radius_valuation, by the generic rescale of an integral center."""
        return rescale_to_subdisc(self.member(alpha), (center,), (radius_valuation,))

    def _degree_and_gauss(self, alpha: int, center: Scalar | None = None,
                          radius_valuation: Fraction = Fraction(0)) -> tuple[int, NormValue]:
        """Degree and Gauss valuation of member_on_subdisc(alpha, center,
        radius_valuation), or of member(alpha) when no center is given.

        This folds the expansion stream without building a polynomial: the
        valuation is min over nonzero numerators c_j of v(c_j) + j r, less
        v(lead), with j = shift + step k for the k-th numerator.  The
        numerators are ints, so v(c_j) >= 0 and no term is below j r; j only
        grows, so once j r is at least the least value so far the remaining
        valuations are skipped.  At r = 0 that is from the first unit
        numerator on.  A center c0 + s, with c0 its constant term and q =
        v(s) > 0, is folded about c0 at radius valuation min(r, q):
        coefficient j about the center has valuation exactly j r + q
        (k_min(j) - j) + v(b_k_min), as its k_min(j) term alone has the
        least exponent (module docstring).  Every coefficient is still
        computed and checked; a failed check raises CheckFailed naming
        alpha.  On the unit disc (r = 0) an integral center is replaced by
        the integral center the representatives are symmetric about, which
        makes the member even, else by the median representative; either
        gives the same result exactly.  When the nonzero roots share one
        denominator Q and Q is a unit, the roots are multiplied by Q, so the
        stream is over lead 1: coefficient j moves by the unit Q^(n - j),
        which keeps the degree and each valuation (module docstring).
        """
        if alpha < 0:
            raise ValueError("family index must be a natural number")
        if radius_valuation < 0:
            raise ValueError("radius valuation must be >= 0")
        c, q = (Fraction(0), None) if center is None else self.field.split_constant(center.q)
        r = self.field.check_valuation(radius_valuation)
        if q is not None and q < r:
            r = q
        if r == 0 and self._is_integral(c):
            # on the unit disc every integral center gives the same degree
            # and Gauss valuation; the center of symmetry makes the member
            # even, else the median, an integral representative, halves the
            # roots (module docstring)
            reps = sorted(self.scheme.rep_rational_fn(beta) for beta in range(alpha + 1))
            c = (reps[0] + reps[-1]) / 2
            if not (self._is_integral(c)
                    and all(a + b == 2 * c for a, b in zip(reps, reversed(reps)))):
                c = reps[alpha // 2]
        if isinstance(self.field, PAdicField):
            p = self.field.p

            def valuation(n: int) -> int:
                return _int_valuation(n, p)
        else:
            def valuation(n: int) -> int:
                return 0  # a nonzero rational constant is a Hahn unit

        # clear the roots' denominator when they share one and it is a unit:
        # coefficient j moves by a unit power of it, and the stream is over
        # lead 1 (module docstring)
        roots = self._roots(alpha, c)
        denominators = {mu.denominator for mu, _ in roots if mu}
        scale = denominators.pop() if len(denominators) == 1 else 1
        if not self._is_integral(Fraction(1, scale)):
            scale = 1
        expansion = _linear_power_product([(mu * scale, e) for mu, e in roots])

        # min over j of v(c_j) + j r, times r's denominator to stay in ints;
        # the stream ends on lead != 0, so some numerator is nonzero
        num, den = r.numerator, r.denominator
        degree, least = -1, None
        try:
            for j, value in zip(count(expansion.shift, expansion.step), expansion.numerators):
                if value:
                    degree = j
                    if least is None or num * j < least:
                        scaled = den * valuation(value) + num * j
                        if least is None or scaled < least:
                            least = scaled
        except CheckFailed as exc:
            raise CheckFailed(f"member alpha={alpha}: {exc}") from None
        return degree, NormValue.of(Fraction(least, den) - valuation(expansion.lead))

    def _is_integral(self, q: Fraction) -> bool:
        return self.field.from_rational(q).valuation() >= NormValue.of(0)

    def family(self) -> CoefficientFamily:
        return CoefficientFamily(self.field, 1, lambda a: self._degree_and_gauss(a[0])[1])

    def matching_indices(self, center: Scalar, up_to: int) -> list[tuple[int, NormValue]]:
        """Indices beta <= up_to whose representative shares the center's
        residue class, with v(center - lambda_beta)."""
        out = []
        for beta in range(up_to + 1):
            gap = (center - self.scheme.rep(beta)).valuation()
            if gap > NormValue.of(0):
                out.append((beta, gap))
        return out


# ---------------------------------------------------------------------------
# claim verification reports


def _min_with_radius(gap: NormValue, radius_valuation: Fraction) -> Fraction:
    """min(v(epsilon), r) with v = +inf collapsing to r (center on the rep)."""
    if gap.valuation is None:
        return radius_valuation
    return min(gap.valuation, radius_valuation)


def _failed_row(alpha: int, rhs: NormValue, exc: CheckFailed) -> dict:
    """The row of an alpha whose fold failed an exact check: it has no left
    side, and its error names alpha and the check that failed."""
    return {
        "alpha": alpha,
        "error": str(exc),
        "valuation_lhs": None,
        "valuation_rhs": format_valuation(rhs),
        "pass": False,
    }


def verify_claim1_disc(family: RepProductFamily, center: Scalar,
                       radius_valuation: Fraction, alpha_max: int) -> dict:
    """Per-alpha subdisc bound, and the decay verdict it gives the
    restricted family.

    For each alpha the exact sup-norm valuation of member(alpha) over the
    disc Z = B(center, radius) is compared against the certified bound

        alpha^2 * sum over matching beta <= alpha of min(v(center -
        lambda_beta), r),

    one summand per factor whose representative shares the center's residue
    class.  The verdict comes from the rows.  With gamma the first matching
    index and quad = min(v(center - lambda_gamma), r) > 0, each row's bound
    is at least quad (alpha - gamma)^2 for alpha >= gamma, and 0 below
    gamma, so when every row holds the family restricted to Z meets a
    quadratic valuation bound at every alpha <= alpha_max, which beats every
    linear drain r |alpha| v(pi): "decreasing-witnessed".  A failed row
    leaves it "inconclusive", and with no matching index there is no
    verdict (null).  The report passes when every row does.  A fold that
    fails an exact check fails its row (``_failed_row``), and the other
    rows still run.
    """
    if radius_valuation <= 0:
        raise ValueError("a proper subdisc needs a strictly positive radius valuation")
    if center.valuation() < NormValue.of(0):
        raise ValueError("disc center must be integral")
    radius_valuation = Fraction(radius_valuation)
    matches = family.matching_indices(center, alpha_max)
    gamma = matches[0][0] if matches else None
    gap_by_index = dict(matches)

    rows = []
    for alpha in range(alpha_max + 1):
        bound = Fraction(0)
        for beta, gap in gap_by_index.items():
            if beta <= alpha:
                bound += alpha * alpha * _min_with_radius(gap, radius_valuation)
        rhs = NormValue.of(bound)
        try:
            _, lhs = family._degree_and_gauss(alpha, center, radius_valuation)
        except CheckFailed as exc:
            rows.append(_failed_row(alpha, rhs, exc))
            continue
        rows.append({
            "alpha": alpha,
            "valuation_lhs": format_valuation(lhs),
            "valuation_rhs": format_valuation(rhs),
            "pass": lhs >= rhs,
        })

    all_pass = all(row["pass"] for row in rows)
    verdict = None
    if gamma is not None:
        verdict = DECREASING_WITNESSED if all_pass else INCONCLUSIVE
    return {
        "scheme": family.scheme.name,
        "claim": "claim1-disc",
        "params": {
            "center": center.to_text(),
            "radius_valuation": str(radius_valuation),
            "alpha_max": alpha_max,
            "gamma": gamma,
        },
        "rows": rows,
        "restricted_family_verdict": verdict,
        "pass": all_pass,
    }


def _monomial_side_valuation(family: RepProductFamily, alpha: int,
                             delta_max: int) -> NormValue:
    """min over delta <= delta_max of the Gauss valuation of
    (member(alpha) d^(alpha))(x^delta) = C(delta, alpha) member(alpha)
    x^(delta - alpha), that is gauss(member(alpha)) plus the least
    v(C(delta, alpha)) over alpha <= delta <= delta_max.  Every binomial is
    an integer and C(alpha, alpha) = 1, so that least valuation is 0.  The
    value is +inf when every image is 0 (delta_max < alpha)."""
    if delta_max < alpha:
        return NormValue.infinite()
    _, gauss = family._degree_and_gauss(alpha)
    return gauss


def verify_claim1_laurent(family: RepProductFamily, hole: Hole, alpha_max: int,
                          beta_max: int, delta_max: int) -> dict:
    """Boundedness of the scaled family on a disc with a hole, certified on
    both kinds of basis elements.

    Monomial side: sup over |delta| <= delta_max of the Gauss valuation of
    (member(alpha) d^(alpha))(x^delta) must be >= 0 (the members are monic
    and integral).  The divided-power derivative sends x^delta to
    C(delta, alpha) x^(delta - alpha), so that valuation is

        gauss(member(alpha)) + min over alpha <= delta <= delta_max of
        v(C(delta, alpha))  =  gauss(member(alpha)),

    since the binomials are integers and C(alpha, alpha) = 1; it is +inf
    when delta_max < alpha.  gauss(member(alpha)) comes from the expansion
    fold on the unit disc (module docstring).  A fold that fails an exact
    check fails its row (``_failed_row``); the hole side still runs.

    Hole side: with z_beta = (tau/(x-a))^(beta+1), the ratio
    z_beta^{-1} (member d^(alpha)) z_beta equals (-1)^alpha
    C(alpha+beta, alpha) member(alpha) (x-a)^{-alpha}; writing member =
    (x - lambda_gamma)^(alpha^2) * rest and ((y+rho)^alpha / y)^alpha =
    (rho^alpha / tau * z_0 + f_alpha)^alpha with y = x - a and rho = a -
    lambda_gamma, its valuation is at least

        v(C(alpha+beta, alpha)) + gauss(rest) + alpha * min(alpha v(rho) -
        v(tau), 0)     for alpha >= gamma,

    and the row displays the closed form alpha * min(alpha v(rho) - v(tau),
    0).  gauss(rest) is 0, since rest is a product of linear factors x -
    lambda_beta with integral representatives, and f_alpha = ((y +
    rho)^alpha - rho^alpha) / y is integral because v(rho) > 0.  The
    binomial is an integer, so v(C(alpha+beta, alpha)) >= 0 with equality
    at beta = 0: beta does not move the bound, and beta_max is only echoed
    in the report's params.  Rows with alpha < gamma use the crude bound
    -alpha v(tau) from |1/(x-a)| <= 1/|tau|.  The finite constant and the
    index past which the bound is exactly 0 are reported.
    """
    field = family.field
    vtau = Fraction(hole.radius_valuation)
    matches = family.matching_indices(hole.center, alpha_max)
    gamma = matches[0][0] if matches else None
    rho = None if gamma is None else hole.center - family.scheme.rep(gamma)

    rows = []
    bound_column: list[Fraction] = []
    for alpha in range(alpha_max + 1):
        # (i) hole-basis ratio, in closed form piecewise
        if gamma is not None and alpha >= gamma:
            vrho = rho.valuation()
            if vrho.is_infinite:
                displayed = Fraction(0)
            else:
                displayed = alpha * min(alpha * vrho.valuation - vtau, Fraction(0))
        else:
            displayed = -alpha * vtau
        bound_column.append(displayed)
        rhs = NormValue.of(min(displayed, Fraction(0)))

        # (ii) monomial images, read from the expansion fold
        try:
            monomial_worst = _monomial_side_valuation(family, alpha, delta_max)
        except CheckFailed as exc:
            rows.append(_failed_row(alpha, rhs, exc))
            continue
        lhs = min(monomial_worst, NormValue.of(displayed))
        rows.append({
            "alpha": alpha,
            "valuation_lhs": format_valuation(lhs),
            "valuation_rhs": format_valuation(rhs),
            "pass": monomial_worst >= NormValue.of(0) and lhs >= rhs,
        })

    # finite constant over tested alpha, and where the bound stabilizes at 0
    c_valuation = min([Fraction(0), *bound_column])
    stabilization_index = None
    for start in range(alpha_max + 1):
        if all(b >= 0 for b in bound_column[start:]) and (gamma is None or start >= gamma):
            stabilization_index = start
            break
    stable_found = stabilization_index is not None

    # (iii) pi^alpha tail: term valuations must grow past the stable index
    vpi = field.pi_valuation
    tail_ok = True
    if stable_found:
        tail = [min(Fraction(0), bound_column[a]) + a * vpi
                for a in range(stabilization_index, alpha_max + 1)]
        tail_ok = all(b > a for a, b in zip(tail, tail[1:]))

    report_pass = all(row["pass"] for row in rows) and stable_found and tail_ok
    report = {
        "scheme": family.scheme.name,
        "claim": "claim1-laurent",
        "params": {
            "hole_center": hole.center.to_text(),
            "hole_radius_valuation": str(vtau),
            "alpha_max": alpha_max,
            "beta_max": beta_max,
            "delta_max": delta_max,
            "gamma": gamma,
        },
        "rows": rows,
        "c_valuation": format_valuation(NormValue.of(c_valuation)),
        "tail_decay_pass": tail_ok,
        "pass": report_pass,
    }
    if stable_found:
        report["stabilization_index"] = stabilization_index
    return report


def verify_claim2(family: RepProductFamily, alpha_max: int) -> dict:
    """Global failure of decay: per alpha, from the exact expansion,

        gauss(member) + alpha v(pi) - v(alpha!) - 2 alpha v(pi) <= -alpha v(pi)

    with gauss(member) checked to be exactly 0 and the degree checked to be
    (alpha + 1) alpha^2.  The left side is the valuation of the alpha-th
    term of the pi-rescaled operator family; the inequality says those
    terms blow up at least like |pi|^{-alpha}.  Both numbers come from the
    expansion fold about an integral center c, the representatives' center
    of symmetry or their median: x -> c + y is an isometry of the closed
    unit disc, so member(c + y) has the degree and the Gauss valuation of
    member(x) (module docstring).  A fold that fails an exact check fails
    its row (``_failed_row``).
    """
    field = family.field
    vpi = field.pi_valuation
    rows = []
    for alpha in range(alpha_max + 1):
        rhs = NormValue.of(-alpha * vpi)
        try:
            degree, gauss = family._degree_and_gauss(alpha)
        except CheckFailed as exc:
            rows.append(_failed_row(alpha, rhs, exc))
            continue
        degree_ok = degree == family.member_expected_degree(alpha)
        gauss_ok = gauss == NormValue.of(0)
        lhs = gauss + NormValue.of(alpha * vpi
                                   - field.factorial_valuation(alpha)
                                   - 2 * alpha * vpi)
        rows.append({
            "alpha": alpha,
            "valuation_lhs": format_valuation(lhs),
            "valuation_rhs": format_valuation(rhs),
            "pass": degree_ok and gauss_ok and lhs <= rhs,
        })
    return {
        "scheme": family.scheme.name,
        "claim": "claim2",
        "params": {"alpha_max": alpha_max},
        "rows": rows,
        "pass": all(row["pass"] for row in rows),
    }
