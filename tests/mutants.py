"""Mutants of the package that the tests must kill.

Each entry breaks one verdict-bearing step of ``src/nadops`` on purpose: it
names the module, an exact text that occurs once under ``src/``, the text
that replaces it, and the test files that must fail on the result.  The
runner copies ``src/`` into a temporary directory, applies one mutant to
the copy, and runs ``pytest -x -q`` on the entry's test files in one
subprocess that imports the copy; a mutant whose tests all pass survives.
Mutants run one at a time.  From the repository root::

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

It prints one line per mutant and exits 1 when any survives.  The file's
name does not start with ``test_``, so pytest does not collect it;
``tests/test_mutants.py`` checks, without running any mutant, that every
old text still occurs exactly once, so the list cannot go stale silently.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    module: str  # path under src/nadops
    old: str
    new: str
    tests: tuple[str, ...]  # paths from the repository root


TIMEOUT_S = 900  # a mutant whose tests run longer counts as killed

COUNTEREXAMPLE = ("tests/test_counterexample.py",)
SCALARS = ("tests/test_scalars.py",)
OPERATORS = ("tests/test_operators.py",)
AFFINOID = ("tests/test_affinoid.py",)
CLI = ("tests/test_cli.py",)

MUTANTS = [
    # the expansion stream: one-root row, lead, unit scale
    Mutant("one-root row without its remainder check", "counterexample.py",
           "            c, remainder = divmod(c * w, d)\n"
           "            if remainder:\n"
           "                raise CheckFailed(\"coefficient recurrence produced a non-integer\")\n",
           "            c, remainder = divmod(c * w, d)\n",
           COUNTEREXAMPLE),
    Mutant("stream without its lead check", "counterexample.py",
           "    if c != lead:\n"
           "        raise CheckFailed(\"coefficient recurrence lost the leading term\")\n",
           "",
           COUNTEREXAMPLE),
    Mutant("one-root row lowers its weight twice", "counterexample.py",
           "            w -= A[1]\n",
           "            w -= 2 * A[1]\n",
           COUNTEREXAMPLE),
    Mutant("roots scaled by a common denominator that is not a unit", "counterexample.py",
           "        if not self._is_integral(Fraction(1, scale)):\n"
           "            scale = 1\n",
           "",
           COUNTEREXAMPLE),
    Mutant("roots scaled when their denominators differ", "counterexample.py",
           "        scale = denominators.pop() if len(denominators) == 1 else 1\n",
           "        scale = max(denominators, default=1)\n",
           COUNTEREXAMPLE),
    Mutant("mu paired with -mu without comparing multiplicities", "counterexample.py",
           "    if all(merged.get(-mu) == e for mu, e in merged.items()):\n",
           "    if all(-mu in merged for mu in merged):\n",
           COUNTEREXAMPLE),
    # the fold
    Mutant("fold about a non-integral midpoint", "counterexample.py",
           "            if not (self._is_integral(c)\n"
           "                    and all(",
           "            if not (all(",
           COUNTEREXAMPLE),
    Mutant("fold reads numerator k at degree shift + k", "counterexample.py",
           "            for j, value in zip(count(expansion.shift, expansion.step), "
           "expansion.numerators):\n",
           "            for j, value in zip(count(expansion.shift), expansion.numerators):\n",
           COUNTEREXAMPLE),
    Mutant("fold stops taking valuations after the first nonzero numerator", "counterexample.py",
           "                    if least is None or num * j < least:\n",
           "                    if least is None:\n",
           COUNTEREXAMPLE),
    Mutant("series center not clamped to min(r, v(s))", "counterexample.py",
           "        if q is not None and q < r:\n"
           "            r = q\n",
           "",
           COUNTEREXAMPLE),
    Mutant("series center always clamped to v(s)", "counterexample.py",
           "        if q is not None and q < r:\n",
           "        if q is not None:\n",
           COUNTEREXAMPLE),
    Mutant("series center read at radius 0", "counterexample.py",
           "        if q is not None and q < r:\n"
           "            r = q\n",
           "        if q is not None:\n"
           "            r = Fraction(0)\n",
           COUNTEREXAMPLE),
    Mutant("claim 1 disc folded without its radius", "counterexample.py",
           "            _, lhs = family._degree_and_gauss(alpha, center, radius_valuation)\n",
           "            _, lhs = family._degree_and_gauss(alpha, center)\n",
           COUNTEREXAMPLE),
    # rationals and Hahn series
    Mutant("_qadd without the gcd of its equal-denominator branch", "scalars.py",
           "        n = na + nb\n"
           "        g = gcd(n, da)\n"
           "        return (n, da) if g == 1 else (n // g, da // g)\n",
           "        n = na + nb\n"
           "        return (n, da)\n",
           SCALARS),
    Mutant("_qdiv without its sign flip", "scalars.py",
           "    return (-n, -d) if d < 0 else (n, d)\n",
           "    return (n, d)\n",
           SCALARS),
    Mutant("Hahn exponent pairs sorted as plain tuples", "scalars.py",
           "    return tuple(sorted(terms, key=lambda term: term[0][0] * (L // term[0][1])))\n",
           "    return tuple(sorted(terms))\n",
           SCALARS),
    Mutant("Hahn merge keeps a zero coefficient", "scalars.py",
           "                c = _qadd(ta[1], tb[1])\n"
           "                if c[0]:\n"
           "                    out.append((ea, c))\n",
           "                c = _qadd(ta[1], tb[1])\n"
           "                out.append((ea, c))\n",
           SCALARS),
    Mutant("Hahn merge drops its tail", "scalars.py",
           "        out.extend(a[i:])\n"
           "        out.extend(b[j:])\n",
           "",
           SCALARS),
    Mutant("Hahn product over the largest exponent denominator, not the lcm", "scalars.py",
           "        L = lcm(*[e[1] for e, _ in a], *[e[1] for e, _ in b])\n",
           "        L = max(*[e[1] for e, _ in a], *[e[1] for e, _ in b])\n",
           SCALARS + OPERATORS),
    Mutant("p-adic min_valuation ignores the denominator", "scalars.py",
           "            v = (_int_valuation(n, p) if d % p else -_int_valuation(d, p)) "
           "* denominator + w\n",
           "            v = _int_valuation(n, p) * denominator + w\n",
           SCALARS + OPERATORS),
    Mutant("Hahn weighted valuation without the common denominator", "scalars.py",
           "            e = (n * denominator + w * d, d * denominator)\n",
           "            e = (n + w * d, d)\n",
           AFFINOID + OPERATORS),
    # polynomials, sup norms and operators
    Mutant("_combine keeps a zero coefficient", "affinoid.py",
           "for exponent, value in acc.items() if not is_zero(value)})\n",
           "for exponent, value in acc.items()})\n",
           AFFINOID + OPERATORS),
    Mutant("sup norm without its weights", "affinoid.py",
           "    return moved.weighted_valuation(*domain.weights)\n",
           "    return moved.gauss_valuation()\n",
           AFFINOID + OPERATORS),
    Mutant("weighted valuation weighs only the first coordinate", "affinoid.py",
           "            [sum(map(operator.mul, exponent, weights)) for exponent in self.coeffs],\n",
           "            [exponent[0] * weights[0] for exponent in self.coeffs],\n",
           AFFINOID + OPERATORS),
    Mutant("polydisc without its value-group check", "affinoid.py",
           "            self.field.check_valuation(r)\n",
           "",
           AFFINOID + CLI),
    Mutant("apply_operator without its binomial or falling-factorial weight", "operators.py",
           "                parts.append((terms, times(coeff.q, (k, 1)), "
           "tuple(map(sub, exponent, alpha))))\n",
           "                parts.append((terms, coeff.q, tuple(map(sub, exponent, alpha))))\n",
           OPERATORS),
    Mutant("compose caches derivatives by gamma alone", "operators.py",
           "                derivative = derivatives.get((beta, gamma))\n"
           "                if derivative is None:\n"
           "                    derivative = derivatives[beta, gamma] = ",
           "                derivative = derivatives.get(gamma)\n"
           "                if derivative is None:\n"
           "                    derivative = derivatives[gamma] = ",
           OPERATORS),
    Mutant("binomial rows of (x - c)^beta without the sign of -c", "operators.py",
           "        minus_c = field.neg(c.q)\n",
           "        minus_c = c.q\n",
           OPERATORS),
    Mutant("action side without its -sum delta_i r_i", "operators.py",
           "                    + NormValue(Fraction(-shift, denominator)))\n",
           "                    )\n",
           OPERATORS),
    Mutant("coefficient side without v(alpha!)", "operators.py",
           "    terms = {alpha: sup + NormValue.of(sum(map(field.factorial_valuation, alpha))\n"
           "                                       - sum(map(operator.mul, alpha, radii)))\n",
           "    terms = {alpha: sup + NormValue.of(-sum(map(operator.mul, alpha, radii)))\n",
           OPERATORS),
    Mutant("coefficient side reads alpha_1 r_1 for sum alpha_i r_i", "operators.py",
           "                                       - sum(map(operator.mul, alpha, radii)))\n",
           "                                       - alpha[0] * radii[0])\n",
           OPERATORS),
    Mutant("decay report reads the Gauss valuation for the sup on X_n", "operators.py",
           "        coefficients.append((alpha, sup_norm(a, dom), a.gauss_valuation()))\n",
           "        coefficients.append((alpha, a.gauss_valuation(), a.gauss_valuation()))\n",
           OPERATORS),
]


def occurrences(text: str) -> int:
    """How often ``text`` occurs in the package's source, over every module."""
    return sum(path.read_text(encoding="utf-8").count(text)
               for path in sorted((SRC / "nadops").rglob("*.py")))


def run(mutant: Mutant) -> tuple[bool, float]:
    """Apply ``mutant`` to a copy of src/ and run its tests there: (killed, seconds)."""
    with tempfile.TemporaryDirectory(prefix="nadops-mutant-") as workdir:
        copy = Path(workdir) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / "nadops" / mutant.module
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times "
                             f"in {mutant.module}")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONOPTIMIZE", None)
        # the run's cwd is the temporary directory, so Hypothesis keeps the
        # mutant's failing examples out of the repository's database
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *(str(ROOT / path) for path in mutant.tests)],
                cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT_S)
            killed = proc.returncode != 0
        except subprocess.TimeoutExpired:
            killed = True
        return killed, time.perf_counter() - start


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"error: no mutant named {sorted(unknown)}", file=sys.stderr)
        return 2
    survivors = []
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        killed, seconds = run(mutant)
        print(f"{'killed ' if killed else 'SURVIVED'} {seconds:6.1f}s  {mutant.name}", flush=True)
        if not killed:
            survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {survivors}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
