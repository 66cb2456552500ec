"""The benchmark's three workloads, built as lists of units.

A unit is one verdict a user waits for: one ``nadops`` command run through
``cli.main`` (its output is the stdout bytes), or one library report (its
output is ``json.dumps(report, sort_keys=True)``).  A pass runs every unit
of a workload once.  ``build_units`` is called afresh for each pass, so no
pass reuses an earlier pass's ``RepProductFamily`` member cache, ``EndoOracle``
table or input objects.

``divergence`` and ``subdisc`` run the paper's fixed claims; their inputs do
not depend on the seed.  In ``algebra`` the seed picks one of ``ALGEBRA_POOL``
recorded input sets (random operators, polydiscs and the suite seed), so
every unit of every seed has a recorded output digest to check against.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from typing import Callable, NamedTuple

import nadops

# seeds map onto this many recorded algebra input sets
ALGEBRA_POOL = 32

# criterion 7's discs and criterion 8's holes: (centre, radius valuation)
DISCS = {
    "p=2": [("0", "1"), ("0", "2"), ("1", "1"), ("3", "2"), ("6", "1")],
    "hahn": [("0", "1"), ("1", "1/2"), ("2", "2"), ("3", "1/3"), ("4", "5/2")],
}
HOLES = {
    "p=2": [("3", "2"), ("1", "1")],
    "hahn": [("0", "1"), ("2", "3/2")],
}


class Unit(NamedTuple):
    name: str
    run: Callable[[], tuple[bytes, bool]]


def _cli_unit(lib, argv: list[str]) -> Unit:
    def run() -> tuple[bytes, bool]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = lib.cli.main(argv)
        return buffer.getvalue().encode(), code == 0
    return Unit("nadops " + " ".join(argv), run)


def _report_unit(name: str, make_report: Callable[[], dict]) -> Unit:
    def run() -> tuple[bytes, bool]:
        report = make_report()
        return json.dumps(report, sort_keys=True).encode(), report["pass"] is True
    return Unit(name, run)


def _divergence_units(lib) -> list[Unit]:
    return [
        _cli_unit(lib, ["counterexample", "claim2", "--backend", "p=2", "--alpha-max", "24"]),
        _cli_unit(lib, ["counterexample", "claim2", "--backend", "hahn", "--alpha-max", "17"]),
    ]


def _subdisc_units(lib) -> list[Unit]:
    units = []
    for backend, discs in DISCS.items():
        for center, radius in discs:
            units.append(_cli_unit(lib, [
                "counterexample", "claim1", "--backend", backend, "--mode", "disc",
                "--center", center, "--radius-valuation", radius, "--alpha-max", "10"]))
    for backend, holes in HOLES.items():
        for center, radius in holes:
            units.append(_cli_unit(lib, [
                "counterexample", "claim1", "--backend", backend, "--mode", "laurent",
                "--hole-center", center, "--hole-radius-valuation", radius,
                "--alpha-max", "10", "--beta-max", "10", "--delta-max", "20"]))
    return units


def _reseeded(lib, template: nadops.SparsePoly, rng: random.Random) -> nadops.SparsePoly:
    """``template``'s support with fresh seeded coefficients."""
    field = template.field
    return lib.SparsePoly.make(field, template.dim, [
        (exponent, lib.random_scalar(rng, field)) for exponent in template.coeffs])


def _algebra_units(lib, index: int) -> list[Unit]:
    """Seeded operator calculus on both backends, then the whole suite.

    Operator and polynomial shapes (supports, orders, dimensions, radii)
    come from a stream that is the same for every seed; the seed draws the
    scalar values and centres.  A pass therefore does about the same work
    on every seed, while its verdicts and outputs still differ.
    """
    units = []
    for field in (lib.PAdicField(2), lib.HahnField()):
        shape = random.Random(f"algebra-shape/{field.name}")
        rng = random.Random(f"algebra/{index}/{field.name}")

        def op(d: int, order: int, degree: int) -> nadops.DiffOperator:
            template = lib.random_operator(shape, field, d, order, degree)
            coeffs = {alpha: _reseeded(lib, poly, rng) for alpha, poly in template.coeffs.items()}
            return lib.DiffOperator.make(field, d, coeffs, order, template.divided)

        def centre(d: int) -> tuple:
            return tuple(field.from_rational(rng.randint(-4, 4)) for _ in range(d))

        roundtrip_ops = [op((i % 3) + 1, i % 5, i % 4) for i in range(200)]
        coherence = [(op(2, 2, 2), op(2, 2, 2),
                      _reseeded(lib, lib.random_poly(shape, field, 2, 3), rng))
                     for _ in range(60)]
        translation = []
        for _ in range(120):
            d = shape.randint(1, 2)
            P = op(d, shape.randint(0, 2), shape.randint(0, 2))
            alpha = tuple(shape.randint(0, 2) for _ in range(d))
            translation.append((P, centre(d), alpha))
        norms = []
        for _ in range(60):
            d = shape.randint(1, 2)
            P = op(d, shape.randint(0, 3), shape.randint(0, 2))
            if isinstance(field, lib.PAdicField):
                radii = tuple(Fraction(shape.randint(0, 2)) for _ in range(d))
            else:
                radii = tuple(Fraction(shape.randint(0, 6), shape.choice((1, 2, 3)))
                              for _ in range(d))
            norms.append((P, lib.Polydisc(centre(d), radii), shape.randint(0, 2)))

        units.append(_report_unit(f"roundtrip/{field.name}",
                                  lambda ops=roundtrip_ops: _roundtrip(lib, ops)))
        units.append(_report_unit(f"coherence/{field.name}",
                                  lambda cases=coherence: _coherence(lib, cases)))
        units.append(_report_unit(f"translation/{field.name}",
                                  lambda cases=translation: _translation(lib, cases)))
        units.append(_report_unit(f"norms/{field.name}",
                                  lambda cases=norms: _norms(lib, cases)))
    units.append(_cli_unit(lib, ["suite", "--seed", str(123 + index)]))
    return units


def _roundtrip(lib, ops) -> dict:
    reports = [lib.roundtrip_report(P, operator_id=f"seeded-{i}")
               for i, P in enumerate(ops)]
    return {"reports": reports, "pass": all(r["pass"] for r in reports)}


def _coherence(lib, cases) -> dict:
    rows = []
    for P, Q, f in cases:
        lhs = lib.apply_operator(lib.compose(P, Q), f)
        rhs = lib.apply_operator(P, lib.apply_operator(Q, f))
        rows.append({"image": lib.poly_to_text(lhs), "pass": lhs == rhs})
    return {"rows": rows, "pass": all(r["pass"] for r in rows)}


def _translation(lib, cases) -> dict:
    rows = []
    for P, center, alpha in cases:
        oracle = lib.EndoOracle.from_operator(P, degree_cap=4)
        ok = lib.translation_invariance_check(oracle, center, alpha)
        symbol = lib.symbol_coefficient(oracle, alpha)
        rows.append({"symbol": lib.poly_to_text(symbol), "pass": ok})
    return {"rows": rows, "pass": all(r["pass"] for r in rows)}


def _norms(lib, cases) -> dict:
    rows = []
    for P, domain, n in cases:
        lower, upper = lib.operator_norm_bracket(P, domain)
        decay = lib.coefficient_decay_report(P, n)
        rows.append({
            "domain": lib.domain_to_json(domain),
            "lower_valuation": lib.format_valuation(lower),
            "upper_valuation": lib.format_valuation(upper),
            "decay": decay,
            "pass": upper <= lower and decay["pass"],
        })
    return {"rows": rows, "pass": all(r["pass"] for r in rows)}


def algebra_index(seed: int) -> int:
    return seed % ALGEBRA_POOL


def build_units(workload: str, seed: int, lib=nadops) -> list[Unit]:
    """Fresh inputs for one pass of ``workload``, run through the package ``lib``."""
    if workload == "divergence":
        return _divergence_units(lib)
    if workload == "subdisc":
        return _subdisc_units(lib)
    if workload == "algebra":
        return _algebra_units(lib, algebra_index(seed))
    raise ValueError(f"unknown workload {workload!r}")


def digest_table(digests: dict, workload: str, seed: int) -> dict[str, str]:
    """The recorded unit digests that apply to this workload and seed."""
    if workload == "algebra":
        return digests[workload][str(algebra_index(seed))]
    return digests[workload]
