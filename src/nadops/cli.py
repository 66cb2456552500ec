"""Command line front end: verification suites and norm queries with
machine-readable output.

Every command prints one JSON document (or its flattened CSV rows) and exits
0 exactly when every reported check passed, 1 when a check ran and failed,
and 2 with a one-line error on bad input, including input that leaves no
check to run.  A check that fails inside a computation fails the row it
belongs to (a claim's alpha, a classified family), and the report still
prints; one outside every row would print one 'error: check failed: ...'
line and exit 1.  Reports never contain timestamps or environment details
and all randomness flows through --seed, so a rerun with the same
arguments is byte-identical.

A run builds the parser of only the commands it can reach: the one its
first word names, and for ``suite`` also the commands its runs name, which
it parses with that same parser.  Building the parser of every command
takes about as long as a small verdict, since argparse sizes the terminal
for every option and looks up message catalogues for every parser.  Any
other argv (none, an option or an unknown word first) gets the parser of
every command, so the program's help, its usage and its errors list every
command; a command's own help, usage and errors never list the others, so
every text is the same either way.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction

from .affinoid import (
    Hole,
    SparsePoly,
    _parse_rational,
    domain_from_json,
    poly_to_text,
    unit_polydisc,
    mi_box,
    mi_up_to_total,
)
from .counterexample import (
    CheckFailed,
    RepProductFamily,
    default_scheme,
    rational_scheme,
    verify_claim1_disc,
    verify_claim1_laurent,
    verify_claim2,
)
from .operators import (
    CoefficientFamily,
    DECREASING_WITNESSED,
    DecayBound,
    DiffOperator,
    EndoOracle,
    NON_DECREASING_WITNESSED,
    _norm_bracket_terms,
    coefficient_decay_report,
    classify_rapid_decay,
    combinatorial_delta,
    operator_from_text,
    radius_seminorm,
    random_operator,
    roundtrip_report,
    symbol_coefficient,
    total_symbol,
)
from .scalars import Field, NormValue, Scalar, backend_from_name, format_valuation, parse_scalar


def _load_operator(path: str, field: Field) -> DiffOperator:
    with open(path, "r", encoding="utf-8") as handle:
        return operator_from_text(handle.read(), field)


def _scalar_arg(text: str, field: Field) -> Scalar:
    """Accept a plain rational like 3 or -1/2, or the full scalar syntax."""
    q = _parse_rational(text)
    return parse_scalar(text, field) if q is None else field.from_rational(q)


# ---------------------------------------------------------------------------
# command handlers; each returns (report, flat rows for csv)


def _cmd_roundtrip(args) -> tuple[dict, list[dict]]:
    field = backend_from_name(args.backend)
    reports = []
    if args.operator:
        reports.append(roundtrip_report(_load_operator(args.operator, field),
                                        operator_id=args.operator))
    else:
        rng = random.Random(args.seed)
        for i in range(args.count):
            P = random_operator(rng, field, args.d, args.alpha_max, args.degree_cap)
            reports.append(roundtrip_report(P, operator_id=f"seeded-{i}"))
    report = {
        "command": "roundtrip",
        "backend": field.name,
        "seed": args.seed,
        "params": {"count": len(reports), "d": args.d,
                   "order": args.alpha_max, "coeff_degree": args.degree_cap},
        "operators": reports,
        "pass": all(r["pass"] for r in reports),
    }
    rows = [dict(check, operator_id=r["operator_id"])
            for r in reports for check in r["checks"]]
    return report, rows


def _cmd_identity(args) -> tuple[dict, list[dict]]:
    rows = []
    for gamma in mi_up_to_total(args.d, args.gamma_cap):
        count = 0
        ok = True
        try:
            for alpha in mi_box(gamma):
                combinatorial_delta(alpha, gamma)
                count += 1
        except ArithmeticError:
            ok = False
        rows.append({"gamma": list(gamma), "checks": count, "pass": ok})
    report = {
        "command": "identity",
        "backend": None,
        "seed": args.seed,
        "params": {"gamma_cap": args.gamma_cap, "d": args.d},
        "rows": rows,
        "pass": all(r["pass"] for r in rows),
    }
    return report, rows


def _worked_families(field: Field) -> list[tuple[str, CoefficientFamily, str]]:
    # members pi^(a^2), 1 and pi^(2a), stated by their Gauss valuations
    vpi = field.pi_valuation
    return [
        ("quadratic-valuation-growth",
         CoefficientFamily(field, 1, lambda a: NormValue.of(a[0] * a[0] * vpi),
                           bound=DecayBound(quad=vpi)),
         DECREASING_WITNESSED),
        ("constant-unit",
         CoefficientFamily(field, 1, lambda a: NormValue.of(0)),
         NON_DECREASING_WITNESSED),
        ("linear-valuation-growth",
         CoefficientFamily(field, 1, lambda a: NormValue.of(2 * a[0] * vpi)),
         NON_DECREASING_WITNESSED),
        ("rep-product",
         RepProductFamily(default_scheme(field)).family(),
         NON_DECREASING_WITNESSED),
    ]


def _cmd_classify(args) -> tuple[dict, list[dict]]:
    field = backend_from_name(args.backend)
    rows = []
    for name, family, expected in _worked_families(field):
        # a member whose fold fails an exact check fails its family's row;
        # the other families still run
        try:
            verdict = classify_rapid_decay(family, r_max=args.r_max, index_cap=args.index_cap)
        except CheckFailed as exc:
            rows.append({"family": name, "verdict": None, "error": str(exc),
                         "expected": expected, "pass": False})
            continue
        rows.append({"family": name, "verdict": verdict,
                     "expected": expected, "pass": verdict == expected})
    report = {
        "command": "classify",
        "backend": field.name,
        "seed": args.seed,
        "params": {"r_max": args.r_max, "index_cap": args.index_cap},
        "rows": rows,
        "pass": all(r["pass"] for r in rows),
    }
    return report, rows


def _cmd_norms(args) -> tuple[dict, list[dict]]:
    field = backend_from_name(args.backend)
    P = _load_operator(args.operator, field)
    if args.domain:
        try:
            descriptor = json.loads(args.domain)
        except RecursionError:
            raise ValueError("the domain descriptor nests too deeply") from None
        domain = domain_from_json(descriptor, field)
    else:
        domain = unit_polydisc(field, P.dim)
    lower, upper, sups, terms = _norm_bracket_terms(P, domain)
    # each row checks the decay estimate against the norm read from the action side
    rows = [{"index": list(alpha),
             "gauss": format_valuation(P.coeffs[alpha].gauss_valuation()),
             "sup": format_valuation(sups[alpha]),
             "pass": terms[alpha] >= lower}
            for alpha in sorted(P.coeffs)]
    seminorm_r = args.radius_valuation
    report = {
        "command": "norms",
        "backend": field.name,
        "seed": args.seed,
        "params": {"operator": args.operator,
                   "seminorm_radius_valuation": str(seminorm_r)},
        "rows": rows,
        "seminorm_valuation": format_valuation(radius_seminorm(P, seminorm_r)),
        "norm_bracket": {"lower_valuation": format_valuation(lower),
                         "upper_valuation": format_valuation(upper)},
        "pass": all(r["pass"] for r in rows),
    }
    return report, rows


def _cmd_counterexample(args) -> tuple[dict, list[dict]]:
    field = backend_from_name(args.backend)
    scheme = rational_scheme(field) if args.scheme == "rational" else default_scheme(field)
    family = RepProductFamily(scheme)
    reports = []
    if args.claim == "claim2":
        reports.append(verify_claim2(family, args.alpha_max))
    else:
        if args.mode in ("disc", "both"):
            center = _scalar_arg(args.center, field)
            reports.append(verify_claim1_disc(
                family, center, args.radius_valuation, args.alpha_max))
        if args.mode in ("laurent", "both"):
            hole = Hole(_scalar_arg(args.hole_center, field), args.hole_radius_valuation)
            reports.append(verify_claim1_laurent(
                family, hole, args.alpha_max, args.beta_max, args.delta_max))
    report = {
        "command": f"counterexample {args.claim}",
        "backend": field.name,
        "seed": args.seed,
        "params": {"scheme": scheme.name, "alpha_max": args.alpha_max},
        "reports": reports,
        "pass": all(r["pass"] for r in reports),
    }
    rows = [dict(row, claim=r["claim"]) for r in reports for row in r["rows"]]
    return report, rows


def _cmd_symbol(args) -> tuple[dict, list[dict]]:
    field = backend_from_name(args.backend)
    P = _load_operator(args.operator, field)
    cap = P.order if args.degree_cap is None else args.degree_cap
    oracle = EndoOracle.from_operator(P, degree_cap=cap)
    rows = []
    for alpha in mi_up_to_total(P.dim, cap):
        got = symbol_coefficient(oracle, alpha)
        ok = got == P.plain_coefficient(alpha)
        rows.append({"index": list(alpha), "coefficient": poly_to_text(got), "pass": ok})
    report = {
        "command": "symbol",
        "backend": field.name,
        "seed": args.seed,
        "params": {"operator": args.operator, "degree_cap": cap},
        "rows": rows,
        "total_symbol": poly_to_text(total_symbol(oracle, cap)),
        "pass": all(r["pass"] for r in rows),
    }
    return report, rows


def _cmd_decay(args) -> tuple[dict, list[dict]]:
    field = backend_from_name(args.backend)
    P = _load_operator(args.operator, field)
    inner = coefficient_decay_report(P, args.n, operator_id=args.operator)
    report = {
        "command": "decay",
        "backend": field.name,
        "seed": args.seed,
        "params": {"operator": args.operator, "n": args.n},
        "report": inner,
        "pass": inner["pass"],
    }
    return report, inner["checks"]


def _builtin_sample(field: Field) -> DiffOperator:
    """sum over k <= 3 of pi^(k^2) d^(k) in one variable; rapidly decaying."""
    pi = field.uniformizer()
    coeffs = {(k,): SparsePoly.constant(field, 1, pi ** (k * k)) for k in range(4)}
    return DiffOperator.make(field, 1, coeffs, divided=True)


# (row label, argv) per backend; each argv restates only what differs from
# the parser's defaults
_SUITE_RUNS = [
    ("roundtrip", ["roundtrip", "--count", "5", "--d", "2", "--alpha-max", "2"]),
    ("classify", ["classify", "--index-cap", "8"]),
    ("claim2", ["counterexample", "claim2", "--alpha-max", "8"]),
    ("claim1", ["counterexample", "claim1", "--alpha-max", "6", "--beta-max", "4",
                "--delta-max", "6"]),
]


def _cmd_suite(args) -> tuple[dict, list[dict]]:
    backends = ["p=2", "hahn"]
    reports = []
    rows: list[dict] = []

    def run(label: str, argv: list[str], backend: str) -> None:
        sub = args.parser.parse_args([*argv, "--backend", backend, "--seed", str(args.seed)])
        sub_report, sub_rows = sub.handler(sub)
        reports.append(sub_report)
        rows.extend(dict(r, report=label) for r in sub_rows)

    run("identity", ["identity", "--gamma-cap", "4"], backends[0])
    for backend in backends:
        for name, argv in _SUITE_RUNS:
            run(f"{name}/{backend}", argv, backend)

        field = backend_from_name(backend)
        inner = coefficient_decay_report(_builtin_sample(field), 1,
                                         operator_id="builtin-sample")
        reports.append({"command": "decay", "backend": field.name,
                        "seed": args.seed, "params": {"n": 1}, "report": inner,
                        "pass": inner["pass"]})
        rows.extend(dict(r, report=f"decay/{backend}") for r in inner["checks"])

    report = {
        "command": "suite",
        "backend": backends,
        "seed": args.seed,
        "params": {},
        "reports": reports,
        "pass": all(r["pass"] for r in reports),
    }
    return report, rows


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _natural(minimum: int):
    """argparse type: an integer >= minimum."""
    def natural(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value
    return natural


def _rational(text: str) -> Fraction:
    """argparse type: a rational number such as 2, -3 or 3/2."""
    q = _parse_rational(text)
    if q is None:
        raise argparse.ArgumentTypeError(f"expected a rational number such as 2, -3 or 3/2, "
                                          f"got {text!r}")
    return q


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default="p=2",
                        help="'hahn' or 'p=<prime>' (default p=2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for fuzzed inputs; fixes the run byte-for-byte")
    parser.add_argument("--format", choices=("json", "csv"), default="json")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one 'error: ...' line and exit 2;
    add_subparsers gives the subcommands the same class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _roundtrip_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--count", type=_natural(1), default=25, help="number of seeded operators")
    p.add_argument("--d", type=_natural(1), default=1)
    p.add_argument("--alpha-max", type=_natural(0), default=3, help="truncation order")
    p.add_argument("--degree-cap", type=_natural(0), default=2, help="coefficient degree")
    p.add_argument("--operator", help="check this operator file instead of fuzzing")
    p.set_defaults(handler=_cmd_roundtrip)


def _identity_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--gamma-cap", type=_natural(0), default=8)
    p.add_argument("--d", type=_natural(1), default=2)
    p.set_defaults(handler=_cmd_identity)


def _classify_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--r-max", type=_natural(0), default=3)
    p.add_argument("--index-cap", type=_natural(0), default=12)
    p.set_defaults(handler=_cmd_classify)


def _norms_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--operator", required=True)
    p.add_argument("--domain", help="domain descriptor as JSON")
    p.add_argument("--radius-valuation", type=_rational, default="0",
                   help="seminorm radius valuation")
    p.set_defaults(handler=_cmd_norms)


def _counterexample_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("claim", choices=("claim1", "claim2"))
    _add_common(p)
    p.add_argument("--scheme", choices=("default", "rational"), default="default",
                   help="rational = enumerate all residue classes (hahn only)")
    p.add_argument("--alpha-max", type=_natural(0), default=10)
    p.add_argument("--mode", choices=("disc", "laurent", "both"), default="both",
                   help="claim1 only: which subdomain estimates to run")
    p.add_argument("--center", default="0", help="disc center (rational or scalar syntax)")
    p.add_argument("--radius-valuation", type=_rational, default="1")
    p.add_argument("--hole-center", default="0")
    p.add_argument("--hole-radius-valuation", type=_rational, default="1")
    p.add_argument("--beta-max", type=_natural(0), default=5, help="hole basis cap")
    p.add_argument("--delta-max", type=_natural(0), default=8, help="monomial basis cap")
    p.set_defaults(handler=_cmd_counterexample)


def _symbol_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--operator", required=True)
    p.add_argument("--degree-cap", type=_natural(0), default=None)
    p.set_defaults(handler=_cmd_symbol)


def _decay_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--operator", required=True)
    p.add_argument("--n", type=_natural(0), default=1, help="subdisc radius exponent")
    p.set_defaults(handler=_cmd_decay)


def _suite_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.set_defaults(handler=_cmd_suite)


# command -> (its help line, what adds its arguments); the full parser lists
# the commands in this order
_COMMANDS = {
    "roundtrip": ("recover operator coefficients from monomial actions", _roundtrip_arguments),
    "identity": ("alternating factorial sum collapses to a delta", _identity_arguments),
    "classify": ("rapid-decrease verdicts for worked families", _classify_arguments),
    "norms": ("gauss / sup / seminorm and the operator norm on a polydisc, from its "
              "action and its coefficients (equal: alpha! b_alpha is an integer "
              "combination of monomial images)", _norms_arguments),
    "counterexample": ("bounded on subdomains, divergent globally", _counterexample_arguments),
    "symbol": ("emit the total symbol of an operator file", _symbol_arguments),
    "decay": ("coefficient decay forced by subdisc boundedness", _decay_arguments),
    "suite": ("the full desk-scale verification sweep", _suite_arguments),
}

# the suite parses its runs, and its identity run, with the parser main built
_SUITE_COMMANDS = ("suite", "identity", *(argv[0] for _, argv in _SUITE_RUNS))


def _reachable_commands(argv: list[str]) -> tuple[str, ...] | None:
    """The commands a run of argv can reach: the one argv[0] names, with the
    suite's own when that is the suite.  None stands for every command: no
    argv, an option or an unknown word in first place, whose help, usage or
    error lists them all."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    return _SUITE_COMMANDS if argv[0] == "suite" else (argv[0],)


def build_parser(commands: tuple[str, ...] | None = None) -> argparse.ArgumentParser:
    """The parser of the named commands, in the table's order; of every
    command when ``commands`` is None."""
    parser = _Parser(
        prog="nadops",
        description="Exact verification suites for differential operators "
                    "over non-Archimedean polydiscs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        if commands is None or name in commands:
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            if name == "suite":
                # the suite parses each of its runs with this same parser
                p.set_defaults(parser=parser)
    return parser


def _to_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    columns = sorted({key for row in rows for key in row})
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="", lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: v if isinstance(v, str) else json.dumps(v)
                         for k, v in row.items()})
    return buffer.getvalue()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(_reachable_commands(argv)).parse_args(argv)
    try:
        report, rows = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        return 1
    if not rows:
        print("error: the input leaves no check to run", file=sys.stderr)
        return 2
    if args.format == "csv":
        sys.stdout.write(_to_csv(rows))
    else:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
