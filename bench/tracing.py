"""Spans at the layer boundaries of nadops, recorded from outside the package.

``Tracer.install`` wraps the public functions named in ``SPANS`` and
``LEAVES``, counts ``EndoOracle.query`` and ``CoefficientFamily.member``
calls, and rebinds each wrapper at every module binding the
original is reachable through (``apply_operator`` is imported by name into
``counterexample``, the ``verify_claim*`` functions into ``cli``, and so
on), so no call goes around the tracer.  ``Tracer.uninstall`` puts every
original back, so traced and untraced passes can alternate in one process.
Nothing under ``src/`` changes.

A span records name, start, end and parent.  A layer's self time is its
spans' time minus the time of their children.  Scalar calls are too many to
keep as spans: each outermost call into ``scalars`` is timed and added to
its parent span's leaf count and leaf time instead.  Scalar calls made from
inside another scalar call (``__sub__`` calling ``__add__``) are part of the
outer call and are not counted again.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

from nadops import affinoid, cli, counterexample, operators, scalars

LAYERS = ("scalars", "affinoid", "operators", "counterexample", "cli")

# (owner, attribute, span name); several attributes may share one name
SPANS = [
    (affinoid.SparsePoly, "__mul__", "affinoid.poly_mul"),
    (affinoid.SparsePoly, "__pow__", "affinoid.poly_mul"),
    (affinoid.SparsePoly, "__add__", "affinoid.poly_add"),
    (affinoid.SparsePoly, "__sub__", "affinoid.poly_add"),
    (affinoid.SparsePoly, "derivative", "affinoid.derivative"),
    (affinoid.SparsePoly, "substitute_affine", "affinoid.substitute_affine"),
    (affinoid.SparsePoly, "gauss_valuation", "affinoid.gauss_valuation"),
    (affinoid, "rescale_to_subdisc", "affinoid.rescale_to_subdisc"),
    (affinoid, "sup_norm", "affinoid.sup_norm"),
    (operators, "apply_operator", "operators.apply_operator"),
    (operators, "compose", "operators.compose"),
    (operators, "symbol_coefficient", "operators.symbol_coefficient"),
    (operators, "operator_norm_bracket", "operators.norm_bracket"),
    (operators, "classify_rapid_decay", "operators.classify"),
    (operators, "roundtrip_report", "operators.roundtrip_report"),
    (operators, "translation_invariance_check", "operators.translation_invariance"),
    (operators, "coefficient_decay_report", "operators.decay_report"),
    (operators, "combinatorial_delta", "operators.combinatorial_delta"),
    (operators, "random_operator", "operators.random"),
    (operators, "random_poly", "operators.random"),
    (counterexample.RepProductFamily, "member", "counterexample.member"),
    (counterexample.RepProductFamily, "member_on_subdisc", "counterexample.member_on_subdisc"),
    (counterexample.RepProductFamily, "matching_indices", "counterexample.matching_indices"),
    (counterexample, "verify_claim1_disc", "counterexample.verify"),
    (counterexample, "verify_claim1_laurent", "counterexample.verify"),
    (counterexample, "verify_claim2", "counterexample.verify"),
    (cli, "main", "cli.main"),
]

# (owner, attribute, leaf group) for the hot scalar calls
LEAVES = [(scalars.Scalar, "valuation", "valuation")]
LEAVES += [(scalars.Scalar, name, "arith") for name in (
    "__add__", "__neg__", "__sub__", "__mul__", "scaled", "div", "__truediv__", "__pow__")]
for _field in (scalars.PAdicField, scalars.HahnField):
    LEAVES.append((_field, "from_rational", "from_rational"))
    LEAVES += [(_field, name, "other")
               for name in ("element_of_valuation", "factorial_valuation")]
LEAVES.append((scalars.HahnField, "from_terms", "other"))

def _payload_bits(x: scalars.Scalar) -> int:
    """Numerator plus denominator bit lengths of what ``valuation`` reads."""
    payload = x.payload
    if isinstance(payload, Fraction):
        return payload.numerator.bit_length() + payload.denominator.bit_length()
    if not payload:
        return 0
    exponent = payload[0][0]
    return exponent.numerator.bit_length() + exponent.denominator.bit_length()


def _rebind(replacements: dict[int, object]) -> None:
    """Replace every object whose id is a key, in every loaded module's namespace."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if isinstance(namespace, dict):
            for key in [k for k, v in namespace.items() if id(v) in replacements]:
                namespace[key] = replacements[id(namespace[key])]


class Tracer:
    """In-memory spans and per-pass aggregates for one traced process."""

    def __init__(self) -> None:
        # finished spans: (id, name, start, end, parent id, leaf calls, leaf s)
        self.spans: list[tuple] = []
        # open frames: [id, child s, leaf calls, leaf s]; frame 0 is the benchmark
        self._stack: list[list] = [[0, 0.0, 0, 0.0]]
        self._next_id = 1
        self._in_leaf = False
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.max_terms = 0
        self.entered: set[str] = set()
        # (owner, attribute, original, wrapper), built on the first install
        self._installed: list[tuple] = []

    # -- aggregates ---------------------------------------------------------

    def reset_pass(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.max_terms = 0

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        stack, spans, self_s, calls = self._stack, self.spans, self.self_s, self.calls
        clock = time.perf_counter
        after = self._AFTER.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0.0, 0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                parent[1] += duration
                spans.append((span_id, name, start, end, parent[0], frame[2], frame[3]))
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _leaf(self, group: str, fn):
        stack, self_s, calls, counts = self._stack, self.self_s, self.calls, self.counts
        clock = time.perf_counter
        name = "scalars." + group
        measure_bits = group == "valuation"

        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self._in_leaf = False
                frame = stack[-1]
                frame[1] += duration
                frame[2] += 1
                frame[3] += duration
                self_s[name] += duration
                calls[name] += 1
                if measure_bits:
                    counts["scalars.valuation.input_bits"] += _payload_bits(args[0])

        return wrapper

    def _oracle_query(self, fn):
        counts = self.counts

        def wrapper(oracle, beta):
            counts["operators.oracle.queries"] += 1
            if tuple(beta) in oracle._cache:
                counts["operators.oracle.hits"] += 1
            return fn(oracle, beta)

        return wrapper

    def _family_member(self, fn):
        counts = self.counts

        def wrapper(family, alpha):
            counts["operators.classify.members"] += 1
            return fn(family, alpha)

        return wrapper

    def _after_gauss(self, args, result) -> None:
        terms = len(args[0].coeffs)
        self.counts["affinoid.gauss_valuation.terms"] += terms
        self.max_terms = max(self.max_terms, terms)

    def _after_poly(self, args, result) -> None:
        if isinstance(result, affinoid.SparsePoly):
            self.max_terms = max(self.max_terms, len(result.coeffs))

    def _after_member(self, args, result) -> None:
        self.counts["counterexample.coeffs_built"] += len(result.coeffs)
        self.max_terms = max(self.max_terms, len(result.coeffs))

    _AFTER = {
        "affinoid.gauss_valuation": _after_gauss,
        "affinoid.poly_mul": _after_poly,
        "affinoid.poly_add": _after_poly,
        "affinoid.derivative": _after_poly,
        "affinoid.substitute_affine": _after_poly,
        "affinoid.rescale_to_subdisc": _after_poly,
        "counterexample.member": _after_member,
        "counterexample.member_on_subdisc": _after_member,
    }

    # -- installation -------------------------------------------------------------

    def _targets(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every boundary."""
        targets = [(owner, attr, self._span(name, owner.__dict__[attr]))
                   for owner, attr, name in SPANS]
        targets += [(owner, attr, self._leaf(group, owner.__dict__[attr]))
                    for owner, attr, group in LEAVES]
        # counted, not timed: both run inside spans of their own layer
        targets += [(operators.EndoOracle, "query",
                     self._oracle_query(operators.EndoOracle.query)),
                    (operators.CoefficientFamily, "member",
                     self._family_member(operators.CoefficientFamily.member))]
        return [(owner, attr, owner.__dict__[attr], wrapper)
                for owner, attr, wrapper in targets]

    def _swap(self, installed: bool) -> None:
        for owner, attr, original, wrapper in self._installed:
            if isinstance(owner, type):
                setattr(owner, attr, wrapper if installed else original)
        _rebind({id(original if installed else wrapper): wrapper if installed else original
                 for _, _, original, wrapper in self._installed})

    def install(self) -> None:
        """Wrap every boundary and rebind it wherever it is reachable."""
        if not self._installed:
            self._installed = self._targets()
        self._swap(True)

    def uninstall(self) -> None:
        """Put every original back where ``install`` replaced it."""
        self._swap(False)

    # -- per-pass metrics ---------------------------------------------------------

    def pass_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass that ran since ``reset_pass``."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        layer_s = {layer: sum(v for k, v in self_s.items() if k.startswith(layer + "."))
                   for layer in LAYERS}
        self.entered.update(k for k, v in calls.items() if v)
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_s[layer]
            if layer != "cli":
                m[f"{layer}.share"] = layer_s[layer] / wall_s
        for group in ("valuation", "arith", "from_rational"):
            m[f"scalars.{group}.calls"] = calls[f"scalars.{group}"]
            m[f"scalars.{group}.self_s"] = self_s[f"scalars.{group}"]
        m["scalars.valuation.input_bits"] = counts["scalars.valuation.input_bits"]
        for name in ("affinoid.poly_mul", "affinoid.poly_add", "affinoid.derivative",
                     "affinoid.substitute_affine", "affinoid.gauss_valuation",
                     "operators.apply_operator", "operators.compose",
                     "operators.symbol_coefficient", "operators.norm_bracket",
                     "counterexample.member", "counterexample.member_on_subdisc"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        m["affinoid.gauss_valuation.terms"] = counts["affinoid.gauss_valuation.terms"]
        m["affinoid.max_terms"] = self.max_terms
        queries = counts["operators.oracle.queries"]
        m["operators.oracle.queries"] = queries
        m["operators.oracle.hit_ratio"] = counts["operators.oracle.hits"] / queries if queries else 0.0
        m["operators.classify.calls"] = calls["operators.classify"]
        m["operators.classify.members"] = counts["operators.classify.members"]
        m["counterexample.coeffs_built"] = counts["counterexample.coeffs_built"]
        m["counterexample.verify.self_s"] = self_s["counterexample.verify"]
        m["cli.main.calls"] = calls["cli.main"]
        return m

    def write_spans(self, path) -> None:
        """One JSON array per line: id, name, start, end, parent, leaf calls, leaf s."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
