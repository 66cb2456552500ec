"""Hypothesis fuzz of the text and JSON readers behind the CLI.

Malformed input must surface as a ValueError (the CLI turns that into exit 2
with one line), never as another exception.  Each reader gets arbitrary
text plus text spliced from fragments of its own grammar, so the draws
reach past the first syntax check.
"""

import json

from hypothesis import given, settings, strategies as st

from nadops.affinoid import domain_from_json, poly_from_text
from nadops.operators import operator_from_text
from nadops.scalars import HahnField, PAdicField, parse_scalar

FIELDS = st.sampled_from([PAdicField(2), PAdicField(3), HahnField()])

SCALAR_PIECES = ["0", "1", "2", "-3", "7", "/", "0/", "@", "@2", "@3", "*t^(", ")", "(",
                 " + ", "1/2", "-", " ", "t", "x1", "١", "00", "/0"]
POLY_PIECES = SCALAR_PIECES + ["(1/1@2)", "(1*t^(1))", "(-3/2*t^(1/2) + 1*t^(2))", " * ",
                               "x1^", "x2^", "x1^1", "x2^0", "^", "-1", "x3^2"]
OPERATOR_PIECES = ["dim: ", "dim: 1", "dim: 2", "dim: 0", "dim: x", "backend: p=2",
                   "backend: hahn", "backend: p=3", "backend: p=4", "backend: ", "order: ",
                   "order: 2", "order: -1", "normalization: divided", "# note", "1 : ",
                   "0,1 : ", "-1 : ", ", : ", "2 : ", ": ", "\n", "\n", "\n", *POLY_PIECES]


def spliced(pieces: list[str], max_size: int = 12) -> st.SearchStrategy[str]:
    return st.lists(st.sampled_from(pieces), max_size=max_size).map("".join)


def texts(pieces: list[str], max_size: int = 12) -> st.SearchStrategy[str]:
    return st.one_of(st.text(max_size=40), spliced(pieces, max_size))


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12)
RADII = st.one_of(JSON, texts(["1", "0", "-1", "/", "3/2", "1/0", "2", " ", "e5", "."], 4))
CENTERS = st.one_of(JSON, texts(SCALAR_PIECES, 6))
HOLES = st.fixed_dictionaries({}, optional={"center": CENTERS, "radius_valuation": RADII})
DOMAINS = st.one_of(
    JSON,
    st.fixed_dictionaries({"type": st.sampled_from(["polydisc", "holed_disc", "annulus"])},
                          optional={"center": st.lists(CENTERS, max_size=3) | JSON,
                                    "radii": st.lists(RADII, max_size=3) | JSON,
                                    "holes": st.lists(HOLES | JSON, max_size=3) | JSON}))


@settings(max_examples=300)
@given(texts(SCALAR_PIECES), FIELDS)
def test_parse_scalar_raises_only_value_error(text, field):
    try:
        parse_scalar(text, field)
    except ValueError:
        pass


@settings(max_examples=300)
@given(texts(POLY_PIECES), FIELDS, st.integers(1, 3))
def test_poly_from_text_raises_only_value_error(text, field, dim):
    try:
        poly_from_text(text, field, dim)
    except ValueError:
        pass


@settings(max_examples=300)
@given(texts(OPERATOR_PIECES, 24), st.one_of(st.none(), FIELDS))
def test_operator_from_text_errors_name_a_line(text, field):
    try:
        operator_from_text(text, field)
    except ValueError as exc:
        assert str(exc).startswith("line "), str(exc)


@settings(max_examples=300)
@given(DOMAINS, FIELDS)
def test_domain_from_json_raises_only_value_error(obj, field):
    # through a JSON round trip, as the CLI reads it
    try:
        domain_from_json(json.loads(json.dumps(obj)), field)
    except ValueError:
        pass
