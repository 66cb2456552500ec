"""Every name the benchmark tracer wraps still exists where it looks for it.

``bench/tracing.py`` wraps the attributes listed in ``SPANS`` and
``LEAVES`` by name, reading each from its owner's ``__dict__``, and counts
``EndoOracle.query`` and ``CoefficientFamily.member`` the same way.  A
deletion or rename in the package that drops one of them breaks
``bench/run.py --trace 1``; this test fails first.
"""

import importlib.util
from pathlib import Path

import pytest

from nadops import operators

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("nadops_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing_module()
WRAPPED = ([(owner, attr) for owner, attr, _ in tracing.SPANS]
           + [(owner, attr) for owner, attr, _ in tracing.LEAVES]
           + [(operators.EndoOracle, "query"), (operators.CoefficientFamily, "member")])


@pytest.mark.parametrize("owner,attr", WRAPPED,
                         ids=[f"{getattr(o, '__name__', o)}.{a}" for o, a in WRAPPED])
def test_tracer_name_exists_on_its_owner(owner, attr):
    assert attr in vars(owner), f"{owner!r} has no attribute {attr!r} of its own"
