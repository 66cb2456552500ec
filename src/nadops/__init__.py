"""Exact arithmetic for infinite-order differential operators on
non-Archimedean polydiscs: valuations, sup norms, symbol extraction, and
mechanically checked boundedness and divergence estimates."""

from .scalars import (
    Field,
    HahnDivisionError,
    HahnField,
    NormValue,
    PAdicField,
    Scalar,
    backend_from_name,
    format_valuation,
    parse_scalar,
)
from .affinoid import (
    Hole,
    Polydisc,
    SparsePoly,
    domain_from_json,
    domain_to_json,
    mi_box,
    mi_up_to_total,
    mi_with_total,
    poly_from_text,
    poly_to_text,
    rescale_to_subdisc,
    sup_norm,
    unit_polydisc,
)
from .operators import (
    DECREASING_WITNESSED,
    INCONCLUSIVE,
    NON_DECREASING_WITNESSED,
    CoefficientFamily,
    DecayBound,
    DiffOperator,
    EndoOracle,
    apply_operator,
    classify_rapid_decay,
    coefficient_decay_report,
    combinatorial_delta,
    compose,
    operator_from_text,
    operator_norm_bracket,
    operator_to_text,
    radius_seminorm,
    random_operator,
    random_poly,
    random_scalar,
    roundtrip_report,
    symbol_coefficient,
    total_symbol,
    translation_invariance_check,
)
from .counterexample import (
    CosetRepScheme,
    RepProductFamily,
    cycling_scheme,
    default_scheme,
    integer_scheme,
    rational_scheme,
    verify_claim1_disc,
    verify_claim1_laurent,
    verify_claim2,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
