"""Exact invariants of Seifert fibered branched covers: normalization,
horizontal-foliation decisions, torus-link surgery calculus, slope-map
algebra for satellite decompositions, and coarse left-order obstructions.

All arithmetic is exact (arbitrary-precision integers and rationals); every
public operation is a pure function on immutable values.
"""

from .errors import (
    DegenerateExpansion,
    DegenerateParameter,
    FiberSlopeFilling,
    IndivisibleSurgery,
    NoEvenExpansion,
    NotationError,
    SeifolError,
    TooManyGenerators,
    ZeroExponent,
)
from .foliation import (
    ExcellenceVerdict,
    FoliationDecision,
    Witness,
    decide_excellence,
    decide_horizontal,
    has_witness,
    verify_witness,
)
from .gluing import (
    ALL_INTEGERS,
    CableCaseRow,
    SlopeMap,
    apply_slope_map,
    cable_family_check,
    cable_family_invariants,
    cable_gluing_matrix,
    compose_slope_maps,
    fixed_unit_fraction_slopes,
    get_cable_row,
    load_cable_rows,
    whitehead_gluing_matrix,
)
from .link_surgery import (
    Slope,
    TorusLinkExterior,
    fill,
    ml_to_mf,
    negative_surgery_is_excellent,
)
from .presentations import (
    GroupPresentation,
    ObstructionReport,
    coarse_obstruction,
    present_pretzel_cover,
    present_two_bridge_cover,
    pretzel_exterior_relators,
    pretzel_surgery_description,
)
from .rationals import (
    ContinuedFraction,
    cf_eval,
    cf_expand,
    parse_rational,
)
from .seifert import (
    H1Order,
    SeifertInvariants,
    euler_number,
    format_seifert,
    h1_order,
    normalize,
    parse_seifert,
    reverse_orientation,
)
from .torus_covers import (
    BranchedInvariantsResult,
    TorusCoverQuery,
    branched_invariants,
    classify_torus_cover,
    cross_validate,
    crosscheck_sweep,
)
from .words import Word, free_reduce

__version__ = "0.1.0"

__all__ = [
    "ALL_INTEGERS",
    "BranchedInvariantsResult",
    "CableCaseRow",
    "ContinuedFraction",
    "DegenerateExpansion",
    "DegenerateParameter",
    "ExcellenceVerdict",
    "FiberSlopeFilling",
    "FoliationDecision",
    "GroupPresentation",
    "H1Order",
    "IndivisibleSurgery",
    "NoEvenExpansion",
    "NotationError",
    "ObstructionReport",
    "SeifertInvariants",
    "SeifolError",
    "Slope",
    "SlopeMap",
    "TooManyGenerators",
    "TorusCoverQuery",
    "TorusLinkExterior",
    "Witness",
    "Word",
    "ZeroExponent",
    "apply_slope_map",
    "branched_invariants",
    "cable_family_check",
    "cable_family_invariants",
    "cable_gluing_matrix",
    "cf_eval",
    "cf_expand",
    "classify_torus_cover",
    "coarse_obstruction",
    "compose_slope_maps",
    "cross_validate",
    "crosscheck_sweep",
    "decide_excellence",
    "decide_horizontal",
    "euler_number",
    "fill",
    "fixed_unit_fraction_slopes",
    "format_seifert",
    "free_reduce",
    "get_cable_row",
    "h1_order",
    "has_witness",
    "load_cable_rows",
    "ml_to_mf",
    "negative_surgery_is_excellent",
    "normalize",
    "parse_rational",
    "parse_seifert",
    "present_pretzel_cover",
    "present_two_bridge_cover",
    "pretzel_exterior_relators",
    "pretzel_surgery_description",
    "reverse_orientation",
    "verify_witness",
    "whitehead_gluing_matrix",
]
