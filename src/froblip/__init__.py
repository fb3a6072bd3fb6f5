"""Exact higher-dimensional Frobenius machinery for Lipschitz equivalence.

The package builds contraction-ratio systems into integer exponent data
over a pseudo-basis, computes exact multiplicity tables and directional
growth rates, enumerates threshold cut-sets, decides degree-bounded
matchability between cut-sets, and combines these into an equivalence
decider for dust-like self-similar sets.
"""
__version__ = "0.1.0"  # before the imports: ``serialize`` reads it

from .cones import (
    Cone,
    HalfSpaceCertificate,
    cone_equal,
    cone_member,
    cone_separation,
    half_space_certificate,
    minimal_face,
)
from .equivalence import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    UNDECIDED,
    Verdict,
    decide,
    screen_invariants,
)
from .errors import (
    BasisMismatch,
    DimensionMismatch,
    DirectionOutsideCone,
    FroblipError,
    GcdNotOne,
    IncompatibleSymbolicBases,
    NoHalfSpace,
    NotConverged,
    ParseError,
    QueryOutOfRange,
    ResourceLimit,
)
from .frobenius import (
    DefiningData,
    GrowthEstimate,
    MultiplicityTable,
    build_multiplicity,
    estimate_gamma,
    frobenius_number_1d,
    make_defining_data,
    multiplicity_at,
)
from .growth import gamma
from .lattice import (
    Monomial,
    PseudoBasis,
    coplanar,
    factor_rationals,
    parse_rational,
    reduce_to_pseudo_basis,
    row_hnf,
)
from .selfsimilar import (
    ContractionSystem,
    CutSet,
    ExpThreshold,
    MatchReport,
    a_k_set,
    build_system,
    common_basis,
    cut_multiset,
    cut_set,
    hausdorff_dimension,
    iterate,
    matchable,
    matchable_search,
)

__all__ = [
    "BasisMismatch",
    "Cone",
    "ContractionSystem",
    "CutSet",
    "DefiningData",
    "DimensionMismatch",
    "DirectionOutsideCone",
    "EQUIVALENT",
    "ExpThreshold",
    "FroblipError",
    "GcdNotOne",
    "GrowthEstimate",
    "HalfSpaceCertificate",
    "IncompatibleSymbolicBases",
    "MatchReport",
    "Monomial",
    "MultiplicityTable",
    "NOT_EQUIVALENT",
    "NoHalfSpace",
    "NotConverged",
    "ParseError",
    "PseudoBasis",
    "QueryOutOfRange",
    "ResourceLimit",
    "UNDECIDED",
    "Verdict",
    "a_k_set",
    "build_multiplicity",
    "build_system",
    "common_basis",
    "cone_equal",
    "cone_member",
    "cone_separation",
    "coplanar",
    "cut_multiset",
    "cut_set",
    "decide",
    "estimate_gamma",
    "factor_rationals",
    "frobenius_number_1d",
    "gamma",
    "half_space_certificate",
    "hausdorff_dimension",
    "iterate",
    "make_defining_data",
    "matchable",
    "matchable_search",
    "minimal_face",
    "multiplicity_at",
    "parse_rational",
    "reduce_to_pseudo_basis",
    "row_hnf",
    "screen_invariants",
]
