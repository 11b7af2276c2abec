"""permsing: exact classification of quotient singularities of permutation actions.

The package certifies canonical / Kawamata log terminal / log canonical
verdicts for quotients of affine space by permutation groups, in arbitrary
characteristic, from exact stratum-dimension bounds, and validates those
bounds against brute-force finite-field oracles.
"""

from .classify import (
    CERTIFIED,
    FALSE,
    NOT_CERTIFIED,
    TRUE,
    UNKNOWN,
    CanonicalCertificate,
    ClassificationReport,
    PairStatus,
    TraceEntry,
    certify_canonical_no_transposition,
    classify,
    discrepancy_reduction,
    pair_status,
    v_of_discriminant,
)
from .gf import GF
from .halfint import NEG_INF, ExtHalf
from .oracle import (
    ASQuotient,
    DimensionGrowthCheck,
    as_class_count,
    discriminant_of_jump,
    tame_totally_ramified_count,
    verify_dimension_growth,
)
from .perm import (
    GorensteinReport,
    Permutation,
    PermutationGroup,
    branch_components,
    fixed_space_dimension,
    gorenstein_report,
    group_from_name,
    is_pseudo_reflection,
    parse_generators,
    parse_permutation,
)
from .strata import (
    ComponentSup,
    DeltaSet,
    GlobalSup,
    StratumShape,
    dim_connected,
    dim_cyclic_cubic_galois,
    enumerate_strata,
    global_sup,
    partitions,
    refined_stratum_sup,
    stratum_dim_sum,
    sup_component,
)

__version__ = "0.1.0"

__all__ = [
    "CERTIFIED",
    "FALSE",
    "NOT_CERTIFIED",
    "TRUE",
    "UNKNOWN",
    "ASQuotient",
    "CanonicalCertificate",
    "ClassificationReport",
    "ComponentSup",
    "DeltaSet",
    "DimensionGrowthCheck",
    "ExtHalf",
    "GF",
    "GlobalSup",
    "GorensteinReport",
    "NEG_INF",
    "PairStatus",
    "Permutation",
    "PermutationGroup",
    "StratumShape",
    "TraceEntry",
    "as_class_count",
    "branch_components",
    "certify_canonical_no_transposition",
    "classify",
    "dim_connected",
    "dim_cyclic_cubic_galois",
    "discrepancy_reduction",
    "discriminant_of_jump",
    "enumerate_strata",
    "fixed_space_dimension",
    "global_sup",
    "gorenstein_report",
    "group_from_name",
    "is_pseudo_reflection",
    "pair_status",
    "parse_generators",
    "parse_permutation",
    "partitions",
    "refined_stratum_sup",
    "stratum_dim_sum",
    "sup_component",
    "tame_totally_ramified_count",
    "v_of_discriminant",
    "verify_dimension_growth",
]
