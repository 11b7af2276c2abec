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
    ClassificationReport,
    GorensteinReport,
    TraceEntry,
    certify,
    classify,
)
from .gf import GF
from .halfint import NEG_INF, ExtHalf
from .oracle import (
    ASQuotient,
    DimensionGrowthCheck,
    as_class_count,
    tame_totally_ramified_count,
    verify_dimension_growth,
)
from .perm import (
    GroupInvariants,
    Permutation,
    PermutationGroup,
    group_from_name,
    parse_generators,
    parse_permutation,
)
from .strata import (
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
    "ClassificationReport",
    "DimensionGrowthCheck",
    "ExtHalf",
    "GF",
    "GlobalSup",
    "GorensteinReport",
    "GroupInvariants",
    "NEG_INF",
    "Permutation",
    "PermutationGroup",
    "StratumShape",
    "TraceEntry",
    "as_class_count",
    "certify",
    "classify",
    "dim_connected",
    "dim_cyclic_cubic_galois",
    "enumerate_strata",
    "global_sup",
    "group_from_name",
    "parse_generators",
    "parse_permutation",
    "partitions",
    "refined_stratum_sup",
    "stratum_dim_sum",
    "sup_component",
    "tame_totally_ramified_count",
    "verify_dimension_growth",
]
