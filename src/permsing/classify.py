"""Certificate engine: canonical / klt / lc verdicts for permutation quotients.

Verdicts are one-sided: the engine either certifies membership in a
singularity class or reports NOT_CERTIFIED.  It never asserts non-membership,
because the stratum dimensions entering the bounds are themselves only upper
bounds for proper subgroups of S_n.  Every verdict is backed by an ordered
trace of rule applications carrying stable anchor identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .halfint import ExtHalf
from .perm import GorensteinReport, PermutationGroup, gorenstein_report
from .primes import validate_characteristic
from .strata import GlobalSup, global_sup

CERTIFIED = "CERTIFIED"
NOT_CERTIFIED = "NOT_CERTIFIED"
TRUE = "TRUE"
FALSE = "FALSE"
UNKNOWN = "UNKNOWN"

# Stable trace anchors.  Consumers match on these strings.
ANCHOR_TF_STRATUM_BOUND = "rule:transposition-free-stratum-bound"
ANCHOR_CANONICAL_FROM_STRATA = "rule:canonical-from-strata"
ANCHOR_LC_FROM_BOUNDED_SUP = "rule:lc-from-bounded-sup"
ANCHOR_KLT_FROM_DECAY = "rule:klt-from-decay"
ANCHOR_KLT_FAILS_REDUCED_BOUNDARY = "rule:klt-fails-on-reduced-boundary"
ANCHOR_KLT_FROM_CANONICAL = "rule:klt-from-canonical-empty-boundary"
ANCHOR_BOUNDARY_COEFFICIENT = "rule:boundary-coefficient"
ANCHOR_GORENSTEIN_INDEX = "rule:gorenstein-index"
ANCHOR_B_CARTIER_INDEX = "rule:boundary-cartier-index"
ANCHOR_DISCREPANCY_REDUCTION = "rule:discrepancy-reduction"
ANCHOR_OFF_BOUNDARY = "rule:off-boundary-reduction"
ANCHOR_STRINGY_BOUND = "rule:stringy-dimension-bound"
ANCHOR_NONFREE_LOCUS = "rule:nonfree-locus-bound"


@dataclass(frozen=True)
class TraceEntry:
    anchor: str
    detail: str

    def __post_init__(self):
        if not self.anchor:
            raise ValueError("trace anchor must be non-empty")

    def as_json(self) -> dict:
        return {"anchor": self.anchor, "detail": self.detail}


@dataclass(frozen=True)
class CanonicalCertificate:
    """Result of the transposition-free canonical check for degree n."""

    ok: bool
    worst_partition: Optional[tuple[int, ...]]
    worst_value: ExtHalf

    @classmethod
    def from_sup(cls, gs: GlobalSup) -> "CanonicalCertificate":
        return cls(gs.sup <= ExtHalf(-1), gs.worst_partition, gs.sup)


def v_of_discriminant(d: int) -> ExtHalf:
    """The weight of a stratum with discriminant exponent d: exactly d/2."""
    if d < 0:
        raise ValueError(f"discriminant exponent must be >= 0, got {d}")
    return ExtHalf(Fraction(d, 2))


def certify_canonical_no_transposition(n: int, p: int) -> CanonicalCertificate:
    """Check sup over non-trivial strata of dim - d/2 <= -1 for degree n.

    For a transposition-free group this certifies that the quotient has only
    canonical singularities.  The inequality holds for every (n, p); a False
    here signals an implementation fault, not a mathematical outcome.
    """
    return CanonicalCertificate.from_sup(global_sup(n, p, transposition_free=True))


@dataclass(frozen=True)
class PairStatus:
    klt: str
    lc: str


def pair_status(n: int, p: int, has_transposition: bool) -> PairStatus:
    """Kawamata-log-terminal / log-canonical status of the pair (X, B).

    lc holds in every characteristic because the stratum bounds are finite.
    klt holds whenever p != 2 (the bounds decay to -oo); for p = 2 it fails
    in the presence of a transposition (the boundary then has a reduced
    component) and is derived from the canonical certificate when B = 0.
    """
    validate_characteristic(p)
    if p != 2:
        klt = TRUE
    elif has_transposition:
        klt = FALSE
    else:
        cert = certify_canonical_no_transposition(n, p)
        klt = TRUE if cert.ok else UNKNOWN
    return PairStatus(klt=klt, lc=TRUE)


def discrepancy_reduction(
    p: int,
    pair_level: str,
    b_cartier_index: Optional[int],
    min_boundary_coeff: Optional[Fraction],
) -> ExtHalf:
    """Lower bound on discrep(E; X) from the pair bound plus the boundary pull-back.

    Along a divisor whose center lies in the boundary, discrep(E; X) equals
    discrep(E; X, B) plus the multiplicity of the pulled-back boundary.  A klt
    pair with (1/index)-discrete discrepancies gives -1 + 1/index; an lc pair
    gives -1.  The boundary multiplicity contributes at least its smallest
    coefficient, and the total is >= 0 in both characteristics.
    """
    validate_characteristic(p)
    if b_cartier_index is None or min_boundary_coeff is None:
        raise ValueError("discrepancy reduction needs a non-empty boundary")
    if pair_level not in ("klt", "lc"):
        raise ValueError(f"pair_level must be 'klt' or 'lc', got {pair_level!r}")
    if b_cartier_index not in (1, 2):
        raise ValueError(f"Cartier index must be 1 or 2, got {b_cartier_index}")
    if pair_level == "klt":
        base = Fraction(-1) + Fraction(1, b_cartier_index)
    else:
        base = Fraction(-1)
    return ExtHalf(base + min_boundary_coeff)


@dataclass(frozen=True)
class ClassificationReport:
    """Machine-checkable certificate for one permutation quotient."""

    n: int
    p: int
    group_order: int
    has_transposition: bool
    canonical: str
    pair_klt: str
    pair_lc: str
    stringy_dim_bound: ExtHalf
    gorenstein: GorensteinReport
    nonfree_locus_dim_bound: Optional[int]
    trace: tuple[TraceEntry, ...]

    def __post_init__(self):
        if self.canonical not in (CERTIFIED, NOT_CERTIFIED):
            raise ValueError(f"bad canonical verdict {self.canonical!r}")
        if self.pair_klt not in (TRUE, FALSE, UNKNOWN):
            raise ValueError(f"bad klt verdict {self.pair_klt!r}")
        if self.pair_lc not in (TRUE, UNKNOWN):
            raise ValueError(f"bad lc verdict {self.pair_lc!r}")
        if self.canonical == CERTIFIED:
            if self.pair_lc != TRUE:
                raise ValueError("canonical certificate requires lc = TRUE")
            if not self.has_transposition and self.pair_klt != TRUE:
                raise ValueError("canonical with empty boundary requires klt = TRUE")
        if self.pair_klt == FALSE and not (self.p == 2 and self.has_transposition):
            raise ValueError("klt = FALSE only for p = 2 with a transposition")

    def as_json(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "group_order": self.group_order,
            "has_transposition": self.has_transposition,
            "canonical": self.canonical,
            "pair_klt": self.pair_klt,
            "pair_lc": self.pair_lc,
            "stringy_dim_bound": self.stringy_dim_bound.as_json(),
            "gorenstein": self.gorenstein.as_json(),
            "nonfree_locus_dim_bound": self.nonfree_locus_dim_bound,
            "trace": [t.as_json() for t in self.trace],
        }


def _fmt_partition(nu: Optional[tuple[int, ...]]) -> str:
    return "(" + ",".join(map(str, nu)) + ")" if nu else "none"


def classify(group: PermutationGroup, p: int) -> ClassificationReport:
    """Classify the quotient of affine n-space by a permutation group.

    Transposition-free groups are certified canonical directly from the
    stratum bounds.  Groups with transpositions are certified by combining
    the pair status with the discrepancy-reduction arithmetic on the boundary
    and the transposition-free certificates in all dimensions <= n for
    centers off the boundary.
    """
    validate_characteristic(p)
    n = group.n
    gor = gorenstein_report(group, p)
    has_t = gor.branch_component_count > 0
    trace: list[TraceEntry] = []

    trace.append(
        TraceEntry(
            ANCHOR_GORENSTEIN_INDEX,
            f"{gor.kx_index_divides}*K_X is Cartier"
            + (" (even group refinement)" if p != 2 and gor.kx_index_divides == 1 else ""),
        )
    )
    if has_t:
        coeff = gor.boundary_coefficient
        trace.append(
            TraceEntry(
                ANCHOR_BOUNDARY_COEFFICIENT,
                f"boundary has {gor.branch_component_count} component(s), "
                f"each with coefficient {coeff}",
            )
        )
        trace.append(
            TraceEntry(
                ANCHOR_B_CARTIER_INDEX,
                f"{gor.b_cartier_index_divides}*B is Cartier",
            )
        )

    pair = pair_status(n, p, has_t)
    trace.append(
        TraceEntry(
            ANCHOR_LC_FROM_BOUNDED_SUP,
            "dim - v is bounded above over all strata, so (X,B) is log canonical",
        )
    )
    if pair.klt == TRUE and p != 2:
        trace.append(
            TraceEntry(
                ANCHOR_KLT_FROM_DECAY,
                "dim - v tends to -oo along the strata (p != 2), so (X,B) is klt",
            )
        )
    elif pair.klt == FALSE:
        trace.append(
            TraceEntry(
                ANCHOR_KLT_FAILS_REDUCED_BOUNDARY,
                "p = 2 boundary has a coefficient-1 component, incompatible with klt",
            )
        )

    gs = global_sup(n, p, transposition_free=not has_t)
    if not has_t:
        cert = CanonicalCertificate.from_sup(gs)
        trace.append(
            TraceEntry(
                ANCHOR_TF_STRATUM_BOUND,
                f"transposition-free sup of dim - v over non-trivial strata is "
                f"{cert.worst_value.as_text()} at nu={_fmt_partition(cert.worst_partition)}",
            )
        )
        canonical = CERTIFIED if cert.ok else NOT_CERTIFIED
        trace.append(
            TraceEntry(
                ANCHOR_CANONICAL_FROM_STRATA,
                "dim - v <= -1 on every non-trivial stratum certifies canonical"
                if cert.ok
                else "stratum bound check failed; no certificate",
            )
        )
        if pair.klt == TRUE and p == 2:
            trace.append(
                TraceEntry(
                    ANCHOR_KLT_FROM_CANONICAL,
                    "derived: B = 0 and canonical certified, so discrepancies "
                    ">= 0 > -1 give klt",
                )
            )
    else:
        level = "klt" if p != 2 else "lc"
        bound = discrepancy_reduction(
            p, level, gor.b_cartier_index_divides, gor.boundary_coefficient
        )
        trace.append(
            TraceEntry(
                ANCHOR_DISCREPANCY_REDUCTION,
                f"centers inside the boundary: discrep(E;X) >= "
                f"({level} bound) + (boundary multiplicity) = {bound.as_text()}",
            )
        )
        off_ok = all(
            certify_canonical_no_transposition(m, p).ok for m in range(1, n + 1)
        )
        trace.append(
            TraceEntry(
                ANCHOR_OFF_BOUNDARY,
                "centers off the boundary see transposition-free permutation "
                f"quotients of dimension <= {n}, all certified canonical"
                if off_ok
                else "off-boundary certificate failed",
            )
        )
        level_ok = pair.klt == TRUE if p != 2 else pair.lc == TRUE
        canonical = (
            CERTIFIED if (bound >= ExtHalf(0) and off_ok and level_ok) else NOT_CERTIFIED
        )

    stringy = ExtHalf(n) + gs.sup
    trace.append(
        TraceEntry(
            ANCHOR_STRINGY_BOUND,
            f"stringy dimension over non-trivial strata is at most {stringy.as_text()}",
        )
    )

    # the fixed space of an element has one dimension per cycle
    nonfree = group.max_cycle_count()
    if nonfree is not None:
        trace.append(
            TraceEntry(
                ANCHOR_NONFREE_LOCUS,
                f"informational: non-free locus has dimension <= {nonfree}",
            )
        )

    return ClassificationReport(
        n=n,
        p=p,
        group_order=group.order,
        has_transposition=has_t,
        canonical=canonical,
        pair_klt=pair.klt,
        pair_lc=pair.lc,
        stringy_dim_bound=stringy,
        gorenstein=gor,
        nonfree_locus_dim_bound=nonfree,
        trace=tuple(trace),
    )
