"""Certificate engine: canonical / klt / lc verdicts for permutation quotients.

The verdict depends on the group only through its invariants: `certify(p,
inv)` reads the integers of a `GroupInvariants` record and nothing else, and
`classify(G, p)` is `certify(p, G.invariants())`.  The pseudo-reflections of a
permutation action are exactly the transpositions, so the branch divisor has
one component per conjugacy class of them; the Gorenstein and boundary data
of the pair (X, B) follow from that count, p and evenness.  The canonical
verdict has one path: a group with transpositions has the same quotient as
its transposition-free reflection quotient H = G/W, W generated by the
transpositions, and a transposition-free bound depends on (n, p) alone.

Verdicts are one-sided: the engine either certifies membership in a
singularity class or reports NOT_CERTIFIED.  It never asserts non-membership,
because the stratum dimensions entering the bounds are themselves only upper
bounds for proper subgroups of S_n.  Every verdict is backed by an ordered
trace of rule applications carrying stable anchor identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .halfint import ExtHalf
from .perm import GroupInvariants, PermutationGroup
from .primes import validate_characteristic
from .strata import global_sup

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
ANCHOR_REFLECTION_QUOTIENT = "rule:reflection-quotient"
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
class GorensteinReport:
    """Gorenstein and boundary data of the quotient pair (X, B).

    The indices are divisibility statements, not exact values: 2K_X is always
    Cartier and K_X itself is Cartier when p = 2 or when G consists of even
    permutations (the top form is then invariant); B is 2-Cartier, and
    Cartier when p = 2.
    """

    kx_index_divides: int
    boundary_coefficient: Optional[ExtHalf]
    b_cartier_index_divides: Optional[int]
    branch_component_count: int

    def __post_init__(self):
        if self.kx_index_divides not in (1, 2):
            raise ValueError("kx_index_divides must be 1 or 2")
        coeff, allowed = self.boundary_coefficient, (ExtHalf(1), ExtHalf.half(1))
        if coeff is not None and not (isinstance(coeff, ExtHalf) and coeff in allowed):
            raise ValueError(f"boundary coefficient must be the ExtHalf 1 or 1/2, got {coeff!r}")
        if (coeff is None) != (self.b_cartier_index_divides is None):
            raise ValueError("boundary coefficient and Cartier index must be absent together")
        if coeff is not None and self.b_cartier_index_divides != (1 if coeff == 1 else 2):
            raise ValueError("Cartier index must mirror the coefficient denominator")
        if (self.branch_component_count == 0) != (coeff is None):
            raise ValueError("coefficient is absent exactly when there is no branch divisor")

    def as_json(self) -> dict:
        coeff = self.boundary_coefficient
        return {
            "kx_index_divides": self.kx_index_divides,
            "boundary_coefficient": None if coeff is None else coeff.as_json()["value"],
            "b_cartier_index_divides": self.b_cartier_index_divides,
            "branch_component_count": self.branch_component_count,
        }


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
    """Classify the quotient of affine n-space by a permutation group; a bad
    characteristic is rejected before the group's invariants are read."""
    return certify(validate_characteristic(p), group.invariants())


def _check_invariants(inv: GroupInvariants) -> None:
    """Reject a record that no permutation group has."""
    n, order, classes, all_even, nonfree = inv
    if n < 1 or order < 1:
        raise ValueError(f"degree and order must be positive, got n={n}, order={order}")
    if classes and all_even:
        raise ValueError("an even group has no transposition")
    # a non-identity element of S_n has between 1 and n - 1 cycles
    if (nonfree is None) != (order == 1) or (nonfree is not None and not 1 <= nonfree < n):
        raise ValueError(
            f"max_cycle_count must be None for order 1 and in 1..n-1 otherwise, got {nonfree}"
        )
    if (nonfree == n - 1) != (classes > 0):
        raise ValueError("max_cycle_count is n - 1 exactly when there is a transposition")


def certify(p: int, inv: GroupInvariants) -> ClassificationReport:
    """Certify the quotient of affine n-space by any group with invariants inv.

    Gorenstein data: in characteristic 2 the quotient is 1-Gorenstein and the
    boundary (if any) is reduced; otherwise 2K_X is Cartier and every boundary
    component has coefficient 1/2, and K_X is Cartier for an even group.

    lc holds in every characteristic because the stratum bounds are finite,
    and klt whenever p != 2 (the bounds decay to -oo).  For p = 2 klt fails
    in the presence of a transposition (the boundary is then reduced) and is
    derived from the canonical certificate when B = 0.

    Canonical, one path for every group: X is a transposition-free quotient
    A^n/H, certified by the transposition-free stratum bound of (n, p).  Let
    W be generated by G's transpositions, and B_1..B_s (singletons included)
    the components of the graph whose edges they are; then W = S_B1 x ... x
    S_Bs.  The orbit sums of monomials are a basis of the invariants of a
    monomial-permuting group over any ring, and by the fundamental theorem of
    symmetric polynomials they are unitriangular over Z in the monomials of
    y_{B,i} = e_i(x_b : b in B), 1 <= i <= |B|.  So k[x]^W = k[y] is a
    polynomial ring in n variables in every characteristic.  G normalizes W,
    permutes the blocks and sends y_{B,i} to y_{gB,i}, so k[x]^G = k[y]^H for
    H = G/W permuting the y's.  H is faithful, |H| = |G| / prod |B_j|!: an
    element fixing every y fixes every block (y_{B,1} determines B), so lies
    in W.  H has no transposition: one swapping exactly two y's swaps two
    singleton blocks {a}, {b} and fixes every other block, so a lift to G
    times an element of W is (a b), which would have joined a and b.
    """
    validate_characteristic(p)
    _check_invariants(inv)
    n, classes = inv.n, inv.transposition_classes
    has_t = classes > 0
    coeff = b_index = None
    if has_t:
        b_index = 1 if p == 2 else 2
        coeff = ExtHalf(1) if p == 2 else ExtHalf.half(1)
    gor = GorensteinReport(1 if p == 2 or inv.all_even else 2, coeff, b_index, classes)
    tf = global_sup(n, p, transposition_free=True)
    tf_ok = tf.sup <= ExtHalf(-1)
    canonical = CERTIFIED if tf_ok else NOT_CERTIFIED
    if p != 2:
        klt = TRUE
    elif has_t:
        klt = FALSE
    else:
        klt = TRUE if tf_ok else UNKNOWN

    even = " (even group refinement)" if p != 2 and gor.kx_index_divides == 1 else ""
    trace = [(ANCHOR_GORENSTEIN_INDEX, f"{gor.kx_index_divides}*K_X is Cartier{even}")]
    if has_t:
        trace.append((
            ANCHOR_BOUNDARY_COEFFICIENT,
            f"boundary has {classes} component(s), each with coefficient {coeff.as_text()}",
        ))
        trace.append((ANCHOR_B_CARTIER_INDEX, f"{b_index}*B is Cartier"))
    trace.append((
        ANCHOR_LC_FROM_BOUNDED_SUP,
        "dim - v is bounded above over all strata, so (X,B) is log canonical",
    ))
    if klt == TRUE and p != 2:
        trace.append((
            ANCHOR_KLT_FROM_DECAY,
            "dim - v tends to -oo along the strata (p != 2), so (X,B) is klt",
        ))
    elif klt == FALSE:
        trace.append((
            ANCHOR_KLT_FAILS_REDUCED_BOUNDARY,
            "p = 2 boundary has a coefficient-1 component, incompatible with klt",
        ))
    if has_t:
        trace.append((
            ANCHOR_REFLECTION_QUOTIENT,
            f"X = A^{n}/H for H = G/W, W generated by the transpositions: H permutes "
            f"the {n} elementary symmetric functions of W's orbits, with no transposition",
        ))
    trace.append((
        ANCHOR_TF_STRATUM_BOUND,
        f"transposition-free sup of dim - v over non-trivial strata is "
        f"{tf.sup.as_text()} at nu={_fmt_partition(tf.worst_partition)}",
    ))
    trace.append((
        ANCHOR_CANONICAL_FROM_STRATA,
        "dim - v <= -1 on every non-trivial stratum certifies canonical"
        if tf_ok
        else "stratum bound check failed; no certificate",
    ))
    if klt == TRUE and p == 2:
        trace.append((
            ANCHOR_KLT_FROM_CANONICAL,
            "derived: B = 0 and canonical certified, so discrepancies >= 0 > -1 give klt",
        ))

    # the stringy bound reads G's own strata, transpositions included
    stringy = ExtHalf(n) + (global_sup(n, p, transposition_free=False) if has_t else tf).sup
    trace.append((
        ANCHOR_STRINGY_BOUND,
        f"stringy dimension over non-trivial strata is at most {stringy.as_text()}",
    ))
    # the fixed space of an element has one dimension per cycle
    nonfree = inv.max_cycle_count
    if nonfree is not None:
        trace.append(
            (ANCHOR_NONFREE_LOCUS, f"informational: non-free locus has dimension <= {nonfree}")
        )

    return ClassificationReport(
        n=n,
        p=p,
        group_order=inv.order,
        has_transposition=has_t,
        canonical=canonical,
        pair_klt=klt,
        pair_lc=TRUE,
        stringy_dim_bound=stringy,
        gorenstein=gor,
        nonfree_locus_dim_bound=nonfree,
        trace=tuple(TraceEntry(anchor, detail) for anchor, detail in trace),
    )
