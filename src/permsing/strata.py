"""Strata of degree-n covers of the punctured formal disk and their dimensions.

The moduli of degree-n etale covers with discriminant exponent d is covered by
strata indexed by compatible partition pairs (nu, delta): the cover splits
into connected pieces of degrees nu_i carrying discriminant exponents delta_i,
with delta_i > 0 exactly for the non-trivial pieces.  The dimension of the
connected piece is given by an exact five-case formula in (n, d, p), and all
suprema of "dimension minus d/2" needed by the classifier have closed forms
derived from it.  Everything here is exact half-integer arithmetic.  The
partition and exponent scans that check the closed forms live in tests/;
enumerate_strata lists stratum shapes for the strata subcommand only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .halfint import NEG_INF, ZERO, ExtHalf, ext_sum
from .primes import validate_characteristic


def dim_connected(n: int, d: int, p: int) -> ExtHalf:
    """Dimension of the space of connected degree-n covers of the punctured
    formal disk with discriminant exponent exactly d, over an algebraically
    closed residue field of characteristic p.

    The value is -oo when the space is empty.  Tame degrees (p not dividing
    n, with p = 0 counting as tame) admit only d = n - 1, where the space is
    a finite set of points; wild degrees contribute ceil((d-n+1)/p) on the
    arithmetic progressions where d - n + 1 is non-negative and prime to p.
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    if d < 0:
        raise ValueError(f"discriminant exponent must be >= 0, got {d}")
    validate_characteristic(p)
    if p == 0 or n % p != 0:
        return ExtHalf(0) if d == n - 1 else NEG_INF
    e = d - n + 1
    if e % p == 0 or e < 0:
        return NEG_INF
    return ExtHalf(-((-e) // p))


def dim_cyclic_cubic_galois(d: int) -> ExtHalf:
    """Dimension of the space of cubic Galois extensions with discriminant
    exponent d, in residue characteristic 3.

    A ramified cubic Galois extension has a single ramification jump j > 0
    prime to 3 and discriminant exponent d = 2(j + 1); the corresponding
    moduli piece is a torus times an affine space of dimension
    j - floor(j/3) - 1.  All other d give the empty locus.
    """
    if d <= 0:
        raise ValueError(f"discriminant exponent must be positive, got {d}")
    if d % 2 != 0:
        return NEG_INF
    j = d // 2 - 1
    if j <= 0 or j % 3 == 0:
        return NEG_INF
    return ExtHalf(j - j // 3)


@dataclass(frozen=True)
class StratumShape:
    """A compatible partition pair (nu, delta) indexing a stratum.

    nu is a weakly decreasing partition of n; delta assigns each part its
    discriminant exponent, positive exactly on parts > 1.  For runs of equal
    parts the delta entries are kept weakly decreasing so each stratum has a
    unique canonical shape.
    """

    nu: tuple[int, ...]
    delta: tuple[int, ...]

    def __post_init__(self):
        nu, delta = self.nu, self.delta
        if len(nu) == 0 or len(nu) != len(delta):
            raise ValueError("nu and delta must be non-empty and aligned")
        if any(v < 1 for v in nu) or any(nu[i] < nu[i + 1] for i in range(len(nu) - 1)):
            raise ValueError(f"nu must be a weakly decreasing positive partition: {nu}")
        if any(x < 0 for x in delta):
            raise ValueError(f"delta entries must be >= 0: {delta}")
        for v, x in zip(nu, delta):
            if (x > 0) != (v > 1):
                raise ValueError(
                    f"delta must be positive exactly on parts > 1: nu={nu}, delta={delta}"
                )
        for i in range(len(nu) - 1):
            if nu[i] == nu[i + 1] and delta[i] < delta[i + 1]:
                raise ValueError(
                    f"delta must be weakly decreasing on equal parts: nu={nu}, delta={delta}"
                )

    @property
    def n(self) -> int:
        return sum(self.nu)

    @property
    def d(self) -> int:
        return sum(self.delta)

    def sort_key(self) -> tuple:
        return (self.nu, self.delta)


def partitions(n: int, max_part: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing partitions of n, in descending lexicographic order."""
    if n == 0:
        yield ()
        return
    max_part = n if max_part is None else min(max_part, n)
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def _delta_runs(run_length: int, total: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing tuples of `run_length` positive entries <= cap summing to total."""
    if run_length == 0:
        if total == 0:
            yield ()
        return
    low = -(-total // run_length)  # ceil: the first entry is at least the average
    for first in range(min(cap, total - run_length + 1), low - 1, -1):
        for rest in _delta_runs(run_length - 1, total - first, first):
            yield (first,) + rest


def enumerate_strata(n: int, d: int) -> set[StratumShape]:
    """All canonical stratum shapes for degree n and discriminant exponent d."""
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    if d < 0:
        raise ValueError(f"discriminant exponent must be >= 0, got {d}")
    shapes: set[StratumShape] = set()
    for nu in partitions(n):
        runs = [(part, sum(1 for _ in grp)) for part, grp in itertools.groupby(nu)]
        big_runs = [(part, cnt) for part, cnt in runs if part > 1]
        ones = sum(cnt for part, cnt in runs if part == 1)
        k = sum(cnt for _, cnt in big_runs)
        if k == 0:
            if d == 0:
                shapes.add(StratumShape(nu, (0,) * len(nu)))
            continue
        if d < k:
            continue

        def spread(i: int, left: int, acc: tuple[tuple[int, ...], ...]):
            # distribute `left` over run i .. end, each run getting >= its length
            if i == len(big_runs):
                if left == 0:
                    delta = tuple(itertools.chain(*acc)) + (0,) * ones
                    shapes.add(StratumShape(nu, delta))
                return
            _, cnt = big_runs[i]
            tail_min = sum(c for _, c in big_runs[i + 1 :])
            for amount in range(cnt, left - tail_min + 1):
                for run in _delta_runs(cnt, amount, amount):
                    spread(i + 1, left - amount, acc + (run,))

        spread(0, d, ())
    return shapes


def stratum_dim_sum(shape: StratumShape, p: int) -> ExtHalf:
    """Sum of component dimensions: the group-free upper bound for the stratum."""
    return ext_sum(dim_connected(v, x, p) for v, x in zip(shape.nu, shape.delta))


def sup_component(part: int, p: int) -> ExtHalf:
    """Closed-form supremum of dim_connected(part, d, p) - d/2 over all d >= 0.

    It is 0 for part = 1, -(part-1)/2 for a tame part, and 1 - part/2 for a
    wild part.
    """
    if part < 1:
        raise ValueError(f"part must be positive, got {part}")
    validate_characteristic(p)
    if part == 1:
        return ZERO
    if p == 0 or part % p != 0:
        return ExtHalf.half(1 - part)
    return ExtHalf.half(2 - part)


def refined_stratum_sup(
    nu: tuple[int, ...], p: int, transposition_free: bool
) -> ExtHalf:
    """Best available upper bound on sup over delta of dim(stratum) - d/2.

    Without the transposition-free hypothesis this is the generic bound: the
    sum of per-part suprema.  Under the hypothesis three refinements apply:

    * p != 2, largest part 2, exactly one part 2: the stratum forces a
      transposition in the image, so it is empty (-oo);
    * p = 2, largest part 2: the quadratic classes occurring must be linearly
      dependent over F_2, which caps the bound at -1;
    * p = 3, nu = (3, 1, ..., 1): only Galois cubics can occur, and the
      Galois locus satisfies dim - d/2 <= -1 with supremum -1.
    """
    nu = tuple(nu)
    if len(nu) == 0 or any(v < 1 for v in nu):
        raise ValueError(f"not a partition: {nu}")
    if any(nu[i] < nu[i + 1] for i in range(len(nu) - 1)):
        raise ValueError(f"partition must be weakly decreasing: {nu}")
    if all(v == 1 for v in nu):
        raise ValueError("trivial partition has no nontrivial stratum")
    validate_characteristic(p)
    generic = ext_sum(sup_component(v, p) for v in nu)
    if not transposition_free:
        return generic
    largest = nu[0]
    if largest == 2:
        if p == 2:
            return ExtHalf(-1)
        if sum(1 for v in nu if v == 2) == 1:
            return NEG_INF
        return generic
    if largest == 3 and p == 3 and all(v == 1 for v in nu[1:]):
        # sup over jumps j of (j - floor(j/3)) - (j + 1) = -floor(j/3) - 1
        return ExtHalf(-1)
    return generic


@dataclass(frozen=True)
class GlobalSup:
    """Supremum of the stratum bounds over all non-trivial partitions of n."""

    sup: ExtHalf
    limit_minus_infinity: bool
    worst_partition: Optional[tuple[int, ...]]


def global_sup(n: int, p: int, transposition_free: bool) -> GlobalSup:
    """Maximize refined_stratum_sup over the non-trivial partitions of n.

    The maximum is a closed form in (n, p), with no partition scan:

    * generic: 0 for p = 2 and -1/2 otherwise, once n >= 2;
    * transposition-free: -1 once n >= 2 (p = 2) or n >= 3 (p != 2); -oo for
      p != 2 at n = 2, where the only partition (2) forces a transposition;
    * n = 1: -oo, with no non-trivial partition.

    worst_partition is the first maximiser in descending lexicographic order
    (tests/helpers.scan_global_sup is the scan it is checked against):

    * generic, p = 2: (2,...,2[,1]); p = 3 and n >= 3: (3,1,...);
      otherwise (2,1,...);
    * transposition-free, p = 2 and n >= 4: (4,2,...,2[,1]); p = 3:
      (3,3,1,...) for n >= 6 and (3,2) at n = 5; otherwise (3,1,...) for
      n >= 3 and (2) at n = 2;
    * n = 1: None.

    limit_minus_infinity records whether dim - d/2 tends to -oo along the
    strata: true unless p = 2 and some partition of n has an even part (for
    p = 2 those parts contribute a constant, non-decaying value, and the
    transposition-free refinement never removes them).
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    validate_characteristic(p)
    limit = p != 2 or n < 2
    if n == 1:
        return GlobalSup(sup=NEG_INF, limit_minus_infinity=limit, worst_partition=None)
    if p == 2:
        twos = (2,) * (n // 2) + (1,) * (n % 2)
        if not transposition_free:
            return GlobalSup(ExtHalf(0), limit, twos)
        return GlobalSup(ExtHalf(-1), limit, (4,) + twos[2:] if n >= 4 else (n,))
    if not transposition_free:
        first = 3 if p == 3 and n >= 3 else 2
        return GlobalSup(ExtHalf.half(-1), limit, (first,) + (1,) * (n - first))
    if p == 3 and n >= 6:
        worst = (3, 3) + (1,) * (n - 6)
    elif p == 3 and n == 5:
        worst = (3, 2)
    else:
        worst = (min(n, 3),) + (1,) * (n - 3)
    return GlobalSup(ExtHalf(-1) if n >= 3 else NEG_INF, limit, worst)
