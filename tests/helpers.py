"""Independent brute-force oracles used by the tests.

Everything here is deliberately written from first principles (matrix ranks,
exhaustive enumeration, BFS) so that it does not share code paths with the
library routines it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from permsing import (
    GF,
    NEG_INF,
    ASQuotient,
    GlobalSup,
    Permutation,
    PermutationGroup,
    partitions,
    refined_stratum_sup,
)


# ---------------------------------------------------------------------------
# the half-integers as Fractions: the library stores twice the value as an
# int, and this Fraction-backed form is the reference it is checked against

class FractionHalf:
    """A rational with denominator dividing 2, or -oo (value None)."""

    __slots__ = ("value",)

    def __init__(self, value):
        if value is not None:
            value = Fraction(value)
            if value.denominator not in (1, 2):
                raise ValueError(f"not a half-integer: {value}")
        self.value = value

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __add__(self, other: "FractionHalf") -> "FractionHalf":
        if self.value is None or other.value is None:
            return FractionHalf(None)
        return FractionHalf(self.value + other.value)

    def __sub__(self, other: "FractionHalf") -> "FractionHalf":
        if other.value is None:
            raise ValueError("cannot subtract -oo")
        if self.value is None:
            return FractionHalf(None)
        return FractionHalf(self.value - other.value)

    def __neg__(self) -> "FractionHalf":
        if self.value is None:
            raise ValueError("cannot negate -oo")
        return FractionHalf(-self.value)

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionHalf) and self.value == other.value

    def __lt__(self, other: "FractionHalf") -> bool:
        if self.value is None:
            return other.value is not None
        return other.value is not None and self.value < other.value

    def as_text(self) -> str:
        if self.value is None:
            return "-inf"
        if self.value.denominator == 1:
            return str(self.value.numerator)
        return f"{self.value.numerator}/2"

    def as_json(self) -> dict:
        if self.value is None:
            return {"finite": False, "value": None}
        return {
            "finite": True,
            "value": {"num": self.value.numerator, "den": self.value.denominator},
        }


# ---------------------------------------------------------------------------
# linear algebra oracles

def perm_matrix_minus_identity(g: Permutation, one, zero) -> list[list]:
    """The matrix M - I of the permutation matrix M (M e_j = e_{g(j)})."""
    n = g.n
    mat = [[zero] * n for _ in range(n)]
    for j in range(1, n + 1):
        mat[g(j) - 1][j - 1] = one
    for i in range(n):
        mat[i][i] = mat[i][i] - one
    return mat


def rank_over_Q(mat: list[list[Fraction]]) -> int:
    mat = [row[:] for row in mat]
    rows, cols = len(mat), len(mat[0]) if mat else 0
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(rows):
            if r != rank and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [x - c * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def rank_mod_p(mat: list[list[int]], p: int) -> int:
    mat = [[x % p for x in row] for row in mat]
    rows, cols = len(mat), len(mat[0]) if mat else 0
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if mat[r][col] % p), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(rows):
            if r != rank and mat[r][col] % p:
                c = mat[r][col]
                mat[r] = [(x - c * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def fixed_dim_rank_Q(g: Permutation) -> int:
    mat = perm_matrix_minus_identity(g, Fraction(1), Fraction(0))
    return g.n - rank_over_Q(mat)


def fixed_dim_rank_mod_p(g: Permutation, p: int) -> int:
    mat = perm_matrix_minus_identity(g, 1, 0)
    return g.n - rank_mod_p(mat, p)


# ---------------------------------------------------------------------------
# literal transcription of the five-case dimension formula; None means empty

def five_case_dim(n: int, d: int, p: int):
    wild = p != 0 and n % p == 0
    if not wild:
        return 0 if d == n - 1 else None
    e = d - n + 1
    if e % p != 0 and e >= 0:
        return -((-e) // p)
    return None


def exact_value_n2(d: int, p: int):
    """The stated exact table for n = 2, d >= 1; None means empty."""
    if p != 2:
        return -Fraction(1, 2) if d == 1 else None
    return 0 if d % 2 == 0 else None


# ---------------------------------------------------------------------------
# brute-force stratum generation: all compositions, then canonicalization

def brute_force_strata(n: int, d: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    def all_partitions(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(cap, total), 0, -1):
            for rest in all_partitions(total - first, first):
                yield (first,) + rest

    def compositions(total, length):
        if length == 0:
            if total == 0:
                yield ()
            return
        for first in range(total + 1):
            for rest in compositions(total - first, length - 1):
                yield (first,) + rest

    shapes = set()
    for nu in all_partitions(n, n):
        for delta in compositions(d, len(nu)):
            if any((x > 0) != (v > 1) for v, x in zip(nu, delta)):
                continue
            # canonicalize: sort delta descending within runs of equal nu
            canon = []
            for _, grp in itertools.groupby(range(len(nu)), key=lambda i: nu[i]):
                idx = list(grp)
                canon.extend(sorted((delta[i] for i in idx), reverse=True))
            shapes.add((nu, tuple(canon)))
    return shapes


def excess_decays(part: int, p: int) -> bool:
    """Whether dim - d/2 of a connected piece of degree part falls below its
    maximum for good, by a scan of the five-case formula along d: no finite
    value at d >= 2 * part + 4 reaches the largest one (a non-decaying part
    keeps a constant value on a whole progression of d)."""
    scan = {}
    for d in range(4 * part + 8):
        dim = five_case_dim(part, d, p)
        if dim is not None:
            scan[d] = dim - Fraction(d, 2)
    top = max(scan.values())
    return all(value < top for d, value in scan.items() if d >= 2 * part + 4)


# ---------------------------------------------------------------------------
# reference global supremum: maximize the per-partition bound over every
# non-trivial partition of n, keeping the first maximiser in descending
# lexicographic order; the limit is -oo unless some part never decays

def scan_global_sup(n: int, p: int, transposition_free: bool) -> GlobalSup:
    best = NEG_INF
    worst = None
    for nu in partitions(n):
        if all(v == 1 for v in nu):
            continue
        value = refined_stratum_sup(nu, p, transposition_free)
        if worst is None or value > best:
            best = value
            worst = nu
    # every v <= n is a part of some partition of n
    limit = all(excess_decays(v, p) for v in range(1, n + 1))
    return GlobalSup(sup=best, limit_minus_infinity=limit, worst_partition=worst)


# ---------------------------------------------------------------------------
# Cayley-graph distance from the identity, with all transpositions as edges

def transposition_distances(n: int) -> dict[tuple[int, ...], int]:
    gens = [
        Permutation(
            tuple(
                j if k + 1 == i else (i if k + 1 == j else k + 1) for k in range(n)
            )
        )
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    start = Permutation.identity(n)
    dist = {start.images: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                prod = g * h
                if prod.images not in dist:
                    dist[prod.images] = dist[h.images] + 1
                    nxt.append(prod)
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# the element set of a group by BFS closure of its generators (the library
# keeps a stabilizer chain instead)

def elements(G: PermutationGroup) -> frozenset[Permutation]:
    identity = Permutation.identity(G.n)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in G.generators:
                prod = g * h
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return frozenset(seen)


# ---------------------------------------------------------------------------
# all subgroups of S_n by closing generator subsets of size <= 2
# (subgroups of S_n for n <= 5 are 2-generated; the known subgroup counts
# 1, 2, 6, 30, 156 for n = 1..5 are asserted by the callers)

def all_subgroups(n: int) -> list[PermutationGroup]:
    sym = sorted(elements(PermutationGroup.symmetric(n)))
    seen: dict[frozenset, PermutationGroup] = {}
    trivial = PermutationGroup.trivial(n)
    seen[frozenset(g.images for g in elements(trivial))] = trivial
    for a in sym:
        sub = PermutationGroup.from_generators([a], n)
        seen.setdefault(frozenset(g.images for g in elements(sub)), sub)
    for a, b in itertools.combinations(sym, 2):
        sub = PermutationGroup.from_generators([a, b], n)
        seen.setdefault(frozenset(g.images for g in elements(sub)), sub)
    return list(seen.values())


def embedded(G: PermutationGroup, n: int) -> PermutationGroup:
    """G on n >= G.n points, fixing G.n + 1..n."""
    extra = tuple(range(G.n + 1, n + 1))
    return PermutationGroup.from_generators(
        [Permutation(g.images + extra) for g in G.generators], n
    )


# ---------------------------------------------------------------------------
# the reflection quotient: W, generated by the transpositions of G, is
# S_B1 x ... x S_Bs on the components B of the graph whose edges they are;
# k[x]^W is the polynomial ring in y_{B,i} = e_i(x_b : b in B), and
# H = G/W permutes the y's, y_{B,i} -> y_{gB,i}

def reflection_quotient(G: PermutationGroup):
    """(H, blocks, degrees): H = G/W as a permutation group of degree n on
    the y's, listed block by block (blocks sorted, i = 1..|B| within one),
    and deg y_{B,i} = i in that order."""
    parent = list(range(G.n + 1))

    def root(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    for t in G.transpositions():
        [(a, b)] = t.cycles()
        parent[root(a)] = root(b)
    members: dict[int, list[int]] = {}
    for x in range(1, G.n + 1):
        members.setdefault(root(x), []).append(x)
    blocks = sorted(tuple(b) for b in members.values())
    block_of = {x: B for B in blocks for x in B}
    ys = [(B, i) for B in blocks for i in range(1, len(B) + 1)]
    index = {y: k for k, y in enumerate(ys, start=1)}
    gens = []
    for g in G.generators:
        for B in blocks:
            # G normalizes W, so it carries blocks onto blocks
            assert tuple(sorted(map(g, B))) == block_of[g(B[0])]
        gens.append(Permutation(index[block_of[g(B[0])], i] for B, i in ys))
    H = PermutationGroup.from_generators(gens, G.n)
    return H, blocks, tuple(i for _, i in ys)


def hilbert_series(G: PermutationGroup, degrees=None, top: int = 12) -> list[Fraction]:
    """The graded Molien series of k[x]^G to t^top, x_i of degree
    degrees[i - 1] (all 1 by default): by Burnside, the mean over the
    elements of the monomials each fixes, prod over cycles C of
    1 / (1 - t^(|C| deg C))."""
    degrees = degrees or (1,) * G.n
    total = [0] * (top + 1)
    group = elements(G)
    for g in group:
        series = [1] + [0] * top
        for cycle in g.cycles(include_fixed=True):
            (weight,) = {degrees[x - 1] for x in cycle}
            step = weight * len(cycle)
            for k in range(step, top + 1):
                series[k] += series[k - step]
        total = [a + b for a, b in zip(total, series)]
    return [Fraction(a, len(group)) for a in total]


# ---------------------------------------------------------------------------
# group invariants by walking every element of G (the library reads them from
# the generators and membership tests)

def scan_transpositions(G: PermutationGroup) -> list[Permutation]:
    return sorted(g for g in elements(G) if g.is_transposition())


def scan_branch_components(G: PermutationGroup) -> int:
    """G-orbits of transpositions, by conjugating with every element."""
    remaining = set(scan_transpositions(G))
    orbits = 0
    group = elements(G)
    while remaining:
        t = remaining.pop()
        remaining -= {t.conjugate_by(s) for s in group}
        orbits += 1
    return orbits


def scan_all_even(G: PermutationGroup) -> bool:
    return all(g.is_even() for g in elements(G))


def scan_nonfree_bound(G: PermutationGroup):
    """Largest cycle count over non-identity elements; None for trivial G."""
    counts = [g.cycle_count() for g in elements(G) if not g.is_identity()]
    return max(counts) if counts else None


# ---------------------------------------------------------------------------
# finite-field arithmetic on coordinate tuples by the schoolbook product (the
# library multiplies through log tables)

def as_tuple(F, a: int) -> tuple[int, ...]:
    """The coordinates of a field element, lowest power of x first."""
    return tuple((a // F.p**k) % F.p for k in range(F.e))


def from_tuple(F, coords) -> int:
    return sum(x * F.p**k for k, x in enumerate(coords))


def schoolbook_mul(F, a: tuple, b: tuple) -> tuple:
    p, e = F.p, F.e
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    # reduce modulo the defining polynomial
    mod = F.modulus
    for k in range(len(prod) - 1, e - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(e):
                prod[k - e + i] = (prod[k - e + i] - c * mod[i]) % p
    return tuple(prod[:e])


def schoolbook_pow(F, a: tuple, k: int) -> tuple:
    result = (1,) + (0,) * (F.e - 1)
    base = a
    while k:
        if k & 1:
            result = schoolbook_mul(F, result, base)
        base = schoolbook_mul(F, base, base)
        k >>= 1
    return result


def reference_tame_count(q: int, n: int) -> int:
    """#{beta in F_Q^* : beta^n in F_q^*} / (q - 1) by schoolbook powers of
    every coordinate tuple of the splitting field F_Q."""
    p = next(f for f in range(2, q + 1) if q % f == 0)
    e = 1
    while p**e < q:
        e += 1
    big = next(k for k in range(1, 64) if (q**k - 1) % (n * (q - 1)) == 0)
    F = GF(p, e * big)
    zero = (0,) * F.e
    tuples = list(itertools.product(range(p), repeat=F.e))
    constants = {x for x in tuples if x != zero and schoolbook_pow(F, x, q) == x}
    assert len(constants) == q - 1
    hits = sum(1 for b in tuples if b != zero and schoolbook_pow(F, b, n) in constants)
    assert hits % (q - 1) == 0
    return hits // (q - 1)


# ---------------------------------------------------------------------------
# Artin-Schreier principal parts as coefficient dictionaries, and the class
# counts by reducing one list vector per principal part (the library packs
# vectors into ints and reduces only unit vectors)

class PrincipalPart:
    """A truncated Laurent principal part sum_i c_i t^(-i) over F_q."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: dict[int, int]):
        for i in coeffs:
            if i < 1:
                raise ValueError(f"pole orders must be >= 1, got {i}")
        self.field = field
        self.coeffs = {i: c for i, c in coeffs.items() if c != field.zero}

    def pole_order(self) -> int:
        """Exact pole order; 0 for the zero part."""
        return max(self.coeffs, default=0)

    def __add__(self, other: "PrincipalPart") -> "PrincipalPart":
        if other.field is not self.field:
            raise ValueError("mismatched fields")
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = self.field.add(out.get(i, self.field.zero), c)
        return PrincipalPart(self.field, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PrincipalPart)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def artin_schreier_image(self) -> "PrincipalPart":
        """The principal part of f^p - f.

        f has only negative-order terms, so f^p - f is again a pure principal
        part: the Frobenius sends c t^(-i) to c^p t^(-pi) term by term.
        """
        F = self.field
        out: dict[int, int] = {}
        for i, c in self.coeffs.items():
            j = F.p * i
            out[j] = F.add(out.get(j, F.zero), F.frobenius(c))
        for i, c in self.coeffs.items():
            out[i] = F.sub(out.get(i, F.zero), c)
        return PrincipalPart(F, out)

    def __repr__(self) -> str:
        terms = ", ".join(f"t^-{i}: {c}" for i, c in sorted(self.coeffs.items()))
        return f"PrincipalPart(q={self.field.q}, {{{terms}}})"


# vector layout of ASQuotient: coordinate (i - 1) * e + k holds the k-th
# prime-field coordinate of the coefficient at pole order i, for pole orders
# up to p * ceil(max_pole / p)

def _zero_vector(space: ASQuotient) -> list[int]:
    return [0] * (space.p * -(-space.max_pole // space.p) * space.field.e)


def to_vector(space: ASQuotient, part: PrincipalPart) -> list[int]:
    e = space.field.e
    vec = _zero_vector(space)
    if part.pole_order() * e > len(vec):
        raise ValueError("pole order exceeds the ambient truncation")
    for i, c in part.coeffs.items():
        vec[(i - 1) * e : i * e] = as_tuple(space.field, c)
    return vec


def to_part(space: ASQuotient, vec) -> PrincipalPart:
    F = space.field
    coeffs = {}
    for i in range(1, len(vec) // F.e + 1):
        c = vec[(i - 1) * F.e : i * F.e]
        if any(c):
            coeffs[i] = from_tuple(F, c)
    return PrincipalPart(F, coeffs)


def basis(space: ASQuotient) -> list[PrincipalPart]:
    """Reduced representatives: one basis part per coprime pole order and
    prime-field coordinate, up to max_pole."""
    F = space.field
    return [
        PrincipalPart(F, {i: F.p**k})
        for i in range(1, space.max_pole + 1)
        if i % space.p
        for k in range(F.e)
    ]


def enumerate_vectors(space: ASQuotient, top: int):
    """All principal parts with pole order <= top, as (coefficients, vector)."""
    F = space.field
    for combo in itertools.product(F.elements(), repeat=top):
        vec = _zero_vector(space)
        for i, c in enumerate(combo, start=1):
            vec[(i - 1) * F.e : i * F.e] = as_tuple(F, c)
        yield combo, vec


def reference_count_exact_pole(space: ASQuotient, jump: int) -> int:
    reps = set()
    for combo, vec in enumerate_vectors(space, jump):
        if combo[jump - 1] != space.field.zero:
            reps.add(space.canonical(vec))
    return len(reps)


def reference_count_reduced_order(space: ASQuotient, jump: int) -> int:
    reps = set()
    for _, vec in enumerate_vectors(space, jump):
        red = to_part(space, space.reduced_representative(vec))
        if red.pole_order() == jump:
            reps.add(tuple(sorted(red.coeffs.items())))
    return len(reps)
