"""Permutations, permutation groups, and branch-divisor data.

A group G acting on affine n-space by permuting coordinates is stored as its
generators and the element set of S_n they close to (|G| <= 2*10^5, the cap
MAX_GROUP_ORDER).  The pseudo-reflections of such an action are exactly the
transpositions, and the branch divisor has one component per conjugation orbit
of them.  Evenness is read from the generators; the transpositions are the
swaps within a generator orbit that pass a membership test, and their orbits
are orbits of point pairs under the generators.  Only the non-free-locus bound
of a transposition-free group walks the elements (in `classify`).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .primes import validate_characteristic

MAX_GROUP_ORDER = 200_000


class CycleParseError(ValueError):
    """Raised on malformed cycle-notation input."""


class Permutation:
    """An element of S_n, stored by its image tuple (1-based)."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise ValueError("degree must be positive")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("mixed degrees")
        return Permutation(self.images[j - 1] for j in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(inv)

    def conjugate_by(self, s: "Permutation") -> "Permutation":
        """s * self * s^-1."""
        return s * self * s.inverse()

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images, start=1))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its minimum, sorted by minimum."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = self(start)
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = self(j)
            if include_fixed or len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_count(self) -> int:
        """Number of orbits on {1..n}, fixed points included."""
        return len(self.cycles(include_fixed=True))

    def is_transposition(self) -> bool:
        moved = [i for i in range(1, self.n + 1) if self(i) != i]
        return len(moved) == 2

    def is_even(self) -> bool:
        swaps = sum(len(c) - 1 for c in self.cycles())
        return swaps % 2 == 0

    def cycle_string(self) -> str:
        """Cycle notation; the identity renders as the empty string."""
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles())

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string() or 'id'}, n={self.n})"


_CYCLE_RE = re.compile(r"\(\s*(\d+(?:[\s,]+\d+)*)\s*\)")


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse one product of disjoint cycles, e.g. "(1 2 3)(4 5)".

    Entries are 1-based and at most n; whitespace or commas separate entries
    within a cycle; the empty string denotes the identity.  Entries absent
    from every cycle are fixed.
    """
    if n < 1:
        raise CycleParseError("degree must be positive")
    images = list(range(1, n + 1))
    seen: set[int] = set()
    pos = 0
    text_len = len(text)
    while pos < text_len:
        if text[pos].isspace():
            pos += 1
            continue
        m = _CYCLE_RE.match(text, pos)
        if m is None:
            raise CycleParseError(f"malformed cycle notation at position {pos}: {text!r}")
        entries = [int(tok) for tok in re.split(r"[\s,]+", m.group(1))]
        for e in entries:
            if not 1 <= e <= n:
                raise CycleParseError(f"entry {e} out of range 1..{n}")
            if e in seen:
                raise CycleParseError(f"repeated entry {e}")
            seen.add(e)
        for a, b in zip(entries, entries[1:] + entries[:1]):
            images[a - 1] = b
        pos = m.end()
    return Permutation(images)


def parse_generators(text: str, n: int) -> list[Permutation]:
    """Parse a ";"-separated list of cycle products into generators."""
    return [parse_permutation(part, n) for part in text.split(";")]


def _embedded_degree(m: int, n: Optional[int], order: int) -> int:
    """The ambient degree n (default m) of a preset on m points, checked
    before any element is built."""
    n = m if n is None else n
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"group order exceeds {MAX_GROUP_ORDER}")
    return n


class PermutationGroup:
    """A subgroup of S_n: its generators and the element set they close to."""

    __slots__ = ("n", "elements", "generators")

    def __init__(
        self,
        n: int,
        elements: frozenset[Permutation],
        generators: tuple[Permutation, ...],
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "generators", generators)

    def __setattr__(self, name, value):
        raise AttributeError("PermutationGroup is immutable")

    @classmethod
    def from_generators(
        cls, generators: Iterable[Permutation], n: int
    ) -> "PermutationGroup":
        """Smallest subgroup of S_n containing the generators (BFS closure)."""
        gens = tuple(generators)
        for g in gens:
            if g.n != n:
                raise ValueError(f"mixed degrees: generator of degree {g.n} in S_{n}")
        identity = Permutation.identity(n)
        elements = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for h in frontier:
                for g in gens:
                    prod = g * h
                    if prod not in elements:
                        elements.add(prod)
                        nxt.append(prod)
                        if len(elements) > MAX_GROUP_ORDER:
                            raise ValueError(
                                f"group order exceeds {MAX_GROUP_ORDER}"
                            )
            frontier = nxt
        return cls(n, frozenset(elements), gens)

    @classmethod
    def from_text(cls, text: str, n: int) -> "PermutationGroup":
        return cls.from_generators(parse_generators(text, n), n)

    @classmethod
    def trivial(cls, n: int) -> "PermutationGroup":
        return cls.from_generators([], n)

    @classmethod
    def symmetric(cls, m: int, n: Optional[int] = None) -> "PermutationGroup":
        """S_m embedded in S_n (fixing m+1..n), closed from (1 2) and (1 2 ... m)."""
        n = _embedded_degree(m, n, math.factorial(m))
        gens: list[Permutation] = []
        if m >= 2:
            gens.append(parse_permutation("(1 2)", n))
        if m >= 3:
            gens.append(
                parse_permutation("(" + " ".join(map(str, range(1, m + 1))) + ")", n)
            )
        return cls.from_generators(gens, n)

    @classmethod
    def alternating(cls, m: int, n: Optional[int] = None) -> "PermutationGroup":
        """A_m embedded in S_n, closed from its standard generators."""
        n = _embedded_degree(m, n, math.factorial(m) // 2)
        gens: list[Permutation] = []
        if m >= 3:
            gens.append(parse_permutation("(1 2 3)", n))
        if m >= 4:
            # (1 2 ... m) is even iff m is odd; otherwise use the (m-1)-cycle.
            lo = 1 if m % 2 == 1 else 2
            gens.append(
                parse_permutation("(" + " ".join(map(str, range(lo, m + 1))) + ")", n)
            )
        return cls.from_generators(gens, n)

    @classmethod
    def cyclic(cls, k: int, n: Optional[int] = None) -> "PermutationGroup":
        """The cyclic group generated by the k-cycle (1 2 ... k) in S_n."""
        n = k if n is None else n
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if k == 1:
            return cls.trivial(n)
        gen = parse_permutation("(" + " ".join(map(str, range(1, k + 1))) + ")", n)
        return cls.from_generators([gen], n)

    @classmethod
    def klein_four(cls, n: int = 4) -> "PermutationGroup":
        """The Klein four group <(1 2)(3 4), (1 3)(2 4)> in S_n, n >= 4."""
        if n < 4:
            raise ValueError("klein4 needs n >= 4")
        return cls.from_generators(
            [parse_permutation("(1 2)(3 4)", n), parse_permutation("(1 3)(2 4)", n)], n
        )

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Permutation) -> bool:
        return g in self.elements

    def __repr__(self) -> str:
        gens = ", ".join(g.cycle_string() or "id" for g in self.generators) or "id"
        return f"PermutationGroup(n={self.n}, order={self.order}, <{gens}>)"

    def conjugate_by(self, s: Permutation) -> "PermutationGroup":
        """The relabelled group s G s^-1, closed from the relabelled generators."""
        return self.from_generators((g.conjugate_by(s) for g in self.generators), self.n)

    def transpositions(self) -> list[Permutation]:
        """The transpositions in G, sorted: swaps of two points in one G-orbit
        that pass the membership test."""
        swaps = (
            parse_permutation(f"({i} {j})", self.n)
            for orbit in _orbits(range(1, self.n + 1), self.generators, lambda g, i: g(i))
            for i, j in itertools.combinations(orbit, 2)
        )
        return sorted(t for t in swaps if t in self)

    def all_even(self) -> bool:
        """G is even exactly when its generators are."""
        return all(g.is_even() for g in self.generators)


def _orbits(points: Iterable, generators: Sequence[Permutation], image: Callable) -> list[set]:
    """The orbits of <generators> on a set of points it maps to itself, where
    image(g, x) is the image of x under g.  In a finite group every element is
    a product of generators, so closing under them alone gives the orbit."""
    remaining = set(points)
    orbits = []
    while remaining:
        start = remaining.pop()
        orbit, stack = {start}, [start]
        while stack:
            x = stack.pop()
            for g in generators:
                y = image(g, x)
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        remaining -= orbit
        orbits.append(orbit)
    return orbits


def fixed_space_dimension(g: Permutation) -> int:
    """Dimension of the fixed subspace of the permutation matrix of g.

    Equals the number of cycles of g on {1..n} (fixed points included), in
    every characteristic: the orbit-sum vectors form a basis of the fixed
    space regardless of the ground field.
    """
    return g.cycle_count()


def is_pseudo_reflection(g: Permutation) -> bool:
    """True iff the fixed space of g has codimension one.

    For permutation matrices this holds exactly for transpositions; the
    identity is rejected since pseudo-reflections are non-trivial.
    """
    if g.is_identity():
        raise ValueError("identity is not eligible")
    return fixed_space_dimension(g) == g.n - 1


def branch_components(group: PermutationGroup) -> int:
    """Number of irreducible components of the branch divisor.

    The ramification divisor of the quotient map is the union of the
    hyperplanes x_i = x_j over transpositions (i j) in G, and its image has
    one component per conjugation orbit of transpositions under G.  Since
    g (i j) g^-1 = (g(i) g(j)), these are the orbits of the pairs {i, j}
    under the generators.
    """
    pairs = [frozenset(t.cycles()[0]) for t in group.transpositions()]
    return len(_orbits(pairs, group.generators, lambda g, pair: frozenset(map(g, pair))))


@dataclass(frozen=True)
class GorensteinReport:
    """Gorenstein and boundary data of the quotient pair (X, B).

    The indices are divisibility statements, not exact values: 2K_X is always
    Cartier and K_X itself is Cartier when p = 2 or when G consists of even
    permutations (the top form is then invariant); B is 2-Cartier, and
    Cartier when p = 2.
    """

    kx_index_divides: int
    boundary_coefficient: Optional[Fraction]
    b_cartier_index_divides: Optional[int]
    branch_component_count: int

    def __post_init__(self):
        if self.kx_index_divides not in (1, 2):
            raise ValueError("kx_index_divides must be 1 or 2")
        coeff = self.boundary_coefficient
        if coeff is not None and coeff not in (Fraction(1), Fraction(1, 2)):
            raise ValueError(f"boundary coefficient must be 1 or 1/2, got {coeff}")
        if (coeff is None) != (self.b_cartier_index_divides is None):
            raise ValueError("boundary coefficient and Cartier index must be absent together")
        if coeff is not None and self.b_cartier_index_divides != coeff.denominator:
            raise ValueError("Cartier index must mirror the coefficient denominator")
        if (self.branch_component_count == 0) != (coeff is None):
            raise ValueError("coefficient is absent exactly when there is no branch divisor")

    def as_json(self) -> dict:
        coeff = self.boundary_coefficient
        return {
            "kx_index_divides": self.kx_index_divides,
            "boundary_coefficient": None
            if coeff is None
            else {"num": coeff.numerator, "den": coeff.denominator},
            "b_cartier_index_divides": self.b_cartier_index_divides,
            "branch_component_count": self.branch_component_count,
        }


def gorenstein_report(group: PermutationGroup, p: int) -> GorensteinReport:
    """Gorenstein index divisor, boundary coefficient, and branch count.

    In characteristic 2 the quotient is 1-Gorenstein and the boundary (if any)
    is reduced; otherwise 2K_X is Cartier and every boundary component has
    coefficient 1/2.  When G is contained in the alternating group the top
    form is G-invariant, so the index is refined to 1.
    """
    validate_characteristic(p)
    count = branch_components(group)
    if count == 0:
        coeff = None
        b_index = None
    elif p == 2:
        coeff = Fraction(1)
        b_index = 1
    else:
        coeff = Fraction(1, 2)
        b_index = 2
    if p == 2 or group.all_even():
        kx = 1
    else:
        kx = 2
    return GorensteinReport(
        kx_index_divides=kx,
        boundary_coefficient=coeff,
        b_cartier_index_divides=b_index,
        branch_component_count=count,
    )


_PRESET_RE = re.compile(r"^(S|A)(\d+)$|^cyclic:(\d+)$|^klein4$|^trivial$")


def group_from_name(name: str, n: int) -> PermutationGroup:
    """Resolve a preset name: Sm, Am, cyclic:k, klein4, trivial."""
    m = _PRESET_RE.match(name)
    if m is None:
        raise ValueError(
            f"unknown group preset {name!r} (expected Sm, Am, cyclic:k, klein4, trivial)"
        )
    if m.group(1) == "S":
        return PermutationGroup.symmetric(int(m.group(2)), n)
    if m.group(1) == "A":
        return PermutationGroup.alternating(int(m.group(2)), n)
    if m.group(3) is not None:
        return PermutationGroup.cyclic(int(m.group(3)), n)
    if name == "klein4":
        return PermutationGroup.klein_four(n)
    return PermutationGroup.trivial(n)
