"""Permutations, permutation groups, and the invariants the verdict reads.

There is one permutation format, the 0-based image tuple g(i) = images[i]:
`Permutation` wraps one and shifts points by one only in its 1-based public
view.  A group G acting on affine n-space by permuting coordinates is stored
as its generators and a stabilizer chain: a base and strong generating set
built by deterministic Schreier-Sims, with one transversal per level.  The
order is the product of the transversal lengths and membership is a sift down
the chain; no element set is kept.  The build stops as soon as |G| is known to
exceed MAX_GROUP_ORDER (2*10^5).

`PermutationGroup.invariants()` collects, once, all that the certificate in
`permsing.classify` reads from G: the degree, the order, the number of
conjugacy classes of transpositions, evenness, and the largest cycle count of
a non-identity element.  Evenness is read from the generators; the classes
of transpositions are the orbits of the generators on pairs of points in one
G-orbit whose representative passes a membership test.  The
largest cycle count is n - 1 if G has a transposition.  Otherwise it comes
from a fixed-point reduction over point stabilizers read off stabilizer chains,
and from a walk of the elements only when the stabilizers would cost more.
"""

from __future__ import annotations

import itertools
import math
import re
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

MAX_GROUP_ORDER = 200_000


class GroupInvariants(NamedTuple):
    """The integers a verdict depends on; max_cycle_count is None exactly
    for the trivial group."""

    n: int
    order: int
    transposition_classes: int
    all_even: bool
    max_cycle_count: Optional[int]


class CycleParseError(ValueError):
    """Raised on malformed cycle-notation input."""


class Permutation:
    """An element of S_n.

    It holds the 0-based image tuple the stabilizer chain works on, with
    g(i) = _images[i]; the product, inverse and cycle count are the chain's
    own.  Only the public view is 1-based: the constructor, `images`, g(i)
    and `cycles` shift by one.
    """

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise ValueError("degree must be positive")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        object.__setattr__(self, "_images", tuple([x - 1 for x in images]))

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def _valid(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap a 0-based image tuple known to be a permutation, unchecked."""
        g = object.__new__(cls)
        object.__setattr__(g, "_images", images)
        return g

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @property
    def images(self) -> tuple[int, ...]:
        """The image tuple, 1-based: images[i - 1] = g(i)."""
        return tuple([x + 1 for x in self._images])

    @property
    def n(self) -> int:
        return len(self._images)

    def __call__(self, i: int) -> int:
        return self._images[i - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("mixed degrees")
        return Permutation._valid(_compose(self._images, other._images))

    def inverse(self) -> "Permutation":
        return Permutation._valid(_inverse(self._images))

    def conjugate_by(self, s: "Permutation") -> "Permutation":
        """s * self * s^-1."""
        return s * self * s.inverse()

    def is_identity(self) -> bool:
        return self._images == tuple(range(self.n))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its minimum, sorted by minimum."""
        g, seen, out = self._images, set(), []
        for start in range(len(g)):
            if start not in seen:
                cyc = [start]
                while g[cyc[-1]] != start:
                    cyc.append(g[cyc[-1]])
                seen.update(cyc)
                if include_fixed or len(cyc) > 1:
                    out.append(tuple([x + 1 for x in cyc]))
        return out

    def cycle_count(self) -> int:
        """Number of orbits on {1..n}, fixed points included."""
        return _cycle_count(self._images)

    def is_transposition(self) -> bool:
        return _cycle_count(self._images) == self.n - 1

    def is_even(self) -> bool:
        return (self.n - _cycle_count(self._images)) % 2 == 0

    def cycle_string(self) -> str:
        """Cycle notation; the identity renders as the empty string."""
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles())

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __lt__(self, other: "Permutation") -> bool:
        return self._images < other._images

    def __hash__(self) -> int:
        return hash(self._images)

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
    cycles = []
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
        cycles.append([e - 1 for e in entries])
        pos = m.end()
    return Permutation._valid(_cycle_images(n, cycles))


def parse_generators(text: str, n: int) -> list[Permutation]:
    """Parse a ";"-separated list of cycle products into generators."""
    return [parse_permutation(part, n) for part in text.split(";")]


def _embedded_degree(m: int, n: Optional[int], name: str = "m") -> int:
    """The ambient degree n (default m) of a preset on m points."""
    n = m if n is None else n
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= {name} <= n, got {name}={m}, n={n}")
    return n


class PermutationGroup:
    """A subgroup of S_n: its generators and a stabilizer chain for them.

    The chain is a base b_0, ..., b_{k-1} and, per level i, the transversal of
    the orbit of b_i under the stabilizer of b_0, ..., b_{i-1}: a dict sending
    each orbit point x to a pair (u, u^-1) of 0-based image tuples with
    u(b_i) = x.  Every element is exactly one product u_0 u_1 ... u_{k-1}.
    """

    __slots__ = ("n", "generators", "_base", "_transversals")

    def __init__(self, n: int, generators: tuple, base: tuple, transversals: tuple):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_transversals", transversals)

    def __setattr__(self, name, value):
        raise AttributeError("PermutationGroup is immutable")

    @classmethod
    def from_generators(cls, generators: Iterable[Permutation], n: int) -> "PermutationGroup":
        """Smallest subgroup of S_n containing the generators (Schreier-Sims)."""
        gens = tuple(generators)
        for g in gens:
            if g.n != n:
                raise ValueError(f"mixed degrees: generator of degree {g.n} in S_{n}")
        base, transversals = _schreier_sims([g._images for g in gens], n)
        return cls(n, gens, tuple(base), tuple(transversals))

    @classmethod
    def from_text(cls, text: str, n: int) -> "PermutationGroup":
        return cls.from_generators(parse_generators(text, n), n)

    @classmethod
    def trivial(cls, n: int) -> "PermutationGroup":
        return cls.from_generators([], n)

    @classmethod
    def _from_cycles(cls, n: int, generators: list[list[tuple[int, ...]]]) -> "PermutationGroup":
        """The group generated by products of disjoint cycles of 0-based points."""
        return cls.from_generators(
            [Permutation._valid(_cycle_images(n, cycles)) for cycles in generators], n
        )

    @classmethod
    def symmetric(cls, m: int, n: Optional[int] = None) -> "PermutationGroup":
        """S_m embedded in S_n (fixing m+1..n), closed from (1 2) and (1 2 ... m)."""
        n = _embedded_degree(m, n)
        return cls._from_cycles(n, [[(0, 1)], [tuple(range(m))]][: max(m - 1, 0)])

    @classmethod
    def alternating(cls, m: int, n: Optional[int] = None) -> "PermutationGroup":
        """A_m embedded in S_n, closed from its standard generators."""
        n = _embedded_degree(m, n)
        # (1 2 ... m) is even iff m is odd; otherwise use the (m-1)-cycle.
        lo = 0 if m % 2 == 1 else 1
        return cls._from_cycles(n, [[(0, 1, 2)], [tuple(range(lo, m))]][: max(m - 2, 0)])

    @classmethod
    def cyclic(cls, k: int, n: Optional[int] = None) -> "PermutationGroup":
        """The cyclic group generated by the k-cycle (1 2 ... k) in S_n."""
        n = _embedded_degree(k, n, "k")
        if k == 1:
            return cls.trivial(n)
        return cls._from_cycles(n, [[tuple(range(k))]])

    @classmethod
    def klein_four(cls, n: int = 4) -> "PermutationGroup":
        """The Klein four group <(1 2)(3 4), (1 3)(2 4)> in S_n, n >= 4."""
        if n < 4:
            raise ValueError("klein4 needs n >= 4")
        return cls._from_cycles(n, [[(0, 1), (2, 3)], [(0, 2), (1, 3)]])

    @property
    def order(self) -> int:
        return math.prod(len(t) for t in self._transversals)

    def __contains__(self, g: Permutation) -> bool:
        return isinstance(g, Permutation) and g.n == self.n and self._sifts(g._images)

    def _sifts(self, h: tuple[int, ...]) -> bool:
        """Whether the 0-based image tuple h sifts to the identity."""
        h, level = _sift(h, self._base, self._transversals, 0)
        return level == len(self._base) and all(x == i for i, x in enumerate(h))

    def __repr__(self) -> str:
        gens = ", ".join(g.cycle_string() or "id" for g in self.generators) or "id"
        return f"PermutationGroup(n={self.n}, order={self.order}, <{gens}>)"

    def conjugate_by(self, s: Permutation) -> "PermutationGroup":
        """The relabelled group s G s^-1, closed from the relabelled generators."""
        return self.from_generators((g.conjugate_by(s) for g in self.generators), self.n)

    def _transposition_orbits(self) -> list[set]:
        """The G-conjugacy classes of transpositions in G, as sets of swapped
        pairs (i, j) with i < j.  Since g (i j) g^-1 = (g(i) g(j)), a class is
        an orbit of the generators on pairs of points in one G-orbit, and G
        holds all of it or none of it: one membership test per orbit decides."""

        def image(g, pair):
            a, b = g[pair[0]], g[pair[1]]
            return (a, b) if a < b else (b, a)

        gens = [g._images for g in self.generators]
        pairs = (
            pair
            for orbit in _orbits(range(self.n), gens, tuple.__getitem__)
            for pair in itertools.combinations(sorted(orbit), 2)
        )
        pair_orbits = _orbits(pairs, gens, image)
        return [o for o in pair_orbits if self._sifts(_cycle_images(self.n, [min(o)]))]

    def transpositions(self) -> list[Permutation]:
        """The transpositions in G, sorted."""
        return sorted(
            Permutation._valid(_cycle_images(self.n, [pair]))
            for orbit in self._transposition_orbits()
            for pair in orbit
        )

    def transposition_classes(self) -> int:
        """The number of G-conjugacy classes of transpositions in G."""
        return len(self._transposition_orbits())

    def all_even(self) -> bool:
        """G is even exactly when its generators are."""
        return all(g.is_even() for g in self.generators)

    def invariants(self) -> GroupInvariants:
        """The invariants of G, each computed once."""
        classes, even = self.transposition_classes(), self.all_even()
        nonfree = self.n - 1 if classes else self._max_cycle_count()
        return GroupInvariants(self.n, self.order, classes, even, nonfree)

    def _max_cycle_count(self) -> Optional[int]:
        """The largest cycle count of a non-identity element of G, which has
        no transposition; None for the trivial group.

        For H != 1 fixing F points, with n' = n - F and r the least prime
        dividing |H|, it is the larger of F + n'//r and its value on H_x for
        one x per non-trivial H-orbit: an element fixing a point there is
        conjugate into H_x, one fixing none has at most the cycles of a power
        of prime order r' >= r, F + n'/r' unless that power fixes a point, and
        one of order r has F + n'//r cycles or lies in some H_x.  H_x is the
        tail of H's chain, rebuilt on the base prefix (x,) unless x is its
        first base point; as a pointwise stabilizer it is determined by its
        moved points, so it is visited once.  The search stops at
        n - max(2, r - 1) for r of G.  It gives way to the element walk after
        16 + |G|/128 rebuilds, since the stabilizers can outnumber the
        elements (C2^k moving pairs of points in general position).
        """
        n = self.n
        ceiling = n - max(2, _least_prime_factor(self.order) - 1)
        best, seen = 0, set()
        rebuilds = 16 + self.order // 128

        def visit(gens, base, trans):
            nonlocal best, rebuilds
            orbits = [o for o in _orbits(range(n), gens, tuple.__getitem__) if len(o) > 1]
            moved = frozenset().union(*orbits)
            if not moved or moved in seen:
                return
            seen.add(moved)
            r = _least_prime_factor(math.prod(len(t) for t in trans))
            best = max(best, n - len(moved) + len(moved) // r)
            for orbit in orbits:
                if best >= ceiling or rebuilds < 0:
                    return
                if base[0] in orbit:
                    sub_base, sub_trans = base, trans
                else:
                    rebuilds -= 1
                    sub_base, sub_trans = _schreier_sims(gens, n, (min(orbit),))
                tail = sub_trans[1:]
                visit([u for t in tail for u, _ in t.values()], sub_base[1:], tail)

        visit([g._images for g in self.generators], self._base, self._transversals)
        if rebuilds < 0:
            return self._max_cycle_count_by_walk(ceiling)
        return best or None

    def _max_cycle_count_by_walk(self, ceiling: int) -> Optional[int]:
        """Walk every element of G != 1, as a product of one transversal
        representative per level, stopping once a count reaches the ceiling."""
        n = self.n
        levels = [[u for u, _ in t.values()] for t in self._transversals]
        best = None
        last = [itemgetter(*u) for u in levels[-1]]  # n >= 2 here
        for prefix in _prefix_products(levels[:-1], tuple(range(n))):
            for times_u in last:
                count = _cycle_count(times_u(prefix))
                if count < n and (best is None or count > best):
                    best = count
                    if best >= ceiling:
                        return best
        return best


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


# The permutation arithmetic, on 0-based image tuples.

def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a * b)(i) = a(b(i))."""
    # itemgetter of one index returns the item itself, not a 1-tuple
    return itemgetter(*b)(a) if len(b) > 1 else (a[b[0]],)


def _inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def _cycle_images(n: int, cycles: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The product of disjoint cycles of 0-based points."""
    images = list(range(n))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return tuple(images)


def _cycle_count(g: tuple[int, ...]) -> int:
    seen = [False] * len(g)
    count = 0
    for start, j in enumerate(g):
        if not seen[start]:
            count += 1
            seen[start] = True
            while j != start:
                seen[j] = True
                j = g[j]
    return count


def _prefix_products(levels: list[list], prefix: tuple[int, ...]):
    """Every product prefix * u_0 * ... * u_{k-1}, one u_i from each level."""
    if not levels:
        yield prefix
        return
    for u in levels[0]:
        yield from _prefix_products(levels[1:], _compose(prefix, u))


def _least_prime_factor(m: int) -> int:
    """The least prime dividing m > 1, by trial division."""
    return next((q for q in range(2, math.isqrt(m) + 1) if m % q == 0), m)


def _schreier_sims(gens: list[tuple], n: int, prefix: tuple = ()) -> tuple[list[int], list[dict]]:
    """Base and transversals of the group the 0-based image tuples generate,
    by deterministic Schreier-Sims (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 4.4.2).

    Level i keeps the strong generators fixing base[:i], with their inverses,
    and the transversal of their orbit of base[i].  Each generator, and then
    each Schreier generator u_{s(x)}^-1 s u_x of a level, is sifted through
    the levels below it.  A residue that does not sift joins those levels as
    a strong generator (on a new base point if it fixes the whole base), and
    the check resumes at the deepest level it joined.  The product of the
    orbit sizes is a lower bound on |G| throughout, so the build stops as
    soon as it exceeds MAX_GROUP_ORDER.  The base starts with the points of
    prefix, whose levels may be trivial.
    """
    identity = tuple(range(n))
    base: list[int] = list(prefix)
    strong: list[list[tuple]] = [[] for _ in base]
    trans: list[dict] = [{b: (identity, identity)} for b in base]

    def add(h, lo, hi):
        if hi == len(base):
            b = next(x for x in range(n) if h[x] != x)
            base.append(b)
            strong.append([])
            trans.append({b: (identity, identity)})
        pair = (h, _inverse(h))
        for i in range(lo, hi + 1):
            strong[i].append(pair)
            _extend_orbit(trans[i], strong[i])
        if math.prod(len(t) for t in trans) > MAX_GROUP_ORDER:
            raise ValueError(f"group order exceeds {MAX_GROUP_ORDER}")

    def schreier_generators(i):
        t = trans[i]
        for u, _ in t.values():
            for s, _ in strong[i]:
                su = _compose(s, u)
                v, v_inv = t[su[base[i]]]
                if su != v:
                    yield _compose(v_inv, su)

    for g in gens:
        h, j = _sift(g, base, trans, 0)
        if j < len(base) or h != identity:
            add(h, 0, j)
    i = len(base) - 1
    while i >= 0:
        for h in schreier_generators(i):
            h, j = _sift(h, base, trans, i + 1)
            if j < len(base) or h != identity:
                add(h, i + 1, j)
                i = j
                break
        else:
            i -= 1
    return base, trans


def _sift(h: tuple[int, ...], base: Sequence[int], trans: Sequence[dict], level: int):
    """Strip h down the chain from the given level: the residue, and the level
    at which it left the chain (len(base) if it passed every level)."""
    for i in range(level, len(base)):
        b = base[i]
        x = h[b]
        if x != b:
            u = trans[i].get(x)
            if u is None:
                return h, i
            h = _compose(u[1], h)
    return h, len(base)


def _extend_orbit(t: dict, gens: list[tuple]) -> None:
    """Close the transversal t under the (generator, inverse) pairs: a new
    point y = s(x) gets u_y = s u_x and u_y^-1 = u_x^-1 s^-1."""
    points = list(t)
    for x in points:
        u, u_inv = t[x]
        for s, s_inv in gens:
            y = s[x]
            if y not in t:
                t[y] = (_compose(s, u), _compose(u_inv, s_inv))
                points.append(y)


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
