"""Brute-force oracles over small finite fields.

These validate the dimension formulas independently of their closed forms by
actually counting covers of the punctured formal disk over F_q((t)):

* degree-p cyclic covers are counted through principal parts modulo the
  Artin-Schreier operator f -> f^p - f, with the quotient computed by exact
  linear algebra over the prime field.  Both reductions of a part, the
  canonical coset representative and the coprime-support representative,
  are F_p-linear, so each is applied once per coordinate unit vector.  Every
  principal part is then visited as an F_p-vector packed into one int (a
  bitmask added by XOR for p = 2, three bits per digit for p = 3), in
  Gray-code order so that each part costs one add of a unit image, and the
  distinct representatives are collected in a set of ints;
* tame totally ramified extensions are counted by enumerating radicals of
  Eisenstein binomials x^n - u*t in an explicit splitting field and
  identifying conjugate generators; each power is one log-table lookup in
  the field (see gf.py).

Everything is capped at desk scale (q <= 81, pole orders <= 9, at most
4 * 10^6 principal parts, splitting fields of at most 10^5 elements); larger
parameters raise instead of silently running long.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .gf import GF
from .halfint import NEG_INF, ExtHalf
from .primes import factor_prime_power
from .strata import dim_connected, dim_cyclic_cubic_galois

MAX_Q = 81
MAX_POLE = 9
MAX_ENUMERATION = 4_000_000
MAX_SPLITTING_FIELD = 100_000


def _gray_sums(p: int, images: list[int], x: int, add) -> Iterator[int]:
    """x plus each of the p^len(images) F_p-combinations of images, one add each.

    Step k of the modular p-ary Gray code adds images[v_p(k)]: digit j has then
    been raised k_j - k_(j+1) times modulo p, which is a bijection of the
    base-p digits of k, so every combination comes once.  The steps over the
    first 8 digits are listed once and replayed from each combination of the
    others, so the inner loop runs in C.
    """
    inner, outer = images[:8], images[8:]
    steps = []
    for k in range(1, p ** len(inner)):
        j = 0
        while k % p == 0:
            k //= p
            j += 1
        steps.append(inner[j])
    starts = _gray_sums(p, outer, x, add) if outer else (x,)
    return itertools.chain.from_iterable(
        itertools.accumulate(steps, add, initial=y) for y in starts
    )


class ASQuotient:
    """Principal parts with pole order <= max_pole, modulo the Artin-Schreier
    operator, as an F_p-vector space quotient.

    Two principal parts are identified iff their difference is the image of a
    principal part of pole order <= ceil(max_pole / p); the image subspace is
    kept in reduced echelon form, giving each part a unique canonical coset
    representative.  Each class also has a unique representative supported on
    pole orders coprime to p, computed by an independent stripping procedure;
    the two routes are cross-checked in the tests.
    """

    def __init__(self, p: int, q: int, max_pole: int):
        if p not in (2, 3):
            raise ValueError(f"p must be 2 or 3, got {p}")
        if q > MAX_Q:
            raise ValueError(f"q must be <= {MAX_Q}, got {q}")
        if not 1 <= max_pole <= MAX_POLE:
            raise ValueError(f"max pole order must be in 1..{MAX_POLE}, got {max_pole}")
        fp, e = factor_prime_power(q)
        if fp != p:
            raise ValueError(f"q = {q} is not a power of p = {p}")
        self.p = p
        self.q = q
        self.max_pole = max_pole
        self.field = GF(p, e)
        self._e = e
        self._domain_max = -(-max_pole // p)  # ceil
        self._ambient_max = p * self._domain_max
        self._dim = self._ambient_max * e
        self._width = 1 if p == 2 else 3
        self._pivots = self._echelonize_image()

    # vector layout: coordinate (i - 1) * e + k holds the k-th prime-field
    # coordinate of the coefficient at pole order i.  Packed into one int,
    # coordinate j sits at bit j for p = 2 and in bits 3j..3j+2 for p = 3.

    def _unit_vector_image(self, i: int, k: int) -> list[int]:
        F, e = self.field, self._e
        vec = [0] * self._dim
        for j, x in enumerate(F.coordinates(F.frobenius(self.p**k))):
            vec[(self.p * i - 1) * e + j] = x
        idx = (i - 1) * e + k
        vec[idx] = (vec[idx] - 1) % self.p
        return vec

    def _echelonize_image(self) -> list[tuple[int, list[int]]]:
        """Reduced echelon basis of the operator image, pivot = top coordinate."""
        p = self.p
        pivots: list[tuple[int, list[int]]] = []
        for i in range(1, self._domain_max + 1):
            for k in range(self._e):
                row = self._reduce(self._unit_vector_image(i, k), pivots)
                lead = max((idx for idx, x in enumerate(row) if x), default=-1)
                if lead < 0:
                    continue  # dependent image (the operator is injective here)
                inv = pow(row[lead], p - 2, p)
                row = [(x * inv) % p for x in row]
                # keep reduced form: clear the new pivot from existing rows
                for pos, (old_lead, old_row) in enumerate(pivots):
                    c = old_row[lead]
                    if c:
                        pivots[pos] = (
                            old_lead,
                            [(x - c * y) % p for x, y in zip(old_row, row)],
                        )
                pivots.append((lead, row))
        pivots.sort(key=lambda pr: -pr[0])
        return pivots

    def _reduce(self, vec: list[int], pivots) -> list[int]:
        p = self.p
        vec = list(vec)
        for lead, row in pivots:
            c = vec[lead]
            if c:
                vec = [(x - c * y) % p for x, y in zip(vec, row)]
        return vec

    def canonical(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Unique coset representative modulo the Artin-Schreier image."""
        return tuple(self._reduce(vec, self._pivots))

    def reduced_representative(self, vec: Sequence[int]) -> tuple[int, ...]:
        """The representative supported on pole orders coprime to p.

        A term c t^(-pm) is congruent to c^(1/p) t^(-m) modulo the operator;
        stripping top-down terminates with the unique coprime-support
        representative, whose pole order is the ramification jump of the class.
        """
        F, p, e = self.field, self.p, self._e
        vec = list(vec)
        for order in range(self._ambient_max, 0, -p):
            top = slice((order - 1) * e, order * e)
            c = F.element(vec[top])
            if c:
                below = (order // p - 1) * e
                root = F.pow(c, F.q // p)  # Frobenius inverse: c^(q/p)
                for k, x in enumerate(F.coordinates(root)):
                    vec[below + k] = (vec[below + k] + x) % p
                vec[top] = [0] * e
        return tuple(vec)

    def _parts(self, reduce, top: int) -> Iterator[Iterator[int]]:
        """reduce of every principal part of pole order <= top, packed.

        reduce is F_p-linear, so it is applied once per coordinate unit vector
        and each part costs one add of a packed unit image, in Gray-code order.
        The q^top parts come as q streams of q^(top-1), one per coefficient of
        t^(-top), the coefficient zero first.  No part is kept.
        """
        if self.q**top > MAX_ENUMERATION:
            raise ValueError(
                f"enumerating q^jump = {self.q}^{top} principal parts is beyond desk scale"
            )
        p, e, width = self.p, self._e, self._width
        images = []
        for j in range(top * e):
            unit = [0] * self._dim
            unit[j] = 1
            images.append(sum(x << width * i for i, x in enumerate(reduce(unit))))
        if p == 2:
            add = operator.xor
        else:
            ones = sum(1 << 3 * i for i in range(self._dim))
            fours = ones << 2

            def add(a: int, b: int) -> int:
                s = a + b  # digits 0..4; take 3 off each digit that reached 3
                return s - 3 * (((s + ones) & fours) >> 2)

        lower, upper = images[:-e], images[-e:]
        return (_gray_sums(p, lower, start, add) for start in _gray_sums(p, upper, 0, add))

    def count_classes_exact_pole(self, jump: int) -> int:
        """Classes represented by a principal part of exact pole order jump."""
        if not 1 <= jump <= self.max_pole:
            raise ValueError(f"jump must be in 1..{self.max_pole}")
        streams = self._parts(self.canonical, jump)
        next(streams)  # a zero coefficient of t^(-jump): the pole order is lower
        return len(set(itertools.chain.from_iterable(streams)))

    def count_classes_reduced_order(self, jump: int) -> int:
        """Classes whose coprime-support representative has pole order jump.

        This is the count of classes with ramification jump equal to jump; it
        vanishes when p divides jump.
        """
        if not 1 <= jump <= self.max_pole:
            raise ValueError(f"jump must be in 1..{self.max_pole}")
        floor = 1 << self._width * (jump - 1) * self._e  # the jump block starts here
        parts = itertools.chain.from_iterable(self._parts(self.reduced_representative, jump))
        return len({v for v in parts if v >= floor})


def as_class_count(p: int, q: int, jump: int) -> int:
    """Number of Artin-Schreier classes of exact pole order jump over F_q((t)).

    Computed by enumerating all principal parts with pole order <= jump and
    quotienting by the operator image via linear algebra over F_p.  Equals
    (q-1) * q^(#{i <= jump : p does not divide i} - 1).
    """
    if p not in (2, 3):
        raise ValueError(f"p must be 2 or 3, got {p}")
    if jump < 1 or jump % p == 0:
        raise ValueError(f"jump must be positive and prime to p, got {jump}")
    return ASQuotient(p, q, jump).count_classes_exact_pole(jump)


@dataclass(frozen=True)
class DimensionGrowthCheck:
    predicted: ExtHalf
    counts: tuple[int, ...]
    measured_exponents: tuple[Optional[ExtHalf], ...]
    ok: bool


def _infer_dimension(count: int, q: int) -> Optional[ExtHalf]:
    """Solve count = (q-1) * q^(dim-1) for dim; None if count has no such form."""
    if count == 0:
        return NEG_INF
    if count % (q - 1) != 0:
        return None
    t = count // (q - 1)
    ex = 0
    while t % q == 0:
        t //= q
        ex += 1
    if t != 1:
        return None
    return ExtHalf(ex + 1)


def verify_dimension_growth(
    p: int, n: int, d: int, qs: list[int]
) -> DimensionGrowthCheck:
    """Check that class counts grow like (q-1) * q^(dim-1) with the predicted dim.

    Supported cases: (p, n) = (2, 2), counting quadratic Artin-Schreier
    classes of jump d - 1 against the connected-cover dimension; and
    (p, n) = (3, 3) for the Galois-cubic locus, counting cubic classes of
    jump d/2 - 1 against the cyclic-cubic dimension.
    """
    if (p, n) == (2, 2):
        if d < 1:
            raise ValueError("need d >= 1")
        jump = d - 1
        predicted = dim_connected(2, d, 2)
    elif (p, n) == (3, 3):
        if d < 4 or d % 2 != 0:
            raise ValueError(f"Galois cubics need even d >= 4, got {d}")
        jump = d // 2 - 1
        predicted = dim_cyclic_cubic_galois(d)
    else:
        raise ValueError(f"unsupported (p, n) = ({p}, {n})")
    by_q = {}
    for q in dict.fromkeys(qs):  # each distinct q once, in order of first use
        if predicted.is_finite:
            by_q[q] = as_class_count(p, q, jump)
        elif jump >= 1:
            by_q[q] = ASQuotient(p, q, jump).count_classes_reduced_order(jump)
        else:
            by_q[q] = 0
    counts = [by_q[q] for q in qs]
    measured = [_infer_dimension(count, q) for q, count in zip(qs, counts)]
    ok = all(m == predicted for m in measured)
    return DimensionGrowthCheck(
        predicted=predicted,
        counts=tuple(counts),
        measured_exponents=tuple(measured),
        ok=ok,
    )


def _multiplicative_order(a: int, m: int) -> int:
    if m == 1:
        return 1
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit modulo {m}")
    x = a % m
    k = 1
    while x != 1:
        x = (x * a) % m
        k += 1
    return k


def tame_totally_ramified_count(q: int, n: int) -> int:
    """Number of totally ramified degree-n extensions of F_q((t)) in a fixed
    separable closure, for n prime to q.  The classical count is n.

    Oracle method: every such extension is generated by a root of an
    Eisenstein binomial x^n - u*t with u a constant unit.  In a splitting
    field F_Q((s)) with s^n = t, chosen so that F_Q contains the n-th roots
    of unity and an n-th root of every u, the generators are the elements
    beta*s with beta^n constant, and two generate the same subfield exactly
    when beta'/beta is a constant.  So the count is
    #{beta in F_Q^* : beta^n in F_q^*} / (q - 1).
    """
    if q > MAX_Q:  # before factoring, which is linear in q
        raise ValueError(f"q must be <= {MAX_Q}, got {q}")
    p, e = factor_prime_power(q)
    if not 1 <= n <= MAX_POLE:
        raise ValueError(f"n must be in 1..{MAX_POLE}, got {n}")
    if n % p == 0:
        raise ValueError(f"p = {p} must not divide n = {n}")
    m = n * (q - 1)
    big = _multiplicative_order(q, m)
    if q**big > MAX_SPLITTING_FIELD:
        raise ValueError("splitting field beyond desk scale")
    F = GF(p, e * big)
    constants = {x for x in F.elements() if x != F.zero and F.pow(x, q) == x}
    if len(constants) != q - 1:
        raise RuntimeError("embedded constant field has the wrong size")
    hits = sum(
        1 for beta in F.elements() if beta != F.zero and F.pow(beta, n) in constants
    )
    if hits % (q - 1) != 0:
        raise RuntimeError("radical count is not divisible by the unit count")
    return hits // (q - 1)
