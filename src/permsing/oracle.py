"""Brute-force oracles over small finite fields.

These validate the dimension formulas independently of their closed forms by
actually counting covers of the punctured formal disk over F_q((t)):

* degree-p cyclic covers are counted through principal parts modulo the
  Artin-Schreier operator f -> f^p - f, with the quotient computed by exact
  linear algebra over the prime field;
* tame totally ramified extensions are counted by enumerating radicals of
  Eisenstein binomials x^n - u*t in an explicit splitting field and
  identifying conjugate generators.

Everything is capped at desk scale (q <= 81, pole orders <= 9); larger
parameters raise instead of silently running long.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .gf import GF, Elem
from .halfint import NEG_INF, ExtHalf
from .primes import factor_prime_power
from .strata import dim_connected, dim_cyclic_cubic_galois

MAX_Q = 81
MAX_POLE = 9
MAX_ENUMERATION = 4_000_000
MAX_SPLITTING_FIELD = 100_000


class PrincipalPart:
    """A truncated Laurent principal part sum_i c_i t^(-i) over F_q."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs: dict[int, Elem]):
        for i in coeffs:
            if i < 1:
                raise ValueError(f"pole orders must be >= 1, got {i}")
        self.field = field
        self.coeffs = {i: c for i, c in coeffs.items() if c != field.zero}

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def q(self) -> int:
        return self.field.q

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
        out: dict[int, Elem] = {}
        for i, c in self.coeffs.items():
            j = self.p * i
            out[j] = F.add(out.get(j, F.zero), F.frobenius(c))
        for i, c in self.coeffs.items():
            out[i] = F.sub(out.get(i, F.zero), c)
        return PrincipalPart(F, out)

    def __repr__(self) -> str:
        terms = ", ".join(f"t^-{i}: {c}" for i, c in sorted(self.coeffs.items()))
        return f"PrincipalPart(q={self.q}, {{{terms}}})"


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
        self._pivots = self._echelonize_image()

    # vector layout: coordinate (i - 1) * e + k holds the k-th prime-field
    # coordinate of the coefficient at pole order i

    def _unit_vector_image(self, i: int, k: int) -> list[int]:
        F = self.field
        basis_elem = tuple(1 if j == k else 0 for j in range(self._e))
        vec = [0] * self._dim
        frob = F.frobenius(basis_elem)
        for j, x in enumerate(frob):
            vec[(self.p * i - 1) * self._e + j] = x
        for j, x in enumerate(basis_elem):
            idx = (i - 1) * self._e + j
            vec[idx] = (vec[idx] - x) % self.p
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

    def canonical(self, vec: list[int]) -> tuple[int, ...]:
        """Unique coset representative modulo the Artin-Schreier image."""
        return tuple(self._reduce(vec, self._pivots))

    def to_vector(self, part: PrincipalPart) -> list[int]:
        if part.pole_order() > self._ambient_max:
            raise ValueError("pole order exceeds the ambient truncation")
        vec = [0] * self._dim
        for i, c in part.coeffs.items():
            for k, x in enumerate(c):
                vec[(i - 1) * self._e + k] = x
        return vec

    def to_part(self, vec) -> PrincipalPart:
        coeffs = {}
        for i in range(1, self._ambient_max + 1):
            c = tuple(vec[(i - 1) * self._e : i * self._e])
            if any(c):
                coeffs[i] = c
        return PrincipalPart(self.field, coeffs)

    @property
    def basis(self) -> list[PrincipalPart]:
        """Reduced representatives: one basis part per coprime pole order and
        prime-field coordinate, up to max_pole."""
        out = []
        for i in range(1, self.max_pole + 1):
            if i % self.p == 0:
                continue
            for k in range(self._e):
                elem = tuple(1 if j == k else 0 for j in range(self._e))
                out.append(PrincipalPart(self.field, {i: elem}))
        return out

    def reduced_representative(self, part: PrincipalPart) -> PrincipalPart:
        """The representative supported on pole orders coprime to p.

        A term c t^(-pm) is congruent to c^(1/p) t^(-m) modulo the operator;
        stripping top-down terminates with the unique coprime-support
        representative, whose pole order is the ramification jump of the class.
        """
        F = self.field
        coeffs = dict(part.coeffs)
        order = max(coeffs, default=0)
        while order:
            c = coeffs.get(order)
            if c is None or c == F.zero:
                coeffs.pop(order, None)
            elif order % self.p == 0:
                root = F.pow(c, F.q // self.p)  # Frobenius inverse: c^(q/p)
                below = order // self.p
                coeffs[below] = F.add(coeffs.get(below, F.zero), root)
                del coeffs[order]
            order -= 1
        return PrincipalPart(F, coeffs)

    def _enumerate_vectors(self, top: int) -> Iterator[tuple[tuple, list[int]]]:
        """All principal parts with pole order <= top, as vectors."""
        if self.q**top > MAX_ENUMERATION:
            raise ValueError(
                f"enumerating q^jump = {self.q}^{top} principal parts is beyond desk scale"
            )
        elems = list(self.field.elements())
        for combo in itertools.product(elems, repeat=top):
            vec = [0] * self._dim
            for i, c in enumerate(combo, start=1):
                for k, x in enumerate(c):
                    vec[(i - 1) * self._e + k] = x
            yield combo, vec

    def count_classes_exact_pole(self, jump: int) -> int:
        """Classes represented by a principal part of exact pole order jump."""
        if not 1 <= jump <= self.max_pole:
            raise ValueError(f"jump must be in 1..{self.max_pole}")
        zero = self.field.zero
        reps = set()
        for combo, vec in self._enumerate_vectors(jump):
            if combo[jump - 1] == zero:
                continue
            reps.add(self.canonical(vec))
        return len(reps)

    def count_classes_reduced_order(self, jump: int) -> int:
        """Classes whose coprime-support representative has pole order jump.

        This is the count of classes with ramification jump equal to jump; it
        vanishes when p divides jump.
        """
        if not 1 <= jump <= self.max_pole:
            raise ValueError(f"jump must be in 1..{self.max_pole}")
        reps = set()
        for _, vec in self._enumerate_vectors(jump):
            red = self.reduced_representative(self.to_part(vec))
            if red.pole_order() == jump:
                reps.add(tuple(sorted(red.coeffs.items())))
        return len(reps)


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


def discriminant_of_jump(p: int, jump: int) -> int:
    """Discriminant exponent of a degree-p cyclic cover with ramification jump."""
    if jump < 1:
        raise ValueError(f"jump must be positive, got {jump}")
    if jump % p == 0:
        raise ValueError(f"jump must be prime to p, got jump={jump}, p={p}")
    return (p - 1) * (jump + 1)


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
    counts = []
    measured = []
    for q in qs:
        if predicted.is_finite:
            count = as_class_count(p, q, jump)
        elif jump >= 1:
            count = ASQuotient(p, q, jump).count_classes_reduced_order(jump)
        else:
            count = 0
        counts.append(count)
        measured.append(_infer_dimension(count, q))
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
