"""Finite fields GF(p^e) with log/antilog tables.

An element is an int in 0..q-1 whose base-p digits, lowest first, are its
coordinates in the basis 1, x, ..., x^(e-1) of F_p[x]/(f), where f is a monic
irreducible polynomial found by brute force at construction time.  The oracle
code relies on the coordinates being an F_p-basis: the Frobenius map is then
F_p-linear on coordinates.

Sums act digit by digit.  The first product builds the exp/log tables of
a primitive element, found by the order test on the prime factors of q - 1,
with the schoolbook product modulo f; after that `mul`, `pow`, `inv` and
`frobenius` are index arithmetic modulo q - 1 and one table lookup.  The
tables hold about 3q ints; the oracles keep their fields at no more than
10^5 elements.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .primes import is_prime

Elem = int


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Divide polynomials over F_p (coefficient lists, lowest degree first)."""
    num = list(num)
    dlead = den[-1]
    dlead_inv = pow(dlead, p - 2, p)
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for shift in range(len(num) - len(den), -1, -1):
        c = (num[shift + len(den) - 1] * dlead_inv) % p
        quot[shift] = c
        if c:
            for i, dc in enumerate(den):
                num[shift + i] = (num[shift + i] - c * dc) % p
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _find_irreducible(p: int, e: int) -> list[int]:
    """A monic irreducible polynomial of degree e over F_p (lowest degree first)."""
    if e == 1:
        return [0, 1]
    divisor_degrees = range(1, e // 2 + 1)
    for tail in itertools.product(range(p), repeat=e):
        cand = list(tail) + [1]
        if cand[0] == 0:
            continue
        reducible = False
        for deg in divisor_degrees:
            for dtail in itertools.product(range(p), repeat=deg):
                den = list(dtail) + [1]
                _, rem = _poly_divmod(cand, den, p)
                if not rem:
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return cand
    raise RuntimeError(f"no irreducible polynomial of degree {e} over F_{p}")


class GF:
    """The field with p^e elements."""

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree must be positive, got {e}")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = _find_irreducible(p, e)
        self.zero: Elem = 0
        self.one: Elem = 1
        # exp[k] = g^(k mod (q-1)) for k < 2(q-1), so a sum of two logs needs
        # no reduction; log[a] for a != 0.  Both are built on first use.
        self._exp: list[int] = []
        self._log: list[int] = []

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.e})"

    def elements(self) -> range:
        """All q elements, in a fixed order."""
        return range(self.q)

    def coordinates(self, a: Elem) -> list[int]:
        """The e prime-field coordinates of a, lowest power of x first."""
        return [a // self.p**k % self.p for k in range(self.e)]

    def element(self, coords: Sequence[int]) -> Elem:
        """The element with these coordinates, each taken modulo p."""
        a = 0
        for digit in reversed(coords):
            a = a * self.p + digit % self.p
        return a

    def scalar(self, c: int) -> Elem:
        """Embed an integer into the prime field."""
        return c % self.p

    def add(self, a: Elem, b: Elem) -> Elem:
        return self.element([x + y for x, y in zip(self.coordinates(a), self.coordinates(b))])

    def neg(self, a: Elem) -> Elem:
        return self.element([-x for x in self.coordinates(a)])

    def sub(self, a: Elem, b: Elem) -> Elem:
        return self.element([x - y for x, y in zip(self.coordinates(a), self.coordinates(b))])

    def smul(self, c: int, a: Elem) -> Elem:
        return self.element([c * x for x in self.coordinates(a)])

    def _schoolbook(self, a: list[int], b: list[int]) -> list[int]:
        """The product of two coordinate lists, reduced modulo the defining polynomial."""
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        mod = self.modulus
        for k in range(len(prod) - 1, e - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i in range(e):
                    prod[k - e + i] = (prod[k - e + i] - c * mod[i]) % p
        return prod[:e]

    def _is_primitive(self, g: Elem, cofactors: list[int]) -> bool:
        """Order test: g generates F_q^* iff g^((q-1)/r) != 1 for each prime r | q-1."""
        one = self.coordinates(1)
        for k in cofactors:
            result, base = one, self.coordinates(g)
            while k:
                if k & 1:
                    result = self._schoolbook(result, base)
                base = self._schoolbook(base, base)
                k >>= 1
            if result == one:
                return False
        return True

    def _tables(self) -> list[int]:
        """Build exp/log of the first primitive element; returns log."""
        n = self.q - 1
        cofactors = [n // r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
        g = next(a for a in range(1, self.q) if self._is_primitive(a, cofactors))
        exp, log = [0] * (2 * n), [0] * self.q
        x, gx = self.coordinates(1), self.coordinates(g)
        for k in range(n):
            a = self.element(x)
            exp[k] = exp[k + n] = a
            log[a] = k
            x = self._schoolbook(gx, x)  # g first: its zero coordinates are skipped
        self._exp = exp
        self._log = log
        return log

    def mul(self, a: Elem, b: Elem) -> Elem:
        if not a or not b:
            return 0
        log = self._log or self._tables()
        return self._exp[log[a] + log[b]]

    def pow(self, a: Elem, k: int) -> Elem:
        if k < 0:
            raise ValueError("negative exponent")
        if not a:
            return 0 if k else 1
        log = self._log or self._tables()
        return self._exp[log[a] * k % (self.q - 1)]

    def frobenius(self, a: Elem) -> Elem:
        """a^p, the F_p-linear Frobenius."""
        return self.pow(a, self.p)

    def inv(self, a: Elem) -> Elem:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        log = self._log or self._tables()
        return self._exp[-log[a] % (self.q - 1)]
