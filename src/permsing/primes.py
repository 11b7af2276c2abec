"""Characteristic validation helpers."""

from __future__ import annotations

from functools import lru_cache

# trial division up to sqrt(p) stays near 0.1 s; the cache makes the repeated
# checks of one characteristic (one per stratum or table cell) free
MAX_CHARACTERISTIC = 10**12


@lru_cache(maxsize=64)
def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def validate_characteristic(p: int) -> int:
    """A characteristic is 0 or a prime; anything else is rejected."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"characteristic must be an integer, got {p!r}")
    if p > MAX_CHARACTERISTIC:
        raise ValueError(f"characteristic must be at most {MAX_CHARACTERISTIC}, got {p}")
    if p != 0 and not is_prime(p):
        raise ValueError(f"characteristic must be 0 or prime, got {p}")
    return p


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^e with p prime, or raise ValueError."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"not a prime power: {q!r}")
    p = next(f for f in range(2, q + 1) if q % f == 0)
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"not a prime power: {q}")
    return p, e
