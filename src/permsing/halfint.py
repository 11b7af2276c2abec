"""Exact half-integers extended with negative infinity.

All dimension bounds in this package live in (1/2)Z ∪ {-oo}.  Verdicts hinge
on exact comparisons against -1 and 0, so a value is stored as twice itself,
an int, with None for -oo: no floating point and no rationals anywhere.
"""

from __future__ import annotations

import sys
from functools import total_ordering

_MODULUS = sys.hash_info.modulus


@total_ordering
class ExtHalf:
    """A rational with denominator dividing 2, or the symbol -oo.

    Addition absorbs -oo; the order is total with -oo strictly minimal.
    Instances are immutable and hashable, and hash as the equal int or
    Fraction does.  They combine and compare with ints and with any rational
    that has numerator and denominator.
    """

    __slots__ = ("_twice",)

    def __init__(self, value):
        """ExtHalf(None) is -oo; otherwise value is an int or a rational."""
        if value is not None:
            twice, rest = divmod(2 * value.numerator, value.denominator)
            if rest:
                raise ValueError(f"not a half-integer: {value}")
            value = twice
        object.__setattr__(self, "_twice", value)

    def __setattr__(self, name, value):
        raise AttributeError("ExtHalf is immutable")

    @classmethod
    def half(cls, numerator: int) -> "ExtHalf":
        """The value numerator/2."""
        out = cls.__new__(cls)
        object.__setattr__(out, "_twice", numerator)
        return out

    @property
    def is_finite(self) -> bool:
        return self._twice is not None

    def _plus(self, other, sign: int):
        if not isinstance(other, ExtHalf):
            if not hasattr(other, "denominator"):
                return NotImplemented
            other = ExtHalf(other)
        if other._twice is None:
            if sign < 0:
                raise ValueError("cannot subtract -oo")
            return NEG_INF
        if self._twice is None:
            return NEG_INF
        return ExtHalf.half(self._twice + sign * other._twice)

    def __add__(self, other) -> "ExtHalf":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "ExtHalf":
        return self._plus(other, -1)

    def __neg__(self) -> "ExtHalf":
        if self._twice is None:
            raise ValueError("cannot negate -oo")
        return ExtHalf.half(-self._twice)

    def _cmp(self, other):
        """The sign of self - other: -1, 0 or 1, with -oo below every value."""
        if isinstance(other, ExtHalf):
            twice, den = other._twice, 1
        elif hasattr(other, "denominator"):
            # any rational compares exactly, half-integral or not
            twice, den = 2 * other.numerator, other.denominator
        else:
            return NotImplemented
        mine = self._twice
        if mine is None or twice is None:
            return (mine is not None) - (twice is not None)
        mine *= den
        return (mine > twice) - (mine < twice)

    def __eq__(self, other) -> bool:
        c = self._cmp(other)
        return c if c is NotImplemented else c == 0

    def __lt__(self, other) -> bool:
        c = self._cmp(other)
        return c if c is NotImplemented else c < 0

    def __hash__(self) -> int:
        twice = self._twice
        if twice is None:
            return hash(None)
        if twice % 2 == 0:
            return hash(twice // 2)
        # Python's numeric hash of k/2: |k| times the inverse of 2 modulo the
        # hash modulus, with the sign of k, and -1 reserved
        h = abs(twice) * ((_MODULUS + 1) // 2) % _MODULUS
        h = h if twice > 0 else -h
        return -2 if h == -1 else h

    def __repr__(self) -> str:
        return f"ExtHalf({self.as_text()})"

    def as_text(self) -> str:
        """Render as "-inf", an integer, or a reduced fraction "a/2"."""
        if self._twice is None:
            return "-inf"
        if self._twice % 2 == 0:
            return str(self._twice // 2)
        return f"{self._twice}/2"

    def as_json(self) -> dict:
        """JSON form: {"finite": bool, "value": {"num", "den"} | null}."""
        if self._twice is None:
            return {"finite": False, "value": None}
        if self._twice % 2 == 0:
            value = {"num": self._twice // 2, "den": 1}
        else:
            value = {"num": self._twice, "den": 2}
        return {"finite": True, "value": value}


NEG_INF = ExtHalf(None)
ZERO = ExtHalf(0)


def ext_sum(values) -> ExtHalf:
    """Sum of ExtHalf values; -oo absorbs.  Empty sum is 0."""
    total = ZERO
    for v in values:
        total = total + v
    return total
