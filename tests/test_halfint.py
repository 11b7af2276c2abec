"""Arithmetic and serialization of the extended half-integer domain."""

from fractions import Fraction

import pytest

from permsing import NEG_INF, ExtHalf
from permsing.halfint import ext_sum

from helpers import FractionHalf

# every k/2 for k in -13..13, and -oo (None)
VALUES = [Fraction(k, 2) for k in range(-13, 14)] + [None]


def test_construction_accepts_halves_only():
    assert ExtHalf(3) == 3
    assert ExtHalf(Fraction(-7, 2)) == Fraction(-7, 2)
    assert ExtHalf.half(-7) == ExtHalf(Fraction(-7, 2))
    with pytest.raises(ValueError):
        ExtHalf(Fraction(1, 3))


def test_neg_inf_absorbs_addition():
    assert NEG_INF + ExtHalf(5) == NEG_INF
    assert ExtHalf(5) + NEG_INF == NEG_INF
    assert NEG_INF + 100 == NEG_INF
    assert (NEG_INF - ExtHalf(1)) == NEG_INF


def test_finite_addition_stays_half_integral():
    vals = [ExtHalf(Fraction(k, 2)) for k in range(-6, 7)]
    for a in vals:
        for b in vals:
            c = a + b
            assert c.is_finite
            assert Fraction(c.as_text()).denominator in (1, 2)
            assert c == Fraction(a.as_text()) + Fraction(b.as_text())


def test_total_order_with_minimal_neg_inf():
    assert NEG_INF < ExtHalf(-1000)
    assert not (NEG_INF < NEG_INF)
    assert NEG_INF <= NEG_INF
    assert ExtHalf(Fraction(-1, 2)) < ExtHalf(0)
    assert ExtHalf(0) >= -1
    ordered = sorted([ExtHalf(1), NEG_INF, ExtHalf(Fraction(-1, 2)), ExtHalf(-3)])
    assert ordered == [NEG_INF, ExtHalf(-3), ExtHalf(Fraction(-1, 2)), ExtHalf(1)]


def test_comparison_with_ints_and_fractions():
    assert ExtHalf(2) == 2
    assert ExtHalf(Fraction(1, 2)) == Fraction(1, 2)
    assert Fraction(1, 2) == ExtHalf(Fraction(1, 2))
    assert ExtHalf(Fraction(1, 2)) != 1
    assert NEG_INF != 0
    # any rational compares exactly, half-integral or not
    assert ExtHalf(0) < Fraction(1, 3) < ExtHalf(Fraction(1, 2))
    assert ExtHalf(0) != Fraction(1, 3)
    assert NEG_INF < Fraction(-10**9, 3)


def test_immutability_and_hash():
    a = ExtHalf(1)
    with pytest.raises(AttributeError):
        a._twice = 2
    assert len({ExtHalf(1), ExtHalf(1), NEG_INF, ExtHalf(Fraction(2, 2))}) == 2


def test_equal_values_hash_equal():
    assert ExtHalf(1) in {1}
    assert {1: "a"}.get(ExtHalf(1)) == "a"
    assert {Fraction(-3, 2): "b"}.get(ExtHalf.half(-3)) == "b"
    big = [sign * (2**61 + d) for sign in (1, -1) for d in (1, -1)]
    big += [2**100 + 3, -(2**100 + 3)]
    for k in list(range(-13, 14)) + big:
        assert hash(ExtHalf.half(k)) == hash(Fraction(k, 2)), k


def test_text_rendering():
    assert ExtHalf(2).as_text() == "2"
    assert ExtHalf(Fraction(-1, 2)).as_text() == "-1/2"
    assert ExtHalf(Fraction(4, 2)).as_text() == "2"
    assert NEG_INF.as_text() == "-inf"


def test_text_round_trip():
    for v in [ExtHalf(0), ExtHalf(-3), ExtHalf(Fraction(7, 2))]:
        assert ExtHalf(Fraction(v.as_text())) == v


def test_json_round_trip():
    for v in [ExtHalf(0), ExtHalf(-1), ExtHalf(Fraction(-5, 2)), NEG_INF]:
        data = v.as_json()
        assert data["finite"] == v.is_finite
        if v.is_finite:
            assert ExtHalf(Fraction(data["value"]["num"], data["value"]["den"])) == v
    assert NEG_INF.as_json() == {"finite": False, "value": None}


def test_negation_and_subtraction():
    assert -ExtHalf(Fraction(1, 2)) == ExtHalf(Fraction(-1, 2))
    assert ExtHalf(1) - ExtHalf(Fraction(1, 2)) == ExtHalf(Fraction(1, 2))
    with pytest.raises(ValueError):
        -NEG_INF
    with pytest.raises(ValueError):
        ExtHalf(0) - NEG_INF


def test_sum_and_max_helpers():
    assert ext_sum([]) == ExtHalf(0)
    assert ext_sum([ExtHalf(1), ExtHalf(Fraction(1, 2))]) == ExtHalf(Fraction(3, 2))
    assert ext_sum([ExtHalf(1), NEG_INF]) == NEG_INF
    assert max([NEG_INF, ExtHalf(-2), ExtHalf(-1)]) == ExtHalf(-1)


def _outcome(op, *args):
    """op's result, or ValueError if it raised one."""
    try:
        return op(*args)
    except ValueError:
        return ValueError


def _same(result, reference) -> bool:
    if reference is ValueError:
        return result is ValueError
    return result.as_text() == reference.as_text() and result.as_json() == reference.as_json()


def test_matches_fraction_reference_on_all_pairs():
    for x in VALUES:
        a, ref_a = ExtHalf(x), FractionHalf(x)
        assert a.is_finite == ref_a.is_finite
        assert _same(a, ref_a), x
        assert _same(_outcome(lambda u: -u, a), _outcome(lambda u: -u, ref_a)), x
        for y in VALUES:
            b, ref_b = ExtHalf(y), FractionHalf(y)
            assert (a == b) == (ref_a == ref_b), (x, y)
            assert (a < b) == (ref_a < ref_b), (x, y)
            assert _same(a + b, ref_a + ref_b), (x, y)
            diff = _outcome(lambda u, v: u - v, a, b)
            assert _same(diff, _outcome(lambda u, v: u - v, ref_a, ref_b)), (x, y)
