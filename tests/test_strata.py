"""Dimension formula, stratum enumeration, and closed-form suprema."""

from fractions import Fraction

import pytest

from permsing import (
    NEG_INF,
    ExtHalf,
    StratumShape,
    dim_connected,
    dim_cyclic_cubic_galois,
    enumerate_strata,
    global_sup,
    partitions,
    refined_stratum_sup,
    stratum_dim_sum,
    sup_component,
)
from permsing.halfint import ext_sum

from helpers import brute_force_strata, excess_decays, five_case_dim, scan_global_sup

CHARACTERISTICS = (0, 2, 3, 5, 7)


def half(k) -> ExtHalf:
    return ExtHalf(Fraction(k))


def excess(n: int, d: int, p: int) -> ExtHalf:
    return dim_connected(n, d, p) - Fraction(d, 2)


# ---------------------------------------------------------------------------
# dim_connected

def test_dim_connected_examples():
    assert dim_connected(2, 1, 5) == half(0)
    assert dim_connected(2, 4, 2) == half(2)
    assert dim_connected(1, 0, 2) == half(0)
    assert dim_connected(6, 11, 2) == NEG_INF  # d - n + 1 = 6 is divisible by p


def test_dim_connected_errors():
    with pytest.raises(ValueError):
        dim_connected(2, -1, 5)
    with pytest.raises(ValueError):
        dim_connected(2, 3, 6)
    with pytest.raises(ValueError):
        dim_connected(0, 0, 2)


def test_dim_connected_matches_literal_five_cases():
    for p in CHARACTERISTICS:
        for n in range(1, 9):
            for d in range(0, 41):
                expect = five_case_dim(n, d, p)
                got = dim_connected(n, d, p)
                if expect is None:
                    assert got == NEG_INF, (n, d, p)
                else:
                    assert got == half(expect), (n, d, p)


def test_excess_never_positive():
    for p in CHARACTERISTICS:
        for n in range(1, 9):
            for d in range(0, 41):
                value = excess(n, d, p)
                if value.is_finite:
                    assert value <= half(0), (n, d, p)


def test_excess_at_most_minus_one_for_large_degree():
    for p in CHARACTERISTICS:
        for n in range(4, 9):
            for d in range(1, 41):
                value = excess(n, d, p)
                if value.is_finite:
                    assert value <= half(-1), (n, d, p)


def test_wild_excess_weakly_decreasing():
    # for odd p dividing n, d -> dim - d/2 is weakly decreasing on its support
    for p in (3, 5, 7):
        for n in range(p, 9, p):
            values = [
                excess(n, d, p) for d in range(0, 201) if excess(n, d, p).is_finite
            ]
            assert values, (n, p)
            assert all(a >= b for a, b in zip(values, values[1:])), (n, p)
            assert max(values) == values[0] == ExtHalf(1 - Fraction(n, 2))


# ---------------------------------------------------------------------------
# cyclic cubic Galois locus

def test_dim_cyclic_cubic_examples():
    assert dim_cyclic_cubic_galois(4) == half(1)
    assert dim_cyclic_cubic_galois(4) - Fraction(4, 2) == half(-1)
    assert dim_cyclic_cubic_galois(8) == NEG_INF  # jump 3 is divisible by 3
    assert dim_cyclic_cubic_galois(5) == NEG_INF  # odd d
    assert dim_cyclic_cubic_galois(2) == NEG_INF  # jump would be 0
    with pytest.raises(ValueError):
        dim_cyclic_cubic_galois(0)


def test_cyclic_cubic_excess_at_most_minus_one():
    best = NEG_INF
    for d in range(1, 201):
        value = dim_cyclic_cubic_galois(d) - Fraction(d, 2)
        assert value <= half(-1)
        best = max(best, value)
    assert best == half(-1)


# ---------------------------------------------------------------------------
# stratum enumeration

def test_enumerate_strata_examples():
    assert {(s.nu, s.delta) for s in enumerate_strata(3, 2)} == {
        ((3,), (2,)),
        ((2, 1), (2, 0)),
    }
    assert {(s.nu, s.delta) for s in enumerate_strata(2, 0)} == {((1, 1), (0, 0))}
    assert {(s.nu, s.delta) for s in enumerate_strata(2, 1)} == {((2,), (1,))}


def test_enumerate_strata_matches_brute_force():
    for n in range(1, 8):
        for d in range(0, 21):
            got = {(s.nu, s.delta) for s in enumerate_strata(n, d)}
            assert got == brute_force_strata(n, d), (n, d)


def test_stratum_shape_validation():
    with pytest.raises(ValueError):
        StratumShape((1, 2), (0, 1))  # not weakly decreasing
    with pytest.raises(ValueError):
        StratumShape((2, 1), (0, 0))  # part 2 needs positive delta
    with pytest.raises(ValueError):
        StratumShape((1,), (1,))  # part 1 needs delta 0
    with pytest.raises(ValueError):
        StratumShape((2, 2), (1, 2))  # equal parts need decreasing delta


def test_stratum_dim_sum_examples():
    assert stratum_dim_sum(StratumShape((2, 2), (1, 1)), 0) == half(0)
    assert stratum_dim_sum(StratumShape((2, 2), (1, 1)), 0) - Fraction(2, 2) == half(-1)
    assert stratum_dim_sum(StratumShape((2, 1), (2, 0)), 2) == half(1)
    assert stratum_dim_sum(StratumShape((4,), (2,)), 2) == NEG_INF


# ---------------------------------------------------------------------------
# closed-form suprema against scans

def scan_component(part: int, p: int, dmax: int = 200) -> ExtHalf:
    return max(excess(part, d, p) for d in range(0, dmax + 1))


def test_sup_component_examples():
    assert sup_component(2, 0) == Fraction(-1, 2)
    assert sup_component(4, 2) == half(-1)
    assert sup_component(1, 5) == half(0)
    assert sup_component(3, 3) == Fraction(-1, 2)


def test_sup_component_matches_scan():
    for p in CHARACTERISTICS:
        for part in range(1, 9):
            assert sup_component(part, p) == scan_component(part, p), (part, p)


def test_sup_component_constant_for_even_wild_parts():
    for part in (2, 4, 6, 8):
        support = [d for d in range(0, 201) if excess(part, d, 2).is_finite]
        assert support == list(range(part, 201, 2))
        assert all(excess(part, d, 2) == sup_component(part, 2) for d in support)
        assert sup_component(part, 2) == 1 - Fraction(part, 2)


def test_eventually_decreasing_flag():
    # the scan's decay flag, which global_sup's limit flag is checked against
    for p in CHARACTERISTICS:
        for part in range(1, 9):
            expected = not (p == 2 and part % 2 == 0 and part >= 2)
            assert excess_decays(part, p) == expected, (part, p)


# ---------------------------------------------------------------------------
# refined per-partition bounds

def test_refined_stratum_sup_examples():
    assert refined_stratum_sup((2, 1, 1), 5, True) == NEG_INF
    assert refined_stratum_sup((2, 2), 2, True) == half(-1)
    assert refined_stratum_sup((3, 1), 3, True) == half(-1)
    assert refined_stratum_sup((4, 2), 0, True) == half(-2)


def test_refined_stratum_sup_generic_matches_scan():
    # for the generic branch the bound is the sum of componentwise scans
    for p in CHARACTERISTICS:
        for nu in [(4, 2), (3, 2), (5,), (3, 3), (4, 1, 1), (6, 2)]:
            expect = ext_sum(scan_component(v, p) for v in nu)
            assert refined_stratum_sup(nu, p, False) == expect


def test_refined_never_exceeds_generic():
    for p in CHARACTERISTICS:
        for n in range(2, 11):
            for nu in partitions(n):
                if all(v == 1 for v in nu):
                    continue
                generic = refined_stratum_sup(nu, p, False)
                refined = refined_stratum_sup(nu, p, True)
                assert refined <= generic, (nu, p)


def test_refined_transposition_free_at_most_minus_one():
    for p in CHARACTERISTICS:
        for n in range(2, 11):
            for nu in partitions(n):
                if all(v == 1 for v in nu):
                    continue
                assert refined_stratum_sup(nu, p, True) <= half(-1), (nu, p)


def test_refined_rejects_trivial_partition():
    with pytest.raises(ValueError):
        refined_stratum_sup((1, 1, 1), 2, True)


# ---------------------------------------------------------------------------
# global suprema

def test_global_sup_examples():
    r = global_sup(2, 2, False)
    assert r.sup == half(0) and not r.limit_minus_infinity
    r = global_sup(2, 5, False)
    assert r.sup == ExtHalf(Fraction(-1, 2)) and r.limit_minus_infinity
    r = global_sup(4, 2, True)
    assert r.sup == half(-1) and not r.limit_minus_infinity


def test_global_sup_degree_one():
    r = global_sup(1, 3, True)
    assert r.sup == NEG_INF and r.worst_partition is None
    assert r.limit_minus_infinity


def test_global_sup_limit_flag():
    for p in CHARACTERISTICS:
        for n in range(1, 8):
            for tf in (False, True):
                r = global_sup(n, p, tf)
                assert r.limit_minus_infinity == (p != 2 or n < 2)


def test_global_sup_matches_partition_scan():
    for p in CHARACTERISTICS:
        for n in range(1, 26):
            for tf in (False, True):
                assert global_sup(n, p, tf) == scan_global_sup(n, p, tf), (n, p, tf)


def test_partition_counts():
    # partition numbers p(1) .. p(10)
    expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected, start=1):
        assert len(list(partitions(n))) == count
        for nu in partitions(n):
            assert sum(nu) == n
            assert all(a >= b for a, b in zip(nu, nu[1:]))
