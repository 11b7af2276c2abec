"""Finite-field machinery and the brute-force counting oracles."""

import itertools
import random

import pytest

from permsing import (
    ASQuotient,
    NEG_INF,
    ExtHalf,
    GF,
    as_class_count,
    dim_connected,
    dim_cyclic_cubic_galois,
    tame_totally_ramified_count,
    verify_dimension_growth,
)

from helpers import PrincipalPart, basis, enumerate_vectors, to_part, to_vector


# ---------------------------------------------------------------------------
# fields

@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)])
def test_field_axioms_sampled(p, e):
    F = GF(p, e)
    elems = list(F.elements())
    assert len(elems) == p**e
    rng = random.Random(11)
    sample = [rng.choice(elems) for _ in range(12)]
    for a in sample:
        assert F.add(a, F.zero) == a
        assert F.mul(a, F.one) == a
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
        for b in sample:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in sample[:4]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_multiplicative_group_order():
    for p, e in [(2, 2), (3, 2), (2, 3)]:
        F = GF(p, e)
        for a in F.elements():
            if a != F.zero:
                assert F.pow(a, F.q - 1) == F.one


def test_frobenius_is_additive_and_fixes_prime_field():
    for p, e in [(2, 2), (3, 2), (2, 3)]:
        F = GF(p, e)
        for a in F.elements():
            for c in range(p):
                assert F.frobenius(F.smul(c, a)) == F.smul(c, F.frobenius(a))
        for a, b in itertools.product(F.elements(), repeat=2):
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
        assert F.frobenius(F.scalar(1)) == F.scalar(1)


# ---------------------------------------------------------------------------
# Artin-Schreier class counting

def test_as_class_count_examples():
    assert as_class_count(2, 2, 1) == 1
    assert as_class_count(2, 4, 3) == 12
    assert as_class_count(3, 3, 1) == 2


def test_as_class_count_closed_form_char_two():
    for q in (2, 4):
        for m in (1, 3, 5):
            assert as_class_count(2, q, m) == (q - 1) * q ** ((m - 1) // 2)


def test_as_class_count_closed_form_char_three_small():
    # the full q = 9 grid is an acceptance criterion
    for j in (1, 2, 4, 5):
        assert as_class_count(3, 3, j) == 2 * 3 ** (j - j // 3 - 1)
    for j in (1, 2):
        assert as_class_count(3, 9, j) == 8 * 9 ** (j - j // 3 - 1)


def test_as_class_count_validation():
    with pytest.raises(ValueError):
        as_class_count(5, 5, 1)  # p not in {2, 3}
    with pytest.raises(ValueError):
        as_class_count(2, 4, 2)  # jump divisible by p
    with pytest.raises(ValueError):
        as_class_count(2, 8, 0)
    with pytest.raises(ValueError):
        as_class_count(2, 128, 1)  # q beyond desk scale
    with pytest.raises(ValueError):
        as_class_count(2, 4, 11)  # jump beyond desk scale
    with pytest.raises(ValueError):
        as_class_count(2, 9, 1)  # q not a power of p
    with pytest.raises(ValueError):
        as_class_count(2, 64, 9)  # q^jump enumeration beyond desk scale


def _random_part(space: ASQuotient, rng, max_order):
    elems = list(space.field.elements())
    coeffs = {i: rng.choice(elems) for i in range(1, max_order + 1)}
    return PrincipalPart(space.field, coeffs)


@pytest.mark.parametrize("p,q,max_pole", [(2, 4, 5), (3, 3, 5), (3, 9, 4)])
def test_counts_invariant_under_operator_shifts(p, q, max_pole):
    space = ASQuotient(p, q, max_pole)
    rng = random.Random(5)
    for _ in range(40):
        part = _random_part(space, rng, max_pole)
        shift = _random_part(space, rng, -(-max_pole // p)).artin_schreier_image()
        lhs = space.canonical(to_vector(space, part))
        rhs = space.canonical(to_vector(space, part + shift))
        assert lhs == rhs
        red_l = space.reduced_representative(to_vector(space, part))
        red_r = space.reduced_representative(to_vector(space, part + shift))
        assert red_l == red_r


@pytest.mark.parametrize("p,q,max_pole", [(2, 2, 4), (2, 4, 3), (3, 3, 4)])
def test_linear_algebra_and_stripping_routes_agree(p, q, max_pole):
    # both reductions must induce the same partition into classes
    space = ASQuotient(p, q, max_pole)
    by_canonical = {}
    by_reduced = {}
    for combo, vec in enumerate_vectors(space, max_pole):
        by_canonical.setdefault(space.canonical(vec), set()).add(combo)
        red = to_part(space, space.reduced_representative(vec))
        by_reduced.setdefault(tuple(sorted(red.coeffs.items())), set()).add(combo)
    assert set(map(frozenset, by_canonical.values())) == set(
        map(frozenset, by_reduced.values())
    )


@pytest.mark.parametrize("p,q,max_pole", [(2, 4, 4), (3, 3, 5)])
def test_reduction_surjects_onto_coprime_support(p, q, max_pole):
    # every class has a coprime-support representative, and all of those occur
    space = ASQuotient(p, q, max_pole)
    reached = set()
    for _, vec in enumerate_vectors(space, max_pole):
        red = to_part(space, space.reduced_representative(vec))
        assert all(i % p != 0 for i in red.coeffs)
        assert red.pole_order() <= max_pole
        reached.add(tuple(sorted(red.coeffs.items())))
    coprime_orders = [i for i in range(1, max_pole + 1) if i % p != 0]
    elems = list(space.field.elements())
    expected = set()
    for combo in itertools.product(elems, repeat=len(coprime_orders)):
        part = PrincipalPart(
            space.field, dict(zip(coprime_orders, combo))
        )
        expected.add(tuple(sorted(part.coeffs.items())))
    assert reached == expected


def test_p_divisible_pole_orders_reduce_lower():
    space = ASQuotient(2, 4, 4)
    F = space.field
    for c in F.elements():
        if c == F.zero:
            continue
        part = PrincipalPart(F, {4: c})
        red = to_part(space, space.reduced_representative(to_vector(space, part)))
        assert red.pole_order() == 1  # 4 -> 2 -> 1 under repeated stripping


def test_basis_lists_coprime_reduced_representatives():
    space = ASQuotient(3, 9, 5)
    orders = [part.pole_order() for part in basis(space)]
    assert orders == [1, 1, 2, 2, 4, 4, 5, 5]  # two prime-field coordinates each


def test_verify_dimension_growth_char_two():
    check = verify_dimension_growth(2, 2, 4, [2, 4])
    assert check.predicted == ExtHalf(2)
    assert check.counts == (2, 12)
    assert check.measured_exponents == (ExtHalf(2), ExtHalf(2))
    assert check.ok


def test_verify_dimension_growth_char_three():
    check = verify_dimension_growth(3, 3, 4, [3])
    assert check.predicted == ExtHalf(1)
    assert check.counts == (2,)
    assert check.ok


def test_verify_dimension_growth_empty_locus():
    check = verify_dimension_growth(2, 2, 3, [2])
    assert check.predicted == NEG_INF
    assert check.counts == (0,)
    assert check.ok
    # jump divisible by 3: the Galois locus for d = 8 is empty
    check = verify_dimension_growth(3, 3, 8, [3])
    assert check.predicted == NEG_INF
    assert check.counts == (0,)
    assert check.ok


def test_verify_dimension_growth_validation():
    with pytest.raises(ValueError):
        verify_dimension_growth(2, 3, 4, [2])
    with pytest.raises(ValueError):
        verify_dimension_growth(3, 3, 5, [3])
    with pytest.raises(ValueError):
        verify_dimension_growth(2, 2, 0, [2])


def test_growth_matches_dimension_formula_small():
    for d in (2, 4, 6):
        check = verify_dimension_growth(2, 2, d, [2, 4])
        assert check.ok and check.predicted == dim_connected(2, d, 2)
    check = verify_dimension_growth(3, 3, 6, [3])
    assert check.ok and check.predicted == dim_cyclic_cubic_galois(6)


# ---------------------------------------------------------------------------
# tame counts

def test_tame_counts_examples():
    assert tame_totally_ramified_count(5, 2) == 2
    assert tame_totally_ramified_count(4, 3) == 3
    assert tame_totally_ramified_count(3, 2) == 2


def test_tame_count_independent_of_q():
    assert tame_totally_ramified_count(3, 2) == tame_totally_ramified_count(5, 2) == 2
    assert tame_totally_ramified_count(4, 3) == tame_totally_ramified_count(7, 3) == 3


def test_tame_count_extension_base_fields_and_larger_degrees():
    assert tame_totally_ramified_count(8, 3) == 3
    assert tame_totally_ramified_count(9, 2) == 2
    assert tame_totally_ramified_count(5, 4) == 4
    assert tame_totally_ramified_count(9, 5) == 5


def test_tame_count_degree_one():
    assert tame_totally_ramified_count(4, 1) == 1


def test_tame_count_validation():
    with pytest.raises(ValueError):
        tame_totally_ramified_count(4, 2)  # p divides n
    with pytest.raises(ValueError):
        tame_totally_ramified_count(9, 3)
    with pytest.raises(ValueError):
        tame_totally_ramified_count(6, 5)  # q not a prime power
    with pytest.raises(ValueError):
        tame_totally_ramified_count(128, 3)  # beyond desk scale
