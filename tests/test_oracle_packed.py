"""The packed oracles against their per-vector and schoolbook references.

The library counts Artin-Schreier classes from packed unit images walked in
Gray-code order, and multiplies field elements through log tables; the
references in helpers.py reduce one list vector per principal part and
multiply coordinate tuples.
"""

import itertools

import pytest

from permsing import GF, ASQuotient, tame_totally_ramified_count
from permsing.oracle import MAX_POLE, MAX_Q, _multiplicative_order
from permsing.primes import factor_prime_power

from helpers import (
    as_tuple,
    reference_count_exact_pole,
    reference_count_reduced_order,
    reference_tame_count,
    schoolbook_mul,
    schoolbook_pow,
)

AS_FIELDS = [(p, p**e) for p in (2, 3) for e in range(1, 7) if p**e <= MAX_Q]
SMALL_AS = [
    (p, q, jump)
    for p, q in AS_FIELDS
    for jump in range(1, MAX_POLE + 1)
    if q**jump <= 4096
]


@pytest.mark.parametrize("p,q,jump", SMALL_AS)
def test_packed_counts_match_per_vector_reference(p, q, jump):
    space = ASQuotient(p, q, jump)
    if jump % p:
        assert space.count_classes_exact_pole(jump) == reference_count_exact_pole(space, jump)
    assert space.count_classes_reduced_order(jump) == reference_count_reduced_order(space, jump)


@pytest.mark.parametrize("p,q,top", [(2, 4, 6), (3, 9, 3)])
def test_enumeration_visits_every_part_once(p, q, top):
    # with the identity as the reduction, the walk yields the packed parts
    # themselves: each of the q^top parts exactly once, and the first stream
    # holds exactly the parts without a t^(-top) term; at (2, 4, 6) the
    # lower coordinates span more than one block of replayed Gray steps
    space = ASQuotient(p, q, top)
    width = 1 if p == 2 else 3
    e = space.field.e

    def pack(vec):
        return sum(x << width * i for i, x in enumerate(vec))

    streams = [list(s) for s in space._parts(lambda vec: vec, top)]
    assert len(streams) == q
    assert sum(map(len, streams)) == q**top
    every = {pack(v) for v in itertools.product(range(p), repeat=top * e)}
    assert set(itertools.chain(*streams)) == every
    lower = {pack(v + (0,) * e) for v in itertools.product(range(p), repeat=(top - 1) * e)}
    assert set(streams[0]) == lower


TABLE_FIELDS = [(2, e) for e in range(1, 7)] + [(3, 1), (3, 2), (3, 3), (5, 2), (7, 2)]


@pytest.mark.parametrize("p,e", TABLE_FIELDS)
def test_table_arithmetic_matches_schoolbook(p, e):
    F = GF(p, e)
    tup = {a: as_tuple(F, a) for a in F.elements()}
    for a, b in itertools.product(F.elements(), repeat=2):
        assert tup[F.mul(a, b)] == schoolbook_mul(F, tup[a], tup[b])
    for a in F.elements():
        assert tup[F.frobenius(a)] == schoolbook_pow(F, tup[a], p)
        for k in range(F.q + 1):
            assert tup[F.pow(a, k)] == schoolbook_pow(F, tup[a], k)
        if a:
            assert schoolbook_mul(F, tup[a], tup[F.inv(a)]) == tup[F.one]


def _tame_cases(max_field: int):
    for q in range(2, MAX_Q + 1):
        try:
            p, _ = factor_prime_power(q)
        except ValueError:
            continue
        for n in range(1, MAX_POLE + 1):
            if n % p and q ** _multiplicative_order(q, n * (q - 1)) <= max_field:
                yield q, n


@pytest.mark.parametrize("q,n", list(_tame_cases(2401)))
def test_tame_count_matches_schoolbook_reference(q, n):
    assert tame_totally_ramified_count(q, n) == reference_tame_count(q, n)
