"""Group invariants read from generators and membership tests, checked
against element-by-element scans and, where installed, sympy; and the
verdict as a function of them alone."""

import random

import pytest

from permsing import Permutation, PermutationGroup, certify, classify, group_from_name

from helpers import (
    all_subgroups,
    elements,
    scan_all_even,
    scan_branch_components,
    scan_nonfree_bound,
    scan_transpositions,
)

# 7- and 8-point groups: (degree, generators, order)
GROUPS = {
    "S4xS4": (8, "(1 2);(1 2 3 4);(5 6);(5 6 7 8)", 576),
    "S4wrS2": (8, "(1 2);(1 2 3 4);(5 6);(5 6 7 8);(1 5)(2 6)(3 7)(4 8)", 1152),
    "S2wrS4": (8, "(1 2);(1 3)(2 4);(1 3 5 7)(2 4 6 8)", 384),
    "S3xS5": (8, "(1 2);(1 2 3);(4 5);(4 5 6 7 8)", 720),
    "A4xA4": (8, "(1 2 3);(2 3 4);(5 6 7);(6 7 8)", 144),
    "AGL(1,8)": (8, "(1 2)(3 4)(5 6)(7 8);(2 3 5 4 7 8 6)", 56),
    "AGL(1,7)": (7, "(1 2 3 4 5 6 7);(2 4 3 7 5 6)", 42),
    "PSL(3,2)": (7, "(1 2 3 4 5 6 7);(1 2)(3 6)", 168),
}


def relabellings(n: int, count: int) -> list[Permutation]:
    """The identity, the reversal of 1..n and seeded random relabellings."""
    rng = random.Random(n)
    out = [Permutation.identity(n), Permutation(range(n, 0, -1))]
    while len(out) < count:
        images = list(range(1, n + 1))
        rng.shuffle(images)
        out.append(Permutation(images))
    return out


def assert_matches_scans(G: PermutationGroup) -> None:
    transpositions, branches, even = scan_transpositions(G), scan_branch_components(G), scan_all_even(G)
    assert G.transpositions() == transpositions
    assert G.transposition_classes() == branches
    assert G.all_even() == even
    inv = G.invariants()
    assert inv == (G.n, len(elements(G)), branches, even, scan_nonfree_bound(G))
    report = classify(G, 3)
    assert report == certify(3, inv)
    assert report.group_order == G.order
    assert report.has_transposition == bool(transpositions)
    assert report.gorenstein.branch_component_count == branches
    assert report.gorenstein.kx_index_divides == (1 if even else 2)
    assert report.nonfree_locus_dim_bound == scan_nonfree_bound(G)


def test_invariants_match_scans_on_all_subgroups_up_to_s5():
    for n in range(1, 6):
        for G in all_subgroups(n):
            for s in relabellings(n, 4):
                H = G.conjugate_by(s)
                assert H.order == G.order
                assert_matches_scans(H)


@pytest.mark.parametrize("name", GROUPS)
def test_invariants_match_scans_on_benchmark_groups(name):
    n, text, order = GROUPS[name]
    G = PermutationGroup.from_text(text, n)
    assert G.order == order
    for s in relabellings(n, 3):
        assert_matches_scans(G.conjugate_by(s))


def test_invariants_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")

    def from_generators(G: PermutationGroup):
        gens = [combinatorics.Permutation([g(i) - 1 for i in range(1, G.n + 1)]) for g in G.generators]
        return combinatorics.PermutationGroup(gens)

    cases = [(PermutationGroup.from_text(text, n), from_generators) for n, text, _ in GROUPS.values()]
    cases += [
        (group_from_name("S8", 8), lambda G: combinatorics.SymmetricGroup(8)),
        (group_from_name("A8", 8), lambda G: combinatorics.AlternatingGroup(8)),
    ]
    for G, reference in cases:
        ref = reference(G)
        assert G.order == ref.order()
        swaps = [
            combinatorics.Permutation(i, j, size=G.n) for i in range(G.n) for j in range(i + 1, G.n)
        ]
        swaps = [t for t in swaps if ref.contains(t)]
        assert {t.cycles()[0] for t in G.transpositions()} == {
            (t.cyclic_form[0][0] + 1, t.cyclic_form[0][1] + 1) for t in swaps
        }
        assert G.transposition_classes() == len({frozenset(ref.conjugacy_class(t)) for t in swaps})


def test_psl_2_59_on_the_projective_line():
    # z -> z + 1 and z -> -1/z on P^1(F_59): the points of F_59 are 1..59 and
    # infinity is 60.  As 59 = 3 (mod 4), every involution is fixed-point
    # free with 30 two-cycles; every other non-identity element has at most
    # 20 cycles.
    q = 59
    shift = Permutation([(z + 1) % q + 1 for z in range(q)] + [q + 1])
    invert = Permutation([q + 1] + [-pow(z, -1, q) % q + 1 for z in range(1, q)] + [1])
    G = PermutationGroup.from_generators([shift, invert], q + 1)
    assert G.invariants() == (60, 102660, 0, True, 30)
