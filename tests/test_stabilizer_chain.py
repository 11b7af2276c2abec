"""The stabilizer chain behind PermutationGroup, checked against the BFS
closure in helpers and, beyond its reach, against sympy."""

import math
import random

import pytest

from permsing import Permutation, PermutationGroup, classify, group_from_name
from permsing import perm
from permsing.perm import MAX_GROUP_ORDER

from helpers import all_subgroups, elements, scan_nonfree_bound
from test_group_invariants import GROUPS, relabellings


def random_permutation(rng: random.Random, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


def assert_matches_closure(G: PermutationGroup, probes) -> None:
    group = elements(G)
    assert G.order == len(group)
    assert all(g in G for g in group)
    for g in probes:
        assert (g in G) == (g in group)


def test_chain_matches_closure_on_all_subgroups_up_to_s5():
    for n in range(1, 6):
        everything = elements(PermutationGroup.symmetric(n))
        for G in all_subgroups(n):
            for s in relabellings(n, 4):
                assert_matches_closure(G.conjugate_by(s), everything)


@pytest.mark.parametrize("name", GROUPS)
def test_chain_matches_closure_on_benchmark_groups(name):
    n, text, order = GROUPS[name]
    rng = random.Random(name)
    for s in relabellings(n, 3):
        G = PermutationGroup.from_text(text, n).conjugate_by(s)
        assert G.order == order
        assert_matches_closure(G, [random_permutation(rng, n) for _ in range(300)])


def test_chain_matches_closure_on_s8_and_a8():
    rng = random.Random(8)
    probes = [random_permutation(rng, 8) for _ in range(300)]
    for name in ("S8", "A8"):
        assert_matches_closure(group_from_name(name, 8), probes)
    A8 = group_from_name("A8", 8)
    assert all((g in A8) == g.is_even() for g in probes)


def test_membership_needs_the_same_degree():
    G = PermutationGroup.symmetric(3, 4)
    assert Permutation.identity(4) in G
    assert Permutation.identity(3) not in G
    assert "(1 2)" not in G


# ---------------------------------------------------------------------------
# beyond the closure: random two-generator groups at n = 9..12 against sympy


def block_preserving(rng: random.Random, n: int, size: int) -> Permutation:
    """A random element of S_size wr S_(n/size) on consecutive blocks."""
    blocks = [list(range(start, start + size)) for start in range(1, n + 1, size)]
    order = list(range(len(blocks)))
    rng.shuffle(order)
    images = [0] * n
    for src, dst in zip(blocks, order):
        target = blocks[dst][:]
        rng.shuffle(target)
        for a, b in zip(src, target):
            images[a - 1] = b
    return Permutation(images)


def split_preserving(rng: random.Random, n: int, first: int) -> Permutation:
    """A random element of S_first x S_(n - first)."""
    left, right = list(range(1, first + 1)), list(range(first + 1, n + 1))
    rng.shuffle(left)
    rng.shuffle(right)
    return Permutation(left + right)


def random_pairs(rng: random.Random, n: int):
    """Six pairs inside one block system or split (orders at most 86,400)
    and two unconstrained pairs (mostly A_n or S_n, above the cap)."""
    sizes = {9: (3,), 10: (2, 5), 11: (5,), 12: (2, 3, 4)}[n]
    pairs = []
    for _ in range(6):
        size = rng.choice(sizes)
        draw = split_preserving if n == 11 else block_preserving
        pairs.append([draw(rng, n, size), draw(rng, n, size)])
    pairs += [[random_permutation(rng, n), random_permutation(rng, n)] for _ in range(2)]
    return pairs


@pytest.mark.parametrize("n", range(9, 13))
def test_chain_matches_sympy_on_random_pairs(n):
    combinatorics = pytest.importorskip("sympy.combinatorics")

    def sympy_perm(g: Permutation):
        return combinatorics.Permutation([g(i) - 1 for i in range(1, n + 1)])

    rng = random.Random(n)
    accepted = rejected = 0
    for gens in random_pairs(rng, n):
        ref = combinatorics.PermutationGroup([sympy_perm(g) for g in gens])
        if ref.order() > MAX_GROUP_ORDER:
            with pytest.raises(ValueError, match=f"group order exceeds {MAX_GROUP_ORDER}"):
                PermutationGroup.from_generators(gens, n)
            rejected += 1
            continue
        G = PermutationGroup.from_generators(gens, n)
        assert G.order == ref.order()
        for _ in range(30):
            word = Permutation.identity(n)
            for _ in range(rng.randint(1, 12)):
                word = word * rng.choice(gens)
            assert word in G
        for _ in range(60):
            g = random_permutation(rng, n)
            assert (g in G) == ref.contains(sympy_perm(g))
        accepted += 1
    assert accepted >= 4 and rejected >= 1


def test_order_cap_rejects_exactly_the_groups_above_it():
    assert PermutationGroup.alternating(9).order == 181_440 <= MAX_GROUP_ORDER
    for text, n in [
        ("(1 2);(1 2 3 4 5 6 7 8 9)", 9),
        ("(1 2 3);(1 2 3 4 5 6 7 8 9 10 11)", 11),
        ("(1 2);(" + " ".join(map(str, range(1, 65))) + ")", 64),
    ]:
        with pytest.raises(ValueError, match=f"group order exceeds {MAX_GROUP_ORDER}"):
            PermutationGroup.from_text(text, n)
    # C5^5 x C2^6 has order exactly 200,000
    gens = [f"({5 * i + 1} {5 * i + 2} {5 * i + 3} {5 * i + 4} {5 * i + 5})" for i in range(5)]
    gens += [f"({2 * i + 26} {2 * i + 27})" for i in range(6)]
    assert PermutationGroup.from_text(";".join(gens), 37).order == MAX_GROUP_ORDER
    # S8 x C5 has order 201,600
    with pytest.raises(ValueError, match="exceeds"):
        PermutationGroup.from_text("(1 2);(1 2 3 4 5 6 7 8);(9 10 11 12 13)", 13)
    assert PermutationGroup.from_text("(1 2);(1 2 3 4 5 6 7 8);(9 10 11 12)", 12).order == (
        math.factorial(8) * 4
    )


# ---------------------------------------------------------------------------
# the non-free-locus bound: a fixed-point reduction over point stabilizers,
# and the element walk it gives way to past its rebuild budget

NONFREE_CASES = {name: (n, lambda n=n, text=text: PermutationGroup.from_text(text, n))
                 for name, (n, text, _) in GROUPS.items()}
NONFREE_CASES.update({
    "S8": (8, lambda: group_from_name("S8", 8)),
    "A8": (8, lambda: group_from_name("A8", 8)),
    "A7": (7, lambda: group_from_name("A7", 7)),
    "cyclic:12@21": (21, lambda: group_from_name("cyclic:12", 21)),
    "cyclic:3@14": (14, lambda: group_from_name("cyclic:3", 14)),
    "klein4@21": (21, lambda: group_from_name("klein4", 21)),
    "tt@21": (21, lambda: PermutationGroup.from_text("(1 2)(3 4)", 21)),
    "ccc@23": (23, lambda: PermutationGroup.from_text("(1 2 3)(4 5 6)", 23)),
    "t@24": (24, lambda: PermutationGroup.from_text("(1 2)", 24)),
    "trivial@5": (5, lambda: group_from_name("trivial", 5)),
    # the 3-cycles lie in the stabilizer of a point off the first base orbit
    "C3xC5@8": (8, lambda: PermutationGroup.from_text("(1 2 3);(4 5 6 7 8)", 8)),
})


def not_taken(*args):
    raise AssertionError("this path should not run")


def assert_nonfree_bound(G: PermutationGroup, monkeypatch) -> None:
    """The walk, and the reduction without it, give the element scan's bound."""
    expected = scan_nonfree_bound(G)
    if G.order > 1:
        assert G._max_cycle_count_by_walk(G.n - 1) == expected
    monkeypatch.setattr(PermutationGroup, "_max_cycle_count_by_walk", not_taken)
    assert G.invariants().max_cycle_count == expected
    assert classify(G, 3).nonfree_locus_dim_bound == expected


@pytest.mark.parametrize("name", NONFREE_CASES)
def test_both_nonfree_paths_match_the_element_scan(name, monkeypatch):
    assert_nonfree_bound(NONFREE_CASES[name][1](), monkeypatch)


# groups whose order is prime to 6: the reduction stops at the ceiling
# n - (r - 1) for the least prime r dividing |G|
ODD_ORDER_CASES = {
    "C3xC5@8": (8, lambda: PermutationGroup.from_text("(1 2 3);(4 5 6 7 8)", 8)),
    # x -> x + 1 and x -> 2x on Z/7, points shifted to 1..7
    "AGL(1,7)_21": (7, lambda: PermutationGroup.from_text("(1 2 3 4 5 6 7);(2 3 5)(4 7 6)", 7)),
    "C5^2": (10, lambda: PermutationGroup.from_text("(1 2 3 4 5);(6 7 8 9 10)", 10)),
    "C7xC11": (18, lambda: PermutationGroup.from_text(
        "(1 2 3 4 5 6 7);(8 9 10 11 12 13 14 15 16 17 18)", 18)),
    "cyclic:5@21": (21, lambda: group_from_name("cyclic:5", 21)),
    "cyclic:7@21": (21, lambda: group_from_name("cyclic:7", 21)),
    "cyclic:11@21": (21, lambda: group_from_name("cyclic:11", 21)),
}


@pytest.mark.parametrize("name", ODD_ORDER_CASES)
def test_nonfree_bound_of_odd_order_groups_matches_the_full_walk(name, monkeypatch):
    G = ODD_ORDER_CASES[name][1]()
    assert G.order % 2 == 1
    assert_nonfree_bound(G, monkeypatch)


def random_cycle_product(rng: random.Random, n: int) -> Permutation:
    """A product of disjoint cycles of one random length, at least two of them
    if they are swaps, on random points of 1..n."""
    length = rng.randint(2, min(5, n))
    most = n // length
    count = 1 if most < 2 else rng.randint(2 if length == 2 else 1, most)
    points = rng.sample(range(1, n + 1), length * count)
    images = list(range(1, n + 1))
    for c in range(count):
        cycle = points[c * length:(c + 1) * length]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b
    return Permutation(images)


def test_nonfree_reduction_matches_the_scan_on_random_transposition_free_groups(monkeypatch):
    rng = random.Random(12)
    groups = []
    while len(groups) < 300:
        n = rng.randint(3, 11)
        gens = [random_cycle_product(rng, n) for _ in range(rng.randint(2, 3))]
        try:
            G = PermutationGroup.from_generators(gens, n)
        except ValueError:  # order above MAX_GROUP_ORDER
            continue
        if G.order <= 5000 and not G.transpositions():
            groups.append(G)
    assert len({G.order for G in groups}) > 30
    monkeypatch.setattr(PermutationGroup, "_max_cycle_count_by_walk", not_taken)
    for G in groups:
        assert G.invariants().max_cycle_count == scan_nonfree_bound(G), G


def code_group(pairs: int, dim: int, seed: int) -> PermutationGroup:
    """C2^dim moving 2 * pairs points: generator i swaps pair j when bit i of
    a seeded random vector f_j is set.  Its pointwise stabilizers are the
    subspaces cut out by the f_j, which outnumber its elements."""
    rng = random.Random(seed)
    vectors = [rng.randrange(1, 2**dim) for _ in range(pairs)]
    gens = ["".join(f"({2 * j + 1} {2 * j + 2})" for j, f in enumerate(vectors) if f >> i & 1)
            for i in range(dim)]
    return PermutationGroup.from_text(";".join(gens), 2 * pairs)


def test_nonfree_reduction_gives_way_to_the_walk_past_its_rebuild_budget(monkeypatch):
    G = code_group(18, 9, 1)
    assert (G.n, G.order, G.transposition_classes()) == (36, 512, 0)
    rebuilds, walks = [], []
    schreier_sims, walk = perm._schreier_sims, PermutationGroup._max_cycle_count_by_walk
    monkeypatch.setattr(perm, "_schreier_sims", lambda *a: rebuilds.append(a) or schreier_sims(*a))
    monkeypatch.setattr(
        PermutationGroup, "_max_cycle_count_by_walk", lambda *a: walks.append(a) or walk(*a)
    )
    assert G.invariants().max_cycle_count == scan_nonfree_bound(G) == 33
    assert len(rebuilds) == 16 + 512 // 128 + 1 and len(walks) == 1
