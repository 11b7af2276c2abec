"""Permutation parsing, group closure, and the group invariants."""

import ast
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from permsing import (
    ExtHalf,
    GorensteinReport,
    Permutation,
    PermutationGroup,
    classify,
    group_from_name,
    parse_generators,
    parse_permutation,
)
from permsing import perm
from permsing.perm import CycleParseError

from helpers import elements, fixed_dim_rank_mod_p, fixed_dim_rank_Q, transposition_distances


# ---------------------------------------------------------------------------
# parsing

def test_parse_transposition():
    assert parse_permutation("(1 2)", 4).images == (2, 1, 3, 4)


def test_parse_empty_is_identity():
    assert parse_permutation("", 3).images == (1, 2, 3)
    assert parse_permutation("   ", 3).images == (1, 2, 3)


def test_parse_cycle_product():
    assert parse_permutation("(1 2 3)(4 5)", 5).images == (2, 3, 1, 5, 4)


def test_parse_separators():
    assert parse_permutation("(1,2,3)", 3).images == (2, 3, 1)
    assert parse_permutation("(1, 2,  3)", 3).images == (2, 3, 1)
    assert parse_permutation("(1 2) (3 4)", 4).images == (2, 1, 4, 3)


def test_parse_singleton_cycle_fixes():
    assert parse_permutation("(2)", 3).images == (1, 2, 3)


def test_parse_errors():
    with pytest.raises(CycleParseError):
        parse_permutation("(1 5)", 4)  # out of range
    with pytest.raises(CycleParseError):
        parse_permutation("(0 1)", 4)  # entries are 1-based
    with pytest.raises(CycleParseError):
        parse_permutation("(1 2)(2 3)", 4)  # repeated across cycles
    with pytest.raises(CycleParseError):
        parse_permutation("(1 2", 4)  # malformed parentheses
    with pytest.raises(CycleParseError):
        parse_permutation("1 2", 4)
    with pytest.raises(CycleParseError):
        parse_permutation("()", 4)


def test_parse_generators_splits_on_semicolon():
    gens = parse_generators("(1 2);(1 2 3)", 3)
    assert [g.images for g in gens] == [(2, 1, 3), (2, 3, 1)]
    assert parse_generators("", 3)[0].is_identity()


def test_cycle_string_round_trip():
    for images in itertools.permutations(range(1, 6)):
        g = Permutation(images)
        assert parse_permutation(g.cycle_string(), 5) == g


# ---------------------------------------------------------------------------
# composition and closure

def test_composition_convention():
    a = parse_permutation("(1 2)", 3)
    b = parse_permutation("(2 3)", 3)
    assert (a * b)(3) == a(b(3)) == a(2) == 1
    assert a * a.inverse() == Permutation.identity(3)


def test_malformed_images_still_raise_and_products_are_permutations():
    for images in [(1, 1, 3), (0, 1, 2), (1, 2, 4), ()]:
        with pytest.raises(ValueError):
            Permutation(images)
    for a in itertools.permutations(range(1, 5)):
        g = Permutation(a)
        for h in (g * Permutation((2, 3, 4, 1)), g.inverse()):
            assert sorted(h.images) == [1, 2, 3, 4]
            assert Permutation(h.images) == h


def test_closure_order_two():
    G = PermutationGroup.from_generators([parse_permutation("(1 2)", 2)], 2)
    assert G.order == 2


def test_closure_empty_generators():
    assert PermutationGroup.from_generators([], 3).order == 1


def test_closure_klein_four():
    # brute-force expectation: the four products of the two generators
    a = parse_permutation("(1 2)(3 4)", 4)
    b = parse_permutation("(1 3)(2 4)", 4)
    G = PermutationGroup.from_generators([a, b], 4)
    assert G.order == 4
    assert elements(G) == frozenset([Permutation.identity(4), a, b, a * b])


def test_closure_idempotent():
    for text, n in [("(1 2);(1 2 3)", 3), ("(1 2)(3 4);(1 3)(2 4)", 4), ("(1 2 3 4 5)", 5)]:
        G = PermutationGroup.from_text(text, n)
        again = PermutationGroup.from_generators(elements(G), n)
        assert elements(again) == elements(G)


def test_closure_mixed_degrees_rejected():
    with pytest.raises(ValueError):
        PermutationGroup.from_generators([parse_permutation("(1 2)", 2)], 3)


def test_lagrange_for_small_degrees():
    import math

    for n in range(1, 5):
        elements = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        for a, b in itertools.combinations(elements, 2):
            G = PermutationGroup.from_generators([a, b], n)
            assert math.factorial(n) % G.order == 0


# ---------------------------------------------------------------------------
# fixed spaces and pseudo-reflections

def test_fixed_space_examples():
    assert Permutation.identity(5).cycle_count() == 5
    assert parse_permutation("(1 2)", 4).cycle_count() == 3
    assert parse_permutation("(1 2 3)", 3).cycle_count() == 1


def test_fixed_space_matches_matrix_rank_small():
    # the full S_7 sweep is an acceptance criterion; spot-check n <= 5 here
    for n in range(2, 6):
        for images in itertools.permutations(range(1, n + 1)):
            g = Permutation(images)
            expect = g.cycle_count()
            assert fixed_dim_rank_Q(g) == expect
            assert fixed_dim_rank_mod_p(g, 2) == expect
            assert fixed_dim_rank_mod_p(g, 3) == expect


def test_fixed_space_equals_degree_minus_transposition_distance():
    for n in range(2, 7):
        dist = transposition_distances(n)
        for images, steps in dist.items():
            assert Permutation(images).cycle_count() == n - steps


def test_pseudo_reflection_examples():
    # a pseudo-reflection fixes a hyperplane: the rank count is n - 1
    assert fixed_dim_rank_Q(parse_permutation("(1 2)", 4)) == 3
    assert fixed_dim_rank_Q(parse_permutation("(1 2)(3 4)", 4)) == 2
    assert fixed_dim_rank_Q(parse_permutation("(1 2 3)", 3)) == 1
    assert parse_permutation("(1 2)", 4).is_transposition()
    assert not parse_permutation("(1 2)(3 4)", 4).is_transposition()
    assert not Permutation.identity(3).is_transposition()


def test_pseudo_reflection_iff_transposition():
    for n in range(2, 7):
        for images in itertools.permutations(range(1, n + 1)):
            g = Permutation(images)
            if g.is_identity():
                continue
            assert (fixed_dim_rank_Q(g) == n - 1) == g.is_transposition()


# ---------------------------------------------------------------------------
# transpositions and their conjugacy classes

def test_transpositions_examples():
    assert {g.images for g in PermutationGroup.symmetric(3).transpositions()} == {
        (2, 1, 3),
        (3, 2, 1),
        (1, 3, 2),
    }
    assert PermutationGroup.klein_four(4).transpositions() == []
    G = PermutationGroup.from_text("(1 2);(3 4)", 4)
    assert {g.cycle_string() for g in G.transpositions()} == {"(1 2)", "(3 4)"}


def test_one_membership_test_per_class_of_pairs(monkeypatch):
    # PSL(2,59) on the projective line and S8 are 2-transitive: all pairs of
    # points form one orbit, so one sift decides every transposition
    q = 59
    shift = Permutation([(z + 1) % q + 1 for z in range(q)] + [q + 1])
    invert = Permutation([q + 1] + [-pow(z, -1, q) % q + 1 for z in range(1, q)] + [1])
    psl = PermutationGroup.from_generators([shift, invert], q + 1)
    calls = []
    sifts = PermutationGroup._sifts
    monkeypatch.setattr(PermutationGroup, "_sifts", lambda G, h: calls.append(h) or sifts(G, h))
    for G, classes in [(psl, 0), (group_from_name("S8", 8), 1)]:
        calls.clear()
        assert G.transposition_classes() == classes
        assert len(calls) == 1
    # (1 2);(3 4) has two orbits of one pair each; under (1 2 3 4) the six
    # pairs of its one point orbit fall into two orbits, {1,3} and {2,4} the
    # second
    for text, sifted in [("(1 2);(3 4)", 2), ("(1 2 3 4)", 2)]:
        calls.clear()
        PermutationGroup.from_text(text, 4).transpositions()
        assert len(calls) == sifted


def test_branch_components_examples():
    assert PermutationGroup.symmetric(3).transposition_classes() == 1
    assert PermutationGroup.klein_four(4).transposition_classes() == 0
    assert PermutationGroup.from_text("(1 2);(3 4)", 4).transposition_classes() == 2


def test_branch_components_zero_iff_no_transpositions():
    for G in [
        PermutationGroup.symmetric(4),
        PermutationGroup.alternating(4),
        PermutationGroup.cyclic(4),
        PermutationGroup.from_text("(1 2);(3 4)", 4),
        PermutationGroup.trivial(4),
    ]:
        has = len(G.transpositions()) > 0
        assert (G.transposition_classes() > 0) == has
        report = classify(G, 5).gorenstein
        assert (report.boundary_coefficient is not None) == has


# ---------------------------------------------------------------------------
# Gorenstein reports

def test_gorenstein_s2_odd_characteristic():
    r = classify(PermutationGroup.symmetric(2), 3).gorenstein
    assert r.kx_index_divides == 2
    assert r.boundary_coefficient == Fraction(1, 2)
    assert r.b_cartier_index_divides == 2
    assert r.branch_component_count == 1


def test_gorenstein_s2_char_two():
    r = classify(PermutationGroup.symmetric(2), 2).gorenstein
    assert r.kx_index_divides == 1
    assert r.boundary_coefficient == Fraction(1)
    assert r.b_cartier_index_divides == 1
    assert r.branch_component_count == 1


def test_gorenstein_a3_char_five():
    # A_3 is even: independent parity check by counting inversions
    G = PermutationGroup.alternating(3)
    for g in elements(G):
        inversions = sum(
            1
            for i in range(1, 4)
            for j in range(i + 1, 4)
            if g(i) > g(j)
        )
        assert inversions % 2 == 0
    r = classify(G, 5).gorenstein
    assert r.kx_index_divides == 1
    assert r.boundary_coefficient is None
    assert r.b_cartier_index_divides is None
    assert r.branch_component_count == 0


def test_gorenstein_characteristic_validation():
    with pytest.raises(ValueError):
        classify(PermutationGroup.symmetric(2), 4)
    with pytest.raises(ValueError):
        classify(PermutationGroup.symmetric(2), -3)


def test_gorenstein_report_invariants_enforced():
    with pytest.raises(ValueError):
        GorensteinReport(3, None, None, 0)
    with pytest.raises(ValueError):
        GorensteinReport(1, ExtHalf.half(1), 1, 1)
    with pytest.raises(ValueError):
        GorensteinReport(1, None, None, 2)
    with pytest.raises(ValueError):
        GorensteinReport(1, ExtHalf(2), 2, 1)
    # the coefficient is an ExtHalf, not a rational of the same value
    with pytest.raises(ValueError):
        GorensteinReport(1, Fraction(1, 2), 2, 1)
    assert GorensteinReport(1, ExtHalf.half(1), 2, 1).as_json()["boundary_coefficient"] == {
        "num": 1,
        "den": 2,
    }


def test_conjugation_invariance_of_branch_data():
    groups = [
        PermutationGroup.symmetric(3, 4),
        PermutationGroup.from_text("(1 2);(3 4)", 4),
        PermutationGroup.klein_four(4),
        PermutationGroup.cyclic(4),
    ]
    for G in groups:
        expected = G.transposition_classes()
        expected_report = classify(G, 3).gorenstein
        for images in itertools.permutations(range(1, 5)):
            s = Permutation(images)
            H = G.conjugate_by(s)
            assert H.transposition_classes() == expected
            assert classify(H, 3).gorenstein == expected_report


# ---------------------------------------------------------------------------
# presets

def test_alternating_matches_even_part_of_symmetric():
    for m in range(1, 8):
        even = {g for g in elements(PermutationGroup.symmetric(m)) if g.is_even()}
        assert elements(PermutationGroup.alternating(m)) == even
    assert elements(PermutationGroup.alternating(3, 5)) == {
        g for g in elements(PermutationGroup.symmetric(3, 5)) if g.is_even()
    }


def test_alternating_nine_is_under_the_order_cap():
    assert PermutationGroup.alternating(9).order == 181_440
    with pytest.raises(ValueError, match="exceeds"):
        PermutationGroup.alternating(10)


def test_group_presets():
    assert group_from_name("S4", 4).order == 24
    assert group_from_name("A4", 4).order == 12
    assert group_from_name("S3", 5).order == 6  # embedded, fixing 4 and 5
    assert group_from_name("cyclic:3", 3).order == 3
    assert group_from_name("klein4", 4).order == 4
    assert group_from_name("trivial", 6).order == 1
    with pytest.raises(ValueError):
        group_from_name("D4", 4)
    with pytest.raises(ValueError):
        group_from_name("S5", 4)  # does not fit in S_4


# ---------------------------------------------------------------------------
# the 1-based public view against plain 1-based references

def reference_cycles(images, include_fixed):
    seen, out = set(), []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cycle = [start]
        while images[cycle[-1] - 1] != start:
            cycle.append(images[cycle[-1] - 1])
        seen.update(cycle)
        if include_fixed or len(cycle) > 1:
            out.append(tuple(cycle))
    return out


def test_permutation_methods_match_one_based_references_on_s1_to_s5():
    for n in range(1, 6):
        all_images = list(itertools.permutations(range(1, n + 1)))
        perms = [Permutation(images) for images in all_images]
        for images, g in zip(all_images, perms):
            assert g.images == images and g.n == n
            assert [g(i) for i in range(1, n + 1)] == list(images)
            inverse = [0] * n
            for i, j in enumerate(images, start=1):
                inverse[j - 1] = i
            assert g.inverse().images == tuple(inverse)
            for fixed in (False, True):
                assert g.cycles(fixed) == reference_cycles(images, fixed)
            count = len(reference_cycles(images, True))
            assert g.cycle_count() == count
            inversions = sum(images[i] > images[j] for i, j in itertools.combinations(range(n), 2))
            assert g.is_even() == (inversions % 2 == 0)
            assert g.is_transposition() == (sum(images[i] != i + 1 for i in range(n)) == 2)
            assert g.is_identity() == (images == tuple(range(1, n + 1)))
        for (a, g), (b, h) in itertools.product(zip(all_images, perms), repeat=2):
            assert (g * h).images == tuple(a[j - 1] for j in b)
            assert (g < h) == (a < b)
            assert (g == h) == (a == b)
            if a == b:
                assert hash(g) == hash(h)
        assert len(set(perms)) == len(perms)


def test_preset_generators_are_the_parsed_cycles():
    def cycle(lo, hi):
        return "(" + " ".join(map(str, range(lo, hi + 1))) + ")"

    for m in range(1, 10):
        for n in (m, m + 3):
            expected = {
                "S": (["(1 2)"] if m >= 2 else []) + ([cycle(1, m)] if m >= 3 else []),
                "A": (["(1 2 3)"] if m >= 3 else [])
                + ([cycle(1 if m % 2 else 2, m)] if m >= 4 else []),
                "cyclic:": [cycle(1, m)] if m > 1 else [],
            }
            for prefix, texts in expected.items():
                if prefix == "S" and m == 9:
                    with pytest.raises(ValueError, match="group order exceeds 200000"):
                        group_from_name(f"S{m}", n)
                    continue
                G = group_from_name(f"{prefix}{m}", n)
                assert G.generators == tuple(parse_permutation(t, n) for t in texts)
                assert all(g.n == n for g in G.generators)
        if m >= 4:
            for n in (m, m + 3):
                assert group_from_name("klein4", n).generators == (
                    parse_permutation("(1 2)(3 4)", n),
                    parse_permutation("(1 3)(2 4)", n),
                )


# ---------------------------------------------------------------------------
# layering: perm.py is group theory only


def _imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "permsing." + base if base else "permsing"
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    return imported


def _hits(imported: set[str], forbidden: tuple[str, ...]) -> set[str]:
    return {name for name in imported for bad in forbidden if (name + ".").startswith(bad + ".")}


def test_perm_module_imports_no_verdict_code():
    forbidden = ("fractions", "dataclasses") + tuple(
        f"permsing.{name}" for name in ("primes", "classify", "strata")
    )
    assert not _hits(_imported_modules(Path(perm.__file__)), forbidden)
    # the half-integers are doubled ints, so no module needs rationals
    modules = sorted(Path(perm.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        assert not _hits(_imported_modules(path), ("fractions",)), path.name


def test_cli_import_loads_no_rationals():
    src = str(Path(perm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import sys, permsing.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
