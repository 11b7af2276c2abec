"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Every tolerance is exact (integer / half-integer equality); the stated
runtime budgets are enforced.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import io
import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from permsing import (
    CERTIFIED,
    FALSE,
    NEG_INF,
    TRUE,
    ExtHalf,
    GroupInvariants,
    Permutation,
    as_class_count,
    certify,
    classify,
    dim_connected,
    dim_cyclic_cubic_galois,
    global_sup,
    sup_component,
    tame_totally_ramified_count,
    verify_dimension_growth,
)
from permsing import cli
from permsing.classify import (
    ANCHOR_BOUNDARY_COEFFICIENT,
    ANCHOR_B_CARTIER_INDEX,
    ANCHOR_CANONICAL_FROM_STRATA,
    ANCHOR_GORENSTEIN_INDEX,
    ANCHOR_KLT_FAILS_REDUCED_BOUNDARY,
    ANCHOR_KLT_FROM_CANONICAL,
    ANCHOR_KLT_FROM_DECAY,
    ANCHOR_LC_FROM_BOUNDED_SUP,
    ANCHOR_NONFREE_LOCUS,
    ANCHOR_REFLECTION_QUOTIENT,
    ANCHOR_STRINGY_BOUND,
    ANCHOR_TF_STRATUM_BOUND,
)
from permsing.perm import PermutationGroup

from helpers import (
    all_subgroups,
    embedded,
    exact_value_n2,
    five_case_dim,
    fixed_dim_rank_mod_p,
    fixed_dim_rank_Q,
    hilbert_series,
    reflection_quotient,
)

CHARACTERISTICS = (0, 2, 3, 5, 7)


@contextmanager
def criterion(num: int, description: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:02d} {verdict}  {description}  [{elapsed:.2f}s < {budget:g}s]")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def excess(n: int, d: int, p: int) -> ExtHalf:
    return dim_connected(n, d, p) - Fraction(d, 2)


def test_criterion_01_formula_table_reproduction():
    with criterion(1, "five-case formula and all four bound parts, n<=8, d<=40", 1.0):
        for p in CHARACTERISTICS:
            for n in range(1, 9):
                for d in range(0, 41):
                    expect = five_case_dim(n, d, p)
                    got = dim_connected(n, d, p)
                    assert got == (NEG_INF if expect is None else ExtHalf(expect))
                    if d < 1 or n < 2:
                        continue
                    value = excess(n, d, p)
                    # part 4: never positive
                    if value.is_finite:
                        assert value <= ExtHalf(0)
                    # part 1: n >= 4
                    if n >= 4 and value.is_finite:
                        assert value <= ExtHalf(-1)
                    # part 2: n = 3
                    if n == 3 and value.is_finite:
                        bound = Fraction(-1, 2) if p == 3 else Fraction(-1)
                        assert value <= ExtHalf(bound)
                    # part 3: n = 2, exact values
                    if n == 2:
                        stated = exact_value_n2(d, p)
                        if stated is None:
                            assert value == NEG_INF
                        else:
                            assert value == ExtHalf(Fraction(stated))


def test_criterion_02_oracle_formula_agreement_char_two():
    with criterion(2, "char-2 class counts match (q-1)q^(d/2-1) and the formula", 10.0):
        for q in (2, 4):
            for d in (2, 4, 6):
                count = as_class_count(2, q, d - 1)
                assert count == (q - 1) * q ** (d // 2 - 1)
        for d in (2, 4, 6):
            check = verify_dimension_growth(2, 2, d, [2, 4])
            assert check.ok
            assert check.predicted == dim_connected(2, d, 2) == ExtHalf(d // 2)


def test_criterion_03_oracle_formula_agreement_char_three():
    with criterion(3, "char-3 Galois-cubic counts match the torus-times-affine point count", 60.0):
        for q in (3, 9):
            for j in (1, 2, 4, 5):
                d = 2 * (j + 1)
                dim = j - j // 3
                assert dim_cyclic_cubic_galois(d) == ExtHalf(dim)
                count = as_class_count(3, q, j)
                assert count == (q - 1) * q ** (j - j // 3 - 1)
                assert count == (q - 1) * q ** (dim - 1)  # points of G_m x A^(dim-1)


def test_criterion_04_wild_monotonicity():
    with criterion(4, "wild excess weakly decreasing with maximum 1 - n/2 at d = n", 30.0):
        for p in (3, 5, 7):
            for n in range(p, 9, p):
                support = [d for d in range(0, 201) if excess(n, d, p).is_finite]
                assert support[0] == n
                values = [excess(n, d, p) for d in support]
                assert all(a >= b for a, b in zip(values, values[1:]))
                assert values[0] == ExtHalf(1 - Fraction(n, 2))
                assert max(values) == values[0]


def test_criterion_05_closed_form_suprema():
    with criterion(5, "sup_component equals the numeric max over d <= 200", 30.0):
        for p in CHARACTERISTICS:
            for part in range(1, 9):
                comp = sup_component(part, p)
                scanned = [excess(part, d, p) for d in range(0, 201)]
                finite = [v for v in scanned if v.is_finite]
                assert comp == max(scanned)
                if p == 2 and part % 2 == 0:
                    assert finite and set(finite) == {ExtHalf(1 - Fraction(part, 2))}


def test_criterion_06_key_inequality():
    with criterion(6, "transposition-free sup <= -1 for all n <= 10", 5.0):
        for p in CHARACTERISTICS:
            for n in range(1, 11):
                assert global_sup(n, p, transposition_free=True).sup <= ExtHalf(-1)


def test_criterion_07_soundness_sweep():
    with criterion(7, "every subgroup of S_n (n<=5) certifies canonical/lc, klt off char 2", 120.0):
        expected_counts = {1: 1, 2: 2, 3: 6, 4: 30, 5: 156}
        for n in range(1, 6):
            subgroups = all_subgroups(n)
            assert len(subgroups) == expected_counts[n]
            for G in subgroups:
                # the reflection quotient of a group with a transposition has
                # none, and the same verdict
                H = reflection_quotient(G)[0] if G.transposition_classes() else None
                if H is not None:
                    assert H.transposition_classes() == 0, G
                for p in (0, 2, 3, 5):
                    report = classify(G, p)
                    assert report.canonical == CERTIFIED
                    assert report.pair_lc == TRUE
                    if p != 2:
                        assert report.pair_klt == TRUE
                    if H is not None:
                        assert classify(H, p).canonical == report.canonical, (G, p)


def test_criterion_08_known_case_agreement():
    with criterion(8, "A_4 in char 2 certifies canonical; S_2 in char 2 fails klt", 10.0):
        report = classify(PermutationGroup.alternating(4), 2)
        assert report.canonical == CERTIFIED
        report = classify(PermutationGroup.symmetric(2), 2)
        assert report.pair_klt == FALSE
        assert report.gorenstein.boundary_coefficient == Fraction(1)
        assert report.gorenstein.kx_index_divides == 1


def test_criterion_09_pseudo_reflection_characterization():
    with criterion(9, "pseudo-reflections of S_7 are exactly the transpositions", 10.0):
        n = 7
        for images in itertools.permutations(range(1, n + 1)):
            g = Permutation(images)
            if g.is_identity():
                continue
            dim = g.cycle_count()
            assert fixed_dim_rank_Q(g) == dim
            assert fixed_dim_rank_mod_p(g, 2) == dim
            assert fixed_dim_rank_mod_p(g, 3) == dim
            assert g.is_transposition() == (dim == n - 1)


def test_criterion_10_tame_dimension_zero():
    with criterion(10, "tame totally ramified counts equal n, independent of q", 30.0):
        for q, n in [(3, 2), (5, 2), (4, 3), (7, 3)]:
            assert tame_totally_ramified_count(q, n) == n


def test_criterion_11_closed_form_suprema_at_large_degree():
    with criterion(11, "sup at n = 200 and classify cyclic:3 at n = 60 return at once", 1.0):
        argvs = [
            ["sup", "--n", "200", "--p", str(p)] + flag
            for p in CHARACTERISTICS
            for flag in ([], ["--no-transposition"])
        ]
        argvs += [
            ["classify", "--n", "60", "--p", str(p), "--group-name", "cyclic:3"]
            for p in (0, 2, 3, 5)
        ]
        for argv in argvs:
            assert cli.run(argv, out=io.StringIO(), err=io.StringIO()) == 0, argv


def cycle_text(points) -> str:
    return "(" + " ".join(map(str, points)) + ")"


def test_criterion_12_stabilizer_chain_groups_at_large_degree():
    description = (
        "A9, S8, C13^4 x C7, AGL(1,8)^3 at n = 64, PSL(2,59), an over-the-cap group"
        " and a bad p return at once"
    )
    with criterion(12, description, 1.0):
        for argv in (
            ["classify", "--n", "9", "--p", "2", "--group-name", "A9"],
            ["classify", "--n", "64", "--p", "3", "--group-name", "S8"],
        ):
            assert cli.run(argv, out=io.StringIO(), err=io.StringIO()) == 0, argv
        # order 199,927; its largest cycle count, 58, is the 7-cycle's
        c13 = [cycle_text(range(13 * i + 1, 13 * i + 14)) for i in range(4)]
        c7 = cycle_text(range(53, 60))
        for gens in (c13 + [c7], [c7] + c13):
            argv = ["classify", "--n", "64", "--p", "3", "--group", ";".join(gens)]
            out = io.StringIO()
            assert cli.run(argv, out=out, err=io.StringIO()) == 0, argv
            assert '"nonfree_locus_dim_bound": 58' in out.getvalue()
        err = io.StringIO()
        argv = ["classify", "--n", "64", "--p", "2", "--group", "(1 2);" + cycle_text(range(1, 65))]
        assert cli.run(argv, out=io.StringIO(), err=err) == 2
        assert "group order exceeds 200000" in err.getvalue()
        # AGL(1,8)^3 (order 175,616): its non-free bound, 60, is an involution
        # of one factor, found among 26 point stabilizers; a bad characteristic
        # is rejected before them
        agl = [
            f"({o + 1} {o + 2})({o + 3} {o + 4})({o + 5} {o + 6})({o + 7} {o + 8});"
            + cycle_text(o + x for x in (2, 3, 5, 4, 7, 8, 6))
            for o in (0, 8, 16)
        ]
        out = io.StringIO()
        argv = ["classify", "--n", "64", "--p", "3", "--group", ";".join(agl)]
        assert cli.run(argv, out=out, err=io.StringIO()) == 0
        assert '"nonfree_locus_dim_bound": 60' in out.getvalue()
        err = io.StringIO()
        argv[4] = "4"
        assert cli.run(argv, out=io.StringIO(), err=err) == 2
        assert "characteristic must be 0 or prime, got 4" in err.getvalue()
        # PSL(2,59) on the projective line, z -> z + 1 and z -> -1/z (order
        # 102,660): its fixed-point-free involutions have 30 cycles
        q = 59
        shift = Permutation([(z + 1) % q + 1 for z in range(q)] + [q + 1])
        invert = Permutation([q + 1] + [-pow(z, -1, q) % q + 1 for z in range(1, q)] + [1])
        out = io.StringIO()
        argv = ["classify", "--n", "60", "--p", "3", "--group",
                shift.cycle_string() + ";" + invert.cycle_string()]
        assert cli.run(argv, out=out, err=io.StringIO()) == 0
        assert '"nonfree_locus_dim_bound": 30' in out.getvalue()


def test_criterion_14_oracles_at_their_caps():
    # criterion 13 is reserved for the mass-formula check of dim_connected
    with criterion(14, "AS count at q^jump = 8^7, tame count over 17^4 elements, verify 4^8", 3.0):
        assert as_class_count(2, 8, 7) == 3584
        assert tame_totally_ramified_count(17, 5) == 5
        assert verify_dimension_growth(2, 2, 9, [4]).counts == (0,)


def theorem_records(n: int):
    """The invariants of five small groups, on n points where they fit."""
    yield GroupInvariants(n, 1, 0, True, None)  # trivial
    if n >= 3:
        yield GroupInvariants(n, 3, 0, True, n - 2)  # <(1 2 3)>
    if n >= 4:
        yield GroupInvariants(n, 4, 0, False, n - 2)  # <(1 2 3 4)>
    if n >= 2:
        yield GroupInvariants(n, 2, 1, False, n - 1)  # <(1 2)>
    if n >= 4:
        yield GroupInvariants(n, 4, 2, False, n - 1)  # <(1 2), (3 4)>


def theorem_anchors(p: int, has_t: bool, nonfree) -> list[str]:
    """The trace anchors of a certificate, in the order they are written."""
    anchors = [ANCHOR_GORENSTEIN_INDEX]
    if has_t:
        anchors += [ANCHOR_BOUNDARY_COEFFICIENT, ANCHOR_B_CARTIER_INDEX]
    anchors.append(ANCHOR_LC_FROM_BOUNDED_SUP)
    if p != 2:
        anchors.append(ANCHOR_KLT_FROM_DECAY)
    elif has_t:
        anchors.append(ANCHOR_KLT_FAILS_REDUCED_BOUNDARY)
    if has_t:
        anchors.append(ANCHOR_REFLECTION_QUOTIENT)
    anchors += [ANCHOR_TF_STRATUM_BOUND, ANCHOR_CANONICAL_FROM_STRATA]
    if p == 2 and not has_t:
        anchors.append(ANCHOR_KLT_FROM_CANONICAL)
    anchors.append(ANCHOR_STRINGY_BOUND)
    if nonfree is not None:
        anchors.append(ANCHOR_NONFREE_LOCUS)
    return anchors


def test_criterion_15_theorem_table_from_invariants():
    description = "certify restates the theorem for n <= 64, six p, 0-2 classes, both parities"
    with criterion(15, description, 2.0):
        for n in range(1, 65):
            for p in (0, 2, 3, 5, 7, 999999999989):
                trivial = certify(p, GroupInvariants(n, 1, 0, True, None))
                tf_bound = next(t for t in trivial.trace if t.anchor == ANCHOR_TF_STRATUM_BOUND)
                for inv in theorem_records(n):
                    has_t = inv.transposition_classes > 0
                    report = certify(p, inv)
                    assert report.canonical == CERTIFIED and report.pair_lc == TRUE
                    assert report.pair_klt == (FALSE if p == 2 and has_t else TRUE), (n, p, inv)
                    gor = report.gorenstein
                    assert gor.kx_index_divides == (1 if p == 2 or inv.all_even else 2)
                    coeff = (Fraction(1) if p == 2 else Fraction(1, 2)) if has_t else None
                    assert gor.boundary_coefficient == coeff
                    assert gor.b_cartier_index_divides == (coeff.denominator if has_t else None)
                    assert gor.branch_component_count == inv.transposition_classes
                    sup = global_sup(n, p, transposition_free=not has_t).sup
                    assert report.stringy_dim_bound == ExtHalf(n) + sup
                    assert (report.n, report.p, report.group_order) == (n, p, inv.order)
                    assert report.has_transposition == has_t
                    assert report.nonfree_locus_dim_bound == inv.max_cycle_count
                    anchors = [t.anchor for t in report.trace]
                    assert anchors == theorem_anchors(p, has_t, inv.max_cycle_count)
                    # one canonical path: every record at (n, p), with a
                    # transposition or not, reads the same stratum bound
                    bound = next(t for t in report.trace if t.anchor == ANCHOR_TF_STRATUM_BOUND)
                    assert bound == tf_bound, (n, p, inv)
                if n >= 2:
                    with pytest.raises(ValueError, match="even group"):
                        certify(p, GroupInvariants(n, 2, 1, True, n - 1))


def test_criterion_17_reflection_quotient():
    description = (
        "every subgroup of S_m (m<=5) at n = m, m + 2 has a transposition-free "
        "reflection quotient with the same graded Molien series"
    )
    with criterion(17, description, 10.0):
        checked = 0
        for m in range(1, 6):
            for G0 in all_subgroups(m):
                for G in (G0, embedded(G0, m + 2)):
                    H, blocks, degrees = reflection_quotient(G)
                    assert H.order * math.prod(math.factorial(len(B)) for B in blocks) == G.order
                    assert H.transposition_classes() == 0, G
                    assert hilbert_series(G) == hilbert_series(H, degrees), G
                    checked += 1
        assert checked == 390
