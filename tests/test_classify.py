"""Certificate engine: verdicts, traces, and soundness on small groups."""

import itertools
import json
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
    PermutationGroup,
    certify,
    classify,
)
from permsing import primes
from permsing.classify import (
    ANCHOR_CANONICAL_FROM_STRATA,
    ANCHOR_TF_STRATUM_BOUND,
    ANCHOR_GORENSTEIN_INDEX,
    ANCHOR_KLT_FAILS_REDUCED_BOUNDARY,
    ANCHOR_KLT_FROM_CANONICAL,
    ANCHOR_KLT_FROM_DECAY,
    ANCHOR_LC_FROM_BOUNDED_SUP,
    ANCHOR_REFLECTION_QUOTIENT,
    ANCHOR_STRINGY_BOUND,
)
from permsing.primes import MAX_CHARACTERISTIC, validate_characteristic

from helpers import all_subgroups, reflection_quotient


def transposition_free(n: int) -> GroupInvariants:
    """The invariants of the cyclic group of (1 2 3), n >= 3."""
    return GroupInvariants(n, 3, 0, True, n - 2)


def detail(report, anchor: str) -> str:
    return next(t.detail for t in report.trace if t.anchor == anchor)


def test_certify_examples():
    report = certify(2, transposition_free(4))
    assert report.canonical == CERTIFIED and report.stringy_dim_bound == ExtHalf(3)
    assert detail(report, ANCHOR_TF_STRATUM_BOUND).endswith("is -1 at nu=(4)")
    report = certify(3, transposition_free(3))
    assert report.canonical == CERTIFIED and report.stringy_dim_bound == ExtHalf(2)
    assert detail(report, ANCHOR_TF_STRATUM_BOUND).endswith("is -1 at nu=(3)")
    report = certify(7, GroupInvariants(2, 1, 0, True, None))
    assert report.canonical == CERTIFIED and report.stringy_dim_bound == NEG_INF
    assert detail(report, ANCHOR_TF_STRATUM_BOUND).endswith("is -inf at nu=(2)")


def test_certify_holds_everywhere_small():
    for p in (0, 2, 3, 5, 7):
        for n in range(1, 11):
            inv = transposition_free(n) if n >= 3 else GroupInvariants(n, 1, 0, True, None)
            assert certify(p, inv).canonical == CERTIFIED, (n, p)


def test_pair_status_examples():
    s = certify(3, GroupInvariants(5, 2, 1, False, 4))
    assert (s.pair_klt, s.pair_lc) == (TRUE, TRUE)
    s = certify(2, GroupInvariants(2, 2, 1, False, 1))
    assert (s.pair_klt, s.pair_lc) == (FALSE, TRUE)
    s = certify(2, transposition_free(4))
    assert (s.pair_klt, s.pair_lc) == (TRUE, TRUE)


def test_reflection_quotient_examples():
    # a group with a transposition is certified through its transposition-free
    # reflection quotient: the same stratum entries as a transposition-free
    # record of the same (n, p), behind one reflection-quotient entry
    for p in (5, 2, 3):
        report = certify(p, GroupInvariants(4, 2, 1, False, 3))
        anchors = [t.anchor for t in report.trace]
        at = anchors.index(ANCHOR_REFLECTION_QUOTIENT)
        assert anchors[at + 1 : at + 3] == [ANCHOR_TF_STRATUM_BOUND, ANCHOR_CANONICAL_FROM_STRATA]
        assert detail(report, ANCHOR_REFLECTION_QUOTIENT).startswith("X = A^4/H for H = G/W")
        tf = certify(p, transposition_free(4))
        for anchor in (ANCHOR_TF_STRATUM_BOUND, ANCHOR_CANONICAL_FROM_STRATA):
            assert detail(report, anchor) == detail(tf, anchor)
        assert ANCHOR_REFLECTION_QUOTIENT not in [t.anchor for t in tf.trace]
    # S_4 has W = S_4, so H is trivial; so is H of <(1 2), (3 4)>, on its
    # four y's; S_3 fixing 4 and 5 keeps them as singleton blocks
    for G, blocks, degrees in (
        (PermutationGroup.symmetric(4), [(1, 2, 3, 4)], (1, 2, 3, 4)),
        (PermutationGroup.from_text("(1 2);(3 4)", 4), [(1, 2), (3, 4)], (1, 2, 1, 2)),
        (PermutationGroup.symmetric(3, 5), [(1, 2, 3), (4,), (5,)], (1, 2, 3, 1, 1)),
    ):
        H, got_blocks, got_degrees = reflection_quotient(G)
        assert (H.order, got_blocks, got_degrees) == (1, blocks, degrees)
    # the wreath product S_2 wr S_2 swaps the two blocks: H is C_2 acting as
    # (y_{12,1} y_{34,1})(y_{12,2} y_{34,2}), with no transposition
    H, blocks, _ = reflection_quotient(PermutationGroup.from_text("(1 2);(1 3)(2 4)", 4))
    assert blocks == [(1, 2), (3, 4)]
    assert [g.cycle_string() for g in H.generators if not g.is_identity()] == ["(1 3)(2 4)"]
    assert H.order == 2 and H.transposition_classes() == 0


def test_certify_rejects_impossible_invariants():
    for inv in (
        GroupInvariants(0, 1, 0, True, None),  # no points
        GroupInvariants(3, 0, 0, True, None),  # no elements
        GroupInvariants(3, 2, 1, True, 2),  # an even transposition
        GroupInvariants(3, 1, 0, True, 1),  # trivial group with a non-identity element
        GroupInvariants(3, 3, 0, True, None),  # non-trivial group without one
        GroupInvariants(3, 3, 0, True, 3),  # a non-identity element fixing every point
        GroupInvariants(3, 3, 0, True, 0),  # an element with no cycle
        GroupInvariants(3, 2, 0, False, 2),  # n - 1 cycles but no transposition
        GroupInvariants(4, 2, 1, False, 2),  # a transposition with n - 2 cycles
    ):
        with pytest.raises(ValueError):
            certify(2, inv)
    with pytest.raises(ValueError, match="characteristic"):
        certify(4, transposition_free(3))


# ---------------------------------------------------------------------------
# classify

def test_classify_s2_char_two():
    report = classify(PermutationGroup.symmetric(2), 2)
    assert report.canonical == CERTIFIED
    assert report.pair_klt == FALSE
    assert report.pair_lc == TRUE
    assert report.stringy_dim_bound == ExtHalf(2)
    gor = report.gorenstein
    assert gor.kx_index_divides == 1
    assert gor.boundary_coefficient == Fraction(1)
    assert gor.b_cartier_index_divides == 1
    assert gor.branch_component_count == 1
    anchors = [t.anchor for t in report.trace]
    assert ANCHOR_REFLECTION_QUOTIENT in anchors
    assert ANCHOR_CANONICAL_FROM_STRATA in anchors
    assert ANCHOR_KLT_FAILS_REDUCED_BOUNDARY in anchors
    assert ANCHOR_KLT_FROM_CANONICAL not in anchors


def test_classify_a4_char_two():
    report = classify(PermutationGroup.alternating(4), 2)
    assert report.canonical == CERTIFIED
    assert not report.has_transposition
    assert report.pair_klt == TRUE  # derived from the canonical certificate
    anchors = [t.anchor for t in report.trace]
    assert ANCHOR_CANONICAL_FROM_STRATA in anchors
    assert ANCHOR_KLT_FROM_CANONICAL in anchors


def test_classify_trivial_group():
    report = classify(PermutationGroup.trivial(1), 5)
    assert report.canonical == CERTIFIED
    assert report.stringy_dim_bound == NEG_INF
    assert report.nonfree_locus_dim_bound is None


def test_classify_cyclic3_char_three():
    report = classify(PermutationGroup.cyclic(3), 3)
    assert report.canonical == CERTIFIED
    assert report.pair_klt == TRUE
    assert report.pair_lc == TRUE


def test_classify_validates_characteristic():
    with pytest.raises(ValueError):
        classify(PermutationGroup.symmetric(2), 6)


def test_classify_rejects_the_characteristic_before_reading_invariants(monkeypatch):
    G = PermutationGroup.cyclic(3)

    def unreachable(self):
        raise AssertionError("the invariants must not be read for a bad p")

    monkeypatch.setattr(PermutationGroup, "invariants", unreachable)
    with pytest.raises(ValueError, match="characteristic must be 0 or prime, got 4"):
        classify(G, 4)


def test_characteristic_above_cap_rejected_before_primality(monkeypatch):
    largest_prime_under_cap = 999_999_999_989
    assert validate_characteristic(largest_prime_under_cap) == largest_prime_under_cap

    def unreachable(m):
        raise AssertionError("trial division must not run above the cap")

    monkeypatch.setattr(primes, "is_prime", unreachable)
    for p in (MAX_CHARACTERISTIC + 39, 2**61 - 1):
        with pytest.raises(ValueError, match="at most"):
            validate_characteristic(p)
        with pytest.raises(ValueError, match="at most"):
            classify(PermutationGroup.symmetric(2), p)


def test_classify_nonfree_locus_bound():
    report = classify(PermutationGroup.symmetric(3), 0)
    # a transposition fixes a hyperplane
    assert report.nonfree_locus_dim_bound == 2


def test_trace_anchors_nonempty_and_verdicts_justified():
    groups = [
        PermutationGroup.symmetric(2),
        PermutationGroup.symmetric(4),
        PermutationGroup.alternating(4),
        PermutationGroup.klein_four(4),
        PermutationGroup.cyclic(3),
        PermutationGroup.trivial(2),
    ]
    for G in groups:
        for p in (0, 2, 3, 5):
            report = classify(G, p)
            anchors = [t.anchor for t in report.trace]
            assert all(anchors)
            assert ANCHOR_LC_FROM_BOUNDED_SUP in anchors  # lc verdict
            assert ANCHOR_GORENSTEIN_INDEX in anchors  # gorenstein data
            assert ANCHOR_STRINGY_BOUND in anchors  # stringy bound
            # one canonical path, behind the reflection quotient when G has
            # a transposition
            assert ANCHOR_CANONICAL_FROM_STRATA in anchors
            assert (ANCHOR_REFLECTION_QUOTIENT in anchors) == report.has_transposition
            if report.pair_klt == TRUE:
                assert ANCHOR_KLT_FROM_DECAY in anchors or ANCHOR_KLT_FROM_CANONICAL in anchors
            if report.pair_klt == FALSE:
                assert ANCHOR_KLT_FAILS_REDUCED_BOUNDARY in anchors


def test_classify_conjugation_invariance():
    groups = [
        PermutationGroup.symmetric(3, 4),
        PermutationGroup.klein_four(4),
        PermutationGroup.from_text("(1 2);(3 4)", 4),
        PermutationGroup.cyclic(4),
    ]
    for G in groups:
        for p in (0, 2, 3):
            base = classify(G, p)
            for images in itertools.permutations(range(1, 5)):
                H = G.conjugate_by(Permutation(images))
                other = classify(H, p)
                assert (other.canonical, other.pair_klt, other.pair_lc) == (
                    base.canonical,
                    base.pair_klt,
                    base.pair_lc,
                )
                assert other.stringy_dim_bound == base.stringy_dim_bound
                assert other.gorenstein == base.gorenstein


def test_report_invariants_enforced():
    base = classify(PermutationGroup.symmetric(2), 2)
    import dataclasses

    with pytest.raises(ValueError):
        dataclasses.replace(base, pair_lc="UNKNOWN")  # CERTIFIED needs lc
    with pytest.raises(ValueError):
        dataclasses.replace(base, p=3)  # klt FALSE only for p = 2 boundaries
    tf = classify(PermutationGroup.klein_four(4), 2)
    with pytest.raises(ValueError):
        dataclasses.replace(tf, pair_klt="UNKNOWN")  # empty boundary needs klt
    with pytest.raises(ValueError):
        dataclasses.replace(base, canonical="NOT CANONICAL")  # no such verdict


def test_report_json_is_stable_and_round_trips():
    report = classify(PermutationGroup.symmetric(2), 2)
    blob = json.dumps(report.as_json(), sort_keys=True)
    assert json.dumps(json.loads(blob), sort_keys=True) == blob
    data = json.loads(blob)
    assert data["canonical"] == "CERTIFIED"
    assert data["pair_klt"] == "FALSE"
    assert data["stringy_dim_bound"] == {"finite": True, "value": {"num": 2, "den": 1}}


def test_soundness_sweep_small_degrees():
    # the full n <= 5 sweep is an acceptance criterion; here n <= 4
    for n in range(1, 5):
        for G in all_subgroups(n):
            H = reflection_quotient(G)[0] if G.transposition_classes() else None
            if H is not None:
                assert H.transposition_classes() == 0, G
            for p in (0, 2, 3, 5):
                report = classify(G, p)
                assert report.canonical == CERTIFIED, (n, G, p)
                assert report.pair_lc == TRUE
                if p != 2:
                    assert report.pair_klt == TRUE
                if H is not None:
                    assert classify(H, p).canonical == report.canonical, (G, p)
