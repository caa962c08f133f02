"""Standardization, containment, separability, parabolic factorization,
and the minimality criteria."""

import random
import re
from itertools import chain, combinations

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from bweyl.catalog import ST_FIBER_2413, ST_FIBER_3142
from bweyl.patterns import (
    PATTERN_SETS,
    SEPARABLE_FORBIDDEN,
    _has_forbidden_pair,
    _has_forbidden_quad,
    _has_order_quad,
    _inverse_quad_through_last,
    _minimal,
    _minimal_definitional,
    _minnonsep_quad_through_last,
    _separable,
    _st,
    _sts,
    contains_pattern,
    inverse_minimality_criterion,
    is_doubly_minimal,
    is_minimal_nonseparable_definitional,
    is_minimal_nonseparable_fast,
    is_separable,
    parabolic_factor,
    st,
    sts,
)
from bweyl.quotients import verify_main_theorem
from bweyl.signed_perm import (
    all_windows,
    compose,
    identity,
    inverse,
    left_mul_simple,
    length,
    longest_element,
    validate_window,
)


def subsets(ns):
    return chain.from_iterable(combinations(ns, k) for k in range(len(ns) + 1))


# ------------------------------------------------------------ standardization


def test_st_named_values():
    assert st((2, -4, 3, -1)) == (3, 1, 4, 2)
    assert st((5, 9, 7)) == (1, 3, 2)
    assert st((1, -2)) == (2, 1)


def test_sts_named_values():
    assert sts((-5, 2)) == (-2, 1)
    assert sts((2, -4, 3, -1)) == (2, -4, 3, -1)
    for w in all_windows(3):
        assert sts(w) == w


@given(hs.lists(hs.integers(-60, 60).filter(bool), unique=True, max_size=10))
def test_st_core_matches_validating_st(seq):
    # the literal rank: one more than the number of smaller entries
    assert _st(seq) == st(seq) == tuple(1 + sum(y < x for y in seq) for x in seq)


@given(hs.lists(hs.integers(-60, 60).filter(bool), unique_by=abs, max_size=10))
def test_sts_core_matches_validating_sts(seq):
    # the sign kept, the magnitude ranked among the magnitudes
    ranks = [1 + sum(abs(y) < abs(x) for y in seq) for x in seq]
    assert _sts(seq) == sts(seq) == tuple(r if x > 0 else -r for r, x in zip(ranks, seq))


def test_st_rejects_entries_that_are_not_ints():
    # st(("b", "a")) used to answer (2, 1) and st((True, 3)) (1, 2)
    for bad in (("b", "a"), (1.5, -2), (True, 3), (2, False)):
        with pytest.raises(ValueError, match="non-int entries"):
            st(bad)


def test_sts_rejects_entries_that_are_not_ints():
    # sts((1.5, -2)) used to answer (1, -2)
    for bad in (("b", "a"), (1.5, -2), (True, 3), (-2, False)):
        with pytest.raises(ValueError, match="non-int entries"):
            sts(bad)


def test_standardization_rejections():
    with pytest.raises(ValueError):
        st((1, 1))
    with pytest.raises(ValueError):
        st((0, 2))
    with pytest.raises(ValueError):
        sts((2, -2))
    with pytest.raises(ValueError):
        sts((0,))


# ----------------------------------------------------------------- containment


def test_contains_pattern_named_values():
    assert contains_pattern((-2, 3, 4, 5, 1), (-2, 1))
    assert not contains_pattern((1, 2, 3, 4), (2, 1))
    w = (3, -1, 4, 2)
    assert contains_pattern(w, w)
    assert not contains_pattern((2, 1), (3, 1, 4, 2))  # pattern longer than window


def test_contains_pattern_rejects_non_windows():
    # each used to answer False
    for w, p, bad in (((1, 2, 3), (0, 1), "(0, 1)"), ((1, 2, 3), (1, 1), "(1, 1)"),
                      ((1, 2, 3), (), "()"), ((1, 5, 3), (2, 1), "(1, 5, 3)")):
        with pytest.raises(ValueError, match=re.escape(f"not a signed permutation window: {bad}")):
            contains_pattern(w, p)


# ----------------------------------------------------------------- separability


def test_separable_rank_two_classification():
    expected = {(1, 2), (-1, 2), (2, 1), (1, -2), (-2, -1), (-1, -2)}
    assert {w for w in all_windows(2) if is_separable(w)} == expected


def test_forbidden_patterns_are_not_separable():
    for p in SEPARABLE_FORBIDDEN:
        assert not is_separable(p)
    assert is_separable(identity(5))
    assert is_separable(longest_element(5))


def _assert_scans_match_containment(w):
    # the literal definition: some subsequence standardizes to a forbidden pattern
    contained = [contains_pattern(w, p) for p in SEPARABLE_FORBIDDEN]
    assert _has_forbidden_pair(w) == any(contained[:2]), w
    assert _has_forbidden_quad(w) == any(contained[2:]), w
    assert _separable(w) == (not any(contained)), w


def test_separability_scans_match_containment_exhaustively():
    for n in range(1, 6):
        for w in all_windows(n):
            _assert_scans_match_containment(w)


@hs.composite
def signed_windows(draw, lo, hi):
    n = draw(hs.integers(lo, hi))
    perm = draw(hs.permutations(range(1, n + 1)))
    signs = draw(hs.lists(hs.booleans(), min_size=n, max_size=n))
    return tuple(-x if neg else x for x, neg in zip(perm, signs))


@given(signed_windows(6, 9))
def test_separability_scans_match_containment_at_larger_ranks(w):
    _assert_scans_match_containment(w)


@given(signed_windows(7, 9), hs.data())
def test_pair_scan_and_raw_blocks_match_standardization(w, data):
    # slices are not windows, so the oracle standardizes each pair of entries
    a = data.draw(hs.integers(0, len(w)))
    b = data.draw(hs.integers(a, len(w)))
    for seq in (w[:b], w[a:b]):
        pairs = any(_sts((x, y)) in ((-2, 1), (2, -1)) for x, y in combinations(seq, 2))
        assert _has_forbidden_pair(seq) == pairs, seq
    # the blocks of a parabolic factor decided on the raw slices, as
    # _minimal_definitional does
    assert _separable(w[:b]) == _separable(sts(w[:b])), w[:b]
    assert _has_order_quad(w[a:b]) == (not _separable(st(w[a:b]))), w[a:b]


def _large_schroeder(n):
    """S_n by (k+1) S_k = 3(2k-1) S_{k-1} - (k-2) S_{k-2}, with S_0 = 1, S_1 = 2."""
    s = [1, 2]
    for k in range(2, n + 1):
        s.append((3 * (2 * k - 1) * s[k - 1] - (k - 2) * s[k - 2]) // (k + 1))
    return s[n]


def test_separable_counts_are_large_schroeder_numbers():
    assert [_large_schroeder(n) for n in range(1, 7)] == [2, 6, 22, 90, 394, 1806]
    for n in range(1, 7):
        assert sum(map(_separable, all_windows(n))) == _large_schroeder(n), n
    for n in range(2, 5):
        assert verify_main_theorem(n).counts["separable"] == _large_schroeder(n), n


def test_standardization_fibers_match_catalog():
    assert {w for w in all_windows(4) if st(w) == (3, 1, 4, 2)} == ST_FIBER_3142
    assert {w for w in all_windows(4) if st(w) == (2, 4, 1, 3)} == ST_FIBER_2413
    assert len(ST_FIBER_3142) == len(ST_FIBER_2413) == 16


def test_forbidden_patterns_are_closed_under_negation():
    # sts(-s) = -sts(s), so w contains p exactly when -w contains -p
    assert {tuple(-x for x in p) for p in SEPARABLE_FORBIDDEN} == set(SEPARABLE_FORBIDDEN)


def test_separability_closed_under_negation_through_rank_six():
    for n in range(1, 7):
        for w in all_windows(n):
            assert _separable(w) == _separable(tuple(-x for x in w)), w


def test_separability_closed_under_inverse_and_longest_multiplication():
    for n in (1, 2, 3, 4):
        w0 = longest_element(n)
        for w in all_windows(n):
            sep = is_separable(w)
            assert sep == is_separable(inverse(w))
            assert sep == is_separable(compose(w0, w))
            assert sep == is_separable(compose(w, w0))


# ------------------------------------------------------- parabolic factorization


def test_parabolic_factor_named_values():
    q, s = parabolic_factor((-2, 3, 4, 5, 1), {4})
    assert q == (2, 3, 4, 5, 1)
    assert s == (-1, 2, 3, 4, 5)
    w = (3, 1, 4, 2)
    assert parabolic_factor(w, ()) == (identity(4), w)
    with pytest.raises(ValueError):
        parabolic_factor(w, {4})


def test_parabolic_factor_reconstructs_and_adds_lengths():
    for w in all_windows(3):
        for removed in subsets(range(3)):
            q, s = parabolic_factor(w, removed)
            assert compose(q, s) == w
            assert length(w) == length(q) + length(s)


def test_parabolic_blocks_rebuild_the_subgroup_factor():
    # the blocks _minimal_definitional tests as raw slices of the window: the
    # subgroup factor, cut at the deleted generators and each block shifted
    # down, is the signed standardization before the first cut, the unsigned
    # one after
    for n in range(1, 5):
        for w in all_windows(n):
            for removed in subsets(range(n)):
                b = parabolic_factor(w, removed)[1]
                cuts = [*sorted(removed), n]
                assert b[:cuts[0]] == (sts(w[:cuts[0]]) if cuts[0] else ()), (w, removed)
                for a, c in zip(cuts, cuts[1:]):
                    assert tuple(x - a for x in b[a:c]) == st(w[a:c]), (w, removed)


def test_parabolic_factor_sampled_rank_five():
    rng = random.Random(515)
    pool = list(all_windows(4))
    for _ in range(60):
        w = rng.choice(pool)
        removed = tuple(i for i in range(4) if rng.random() < 0.5)
        q, s = parabolic_factor(w, removed)
        assert compose(q, s) == w
        assert length(w) == length(q) + length(s)
        # the quotient factor is its own quotient, the subgroup factor its own subgroup
        assert parabolic_factor(q, removed)[0] == q
        assert parabolic_factor(s, removed)[1] == s


def test_subgroup_factor_is_left_generator_multiple_for_tail_shape():
    # dropping the top generator from w ending (..., -n at inner place, n-1):
    # the subgroup factor equals s_{n-1} * w
    w = (-2, -3, -5, -1, 4)
    assert parabolic_factor(w, {4})[1] == left_mul_simple(4, w)


# ------------------------------------------------------------------ minimality


def test_minimal_nonseparable_named_values():
    assert is_minimal_nonseparable_definitional((-2, 3, 4, 5, 1))
    assert is_minimal_nonseparable_fast((-2, 3, 4, 5, 1))
    assert not is_minimal_nonseparable_definitional((5, -1, 2, 3, 4))
    assert not is_minimal_nonseparable_definitional(identity(3))
    assert is_minimal_nonseparable_fast((-2, 1))
    assert not is_minimal_nonseparable_fast(identity(1))


def test_minimality_fast_equals_definitional_small_ranks():
    for n in (1, 2, 3, 4):
        for w in all_windows(n):
            assert is_minimal_nonseparable_fast(w) == (
                is_minimal_nonseparable_definitional(w)
            ), w


@given(signed_windows(7, 9))
def test_minimality_core_matches_definition_at_larger_ranks(w):
    assert _minimal(w) == _minimal_definitional(w)


@pytest.mark.parametrize("n", [7, 8, 9])
def test_minimal_windows_past_exhaustive_ranks_meet_the_definition(n):
    # uniform windows are rarely minimal non-separable here (50 hits take
    # about 3,200, 7,300 and 29,000 draws at ranks 7, 8, 9), so they are
    # drawn by rejection
    rng = random.Random(9100 + n)
    minimal = []
    while len(minimal) < 50:
        w = tuple(x if rng.random() < 0.5 else -x for x in rng.sample(range(1, n + 1), n))
        if _minimal(w):
            minimal.append(w)
    for w in minimal:
        assert _minimal_definitional(w), w


def _minimal_by_subgroup_factor(w):
    """
    The definition on standardized blocks: non-separable, and for each
    deleted generator s_i both blocks of the subgroup factor of
    parabolic_factor(w, {i}), shifted down to windows, are separable.
    """
    if _separable(w):
        return False
    for i in range(len(w)):
        b = parabolic_factor(w, (i,))[1]
        blocks = [b[:i], tuple(x - i for x in b[i:])]
        if not all(_separable(block) for block in blocks if block):
            return False
    return True


def test_raw_slice_definitional_minimality_matches_factor_blocks():
    for n in range(1, 7):
        for w in all_windows(n):
            assert _minimal_definitional(w) == _minimal_by_subgroup_factor(w), w


def _quad_through_last_by_sts(w, quads):
    """Whether some quadruple ending at w_n standardizes (signed) into quads."""
    return any(sts((a, b, c, w[-1])) in quads for a, b, c in combinations(w[:-1], 3))


def _minimal_by_sts(w):
    """The window test for minimality with every pattern found by standardizing."""
    if len(w) < 2 or _has_forbidden_pair(w[:-1]) or _has_forbidden_quad(w):
        return False
    target, sign = ((-2, 1), "pos") if w[-1] > 0 else ((2, -1), "neg")
    quads = PATTERN_SETS[f"minnonsep-quad-{sign}"]
    return (any(sts((x, w[-1])) == target for x in w[:-1])
            and not _quad_through_last_by_sts(w, quads))


def _assert_last_entry_tests_match_standardization(w):
    sign = "pos" if w[-1] > 0 else "neg"
    assert _minnonsep_quad_through_last(w) == _quad_through_last_by_sts(
        w, PATTERN_SETS[f"minnonsep-quad-{sign}"]), w
    assert _inverse_quad_through_last(w) == _quad_through_last_by_sts(
        w, PATTERN_SETS[f"inverse-quad-{sign}"]), w
    assert _minimal(w) == _minimal_by_sts(w), w


def test_last_entry_tests_match_standardization_exhaustively():
    for n in (4, 5, 6):
        for w in all_windows(n):
            _assert_last_entry_tests_match_standardization(w)


@given(signed_windows(7, 9))
def test_last_entry_tests_match_standardization_at_larger_ranks(w):
    _assert_last_entry_tests_match_standardization(w)


def test_inverse_minimality_criterion_contract():
    assert not inverse_minimality_criterion((-2, 3, 4, 5, 1))
    with pytest.raises(ValueError):
        inverse_minimality_criterion(identity(4))
    for n in (2, 3, 4):
        for w in all_windows(n):
            if is_minimal_nonseparable_fast(w):
                assert inverse_minimality_criterion(w) == (
                    is_minimal_nonseparable_fast(inverse(w))
                ), w


def test_minimal_nonseparable_has_separable_shadows():
    # the unsigned standardization and the one-shorter signed prefix
    for n in (2, 3, 4, 5):
        for w in all_windows(n):
            if is_minimal_nonseparable_fast(w):
                assert is_separable(st(w))
                if n > 1:
                    assert is_separable(sts(w[:-1]))


def test_doubly_minimal_forces_top_entry_placement():
    for n in (2, 3, 4, 5):
        for w in all_windows(n):
            if is_doubly_minimal(w):
                assert abs(w[-1]) == n - 1 or abs(w[-2]) == n, w


def test_longest_multiplication_preserves_minimality():
    for n in (2, 3, 4):
        w0 = longest_element(n)
        for w in all_windows(n):
            if is_minimal_nonseparable_fast(w):
                assert is_minimal_nonseparable_fast(compose(w0, w))
                assert is_minimal_nonseparable_fast(compose(w, w0))
            if not is_separable(w):
                assert not is_separable(compose(w0, w))
                assert not is_separable(compose(w, w0))


@pytest.mark.parametrize("predicate", [
    is_separable,
    is_minimal_nonseparable_fast,
    is_minimal_nonseparable_definitional,
    inverse_minimality_criterion,
    is_doubly_minimal,
], ids=lambda f: f.__name__)
def test_predicates_reject_malformed_windows(predicate):
    # is_separable((0, 0, 0)) used to answer True
    for bad in ((0, 0, 0), (1, 1), (5, 7), (2, -2, 1), ()):
        with pytest.raises(ValueError, match="not a signed permutation window"):
            predicate(bad)


def test_pattern_set_registry():
    assert set(PATTERN_SETS) == {
        "sep-forbidden-6",
        "minnonsep-quad-pos",
        "minnonsep-quad-neg",
        "inverse-quad-pos",
        "inverse-quad-neg",
    }
    assert PATTERN_SETS["sep-forbidden-6"] == SEPARABLE_FORBIDDEN
    for members in PATTERN_SETS.values():
        assert len(set(members)) == len(members)


@pytest.mark.parametrize("family", ["minnonsep-quad", "inverse-quad"])
def test_negative_quad_family_is_the_positive_one_negated(family):
    positive, negative = PATTERN_SETS[f"{family}-pos"], PATTERN_SETS[f"{family}-neg"]
    assert negative == tuple(sorted(tuple(-x for x in p) for p in positive))
    for members in (positive, negative):
        assert list(members) == sorted(set(members)), family
        assert all(len(p) == 4 and validate_window(p) == p for p in members), family
