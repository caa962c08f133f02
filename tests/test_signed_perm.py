"""Core window arithmetic, checked against a signed permutation-matrix oracle."""

import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from bweyl.signed_perm import (
    all_windows,
    compose,
    format_window,
    group_order,
    identity,
    inverse,
    inversion_mask,
    is_window,
    left_descents,
    left_mul_simple,
    length,
    longest_element,
    parse_window,
    simple_reflection,
    statistic_sets,
    validate_window,
)


def matrix(w):
    """Column j carries sign(w_j) in row |w_j|; the action on basis vectors."""
    n = len(w)
    m = [[0] * n for _ in range(n)]
    for j, x in enumerate(w):
        m[abs(x) - 1][j] = 1 if x > 0 else -1
    return m


def matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def transpose(a):
    return [list(col) for col in zip(*a)]


# ---------------------------------------------------------------- validation


def test_window_validation():
    assert is_window((-2, 3, 4, 5, 1))
    assert not is_window((0, 1))
    assert not is_window((1, 1))
    assert not is_window((2, 3))  # gap: no entry of magnitude 1
    assert not is_window(())
    with pytest.raises(ValueError):
        validate_window((1, -1))


def test_parse_and_format_round_trip():
    w = parse_window("-2 3 4 5 1")
    assert w == (-2, 3, 4, 5, 1)
    assert format_window(w) == "-2 3 4 5 1"
    for bad in ("", "0 1", "1 2 2", "1 3", "a b"):
        with pytest.raises(ValueError):
            parse_window(bad)


# -------------------------------------------------------------- constructors


def test_identity_and_longest():
    assert identity(3) == (1, 2, 3)
    assert identity(1) == (1,)
    assert length(identity(5)) == 0
    assert longest_element(2) == (-1, -2)
    assert length(longest_element(3)) == 9
    w0 = longest_element(4)
    assert compose(w0, w0) == identity(4)
    with pytest.raises(ValueError):
        identity(0)
    with pytest.raises(ValueError):
        longest_element(-1)


def test_simple_reflections():
    assert simple_reflection(2, 0) == (-1, 2)
    assert simple_reflection(2, 1) == (2, 1)
    assert simple_reflection(5, 3) == (1, 2, 4, 3, 5)
    assert all(length(simple_reflection(4, i)) == 1 for i in range(4))
    with pytest.raises(ValueError):
        simple_reflection(3, 3)
    with pytest.raises(ValueError):
        simple_reflection(3, -1)


def test_group_order_and_enumeration():
    for n, size in ((1, 2), (2, 8), (3, 48), (4, 384)):
        elems = list(all_windows(n))
        assert group_order(n) == size
        assert len(elems) == size
        assert len(set(elems)) == size
        assert all(is_window(w) for w in elems)


def test_enumeration_order_is_permutations_then_sign_patterns():
    # The sweeps and their reports list windows in this order.
    for n in range(1, 7):
        expected = [
            tuple(s * p for s, p in zip(signs, perm))
            for perm in permutations(range(1, n + 1))
            for signs in product((1, -1), repeat=n)
        ]
        assert list(all_windows(n)) == expected, n


# -------------------------------------------------------------- composition


def test_compose_named_values():
    assert compose((2, 1), (-1, 2)) == (-2, 1)
    assert compose(longest_element(2), (2, 1)) == (-2, -1)
    w = (3, -1, 4, 2)
    assert compose(w, identity(4)) == w
    assert compose(identity(4), w) == w
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_compose_matches_matrix_product_exhaustively():
    for n in (2, 3):
        elems = list(all_windows(n))
        for u in elems:
            mu = matrix(u)
            for v in elems:
                assert matrix(compose(u, v)) == matmul(mu, matrix(v))


def test_inverse_named_values():
    assert inverse((-2, 3, 4, 5, 1)) == (5, -1, 2, 3, 4)
    assert inverse(identity(4)) == identity(4)
    assert inverse((3, -1, 4, 2)) == (-2, 4, 1, 3)


def test_inverse_matches_matrix_transpose():
    for n in (2, 3):
        for w in all_windows(n):
            assert matrix(inverse(w)) == transpose(matrix(w))
            assert compose(w, inverse(w)) == identity(n)


def test_compose_associative_on_sampled_triples():
    rng = random.Random(8241)
    pool = list(all_windows(4)) + [
        tuple(rng.choice((1, -1)) * v for v in rng.sample(range(1, 6), 5))
        for _ in range(40)
    ]
    for _ in range(200):
        u, v, w = (rng.choice([p for p in pool if len(p) == k]) for k in (4, 4, 4))
        assert compose(compose(u, v), w) == compose(u, compose(v, w))


@hs.composite
def window_triples(draw, lo, hi):
    """Three signed windows of one rank drawn from lo..hi."""
    n = draw(hs.integers(lo, hi))
    return tuple(
        tuple(-x if neg else x for x, neg in zip(
            draw(hs.permutations(range(1, n + 1))),
            draw(hs.lists(hs.booleans(), min_size=n, max_size=n)),
        ))
        for _ in range(3)
    )


@given(window_triples(7, 9))
def test_group_axioms_at_larger_ranks(triple):
    u, v, w = triple
    e = identity(len(w))
    assert compose(compose(u, v), w) == compose(u, compose(v, w))
    assert compose(w, inverse(w)) == compose(inverse(w), w) == e
    assert compose(e, w) == compose(w, e) == w


# ---------------------------------------------------------------- statistics


def test_statistic_sets_named_values():
    s = statistic_sets((1, -2))
    assert (set(s.neg), set(s.inv), set(s.nsp)) == ({2}, {(1, 2)}, {(1, 2)})
    s = statistic_sets((-2, -1))
    assert (set(s.neg), set(s.inv), set(s.nsp)) == ({1, 2}, set(), {(1, 2)})
    s = statistic_sets(identity(6))
    assert s.neg == s.inv == s.nsp == frozenset()


def test_length_named_values():
    assert length((1, -2)) == 3
    assert length((2, 3, 5, 1, -4)) == 11
    for n in (1, 2, 3, 4, 5):
        assert length(longest_element(n)) == n * n


def test_length_formulas_agree_exhaustively():
    # #neg + #inv + #nsp against the inversion-minus-negative-sum form
    for n in (1, 2, 3, 4, 5):
        for w in all_windows(n):
            neg, inv, nsp = statistic_sets(w)
            assert length(w) == len(neg) + len(inv) + len(nsp)


@given(window_triples(7, 9))
def test_length_is_inversion_mask_popcount_at_larger_ranks(triple):
    for w in triple:
        assert length(w) == inversion_mask(w).bit_count()


def positive_roots_in_bit_order(n):
    """e_i for each i, then -e_i + e_j and e_i + e_j for each pair i < j."""
    def vector(*entries):
        v = [0] * n
        for place, value in entries:
            v[place] = value
        return v

    roots = [vector((i, 1)) for i in range(n)]
    for i, j in combinations(range(n), 2):
        roots += [vector((i, -1), (j, 1)), vector((i, 1), (j, 1))]
    return roots


def is_positive(v):
    """A root is positive when its last nonzero coordinate is."""
    return next(c for c in reversed(v) if c) > 0


def test_inversion_mask_is_the_literal_inversion_set():
    # bit k is set exactly when w sends the k-th positive root negative
    for n in (1, 2, 3, 4, 5):
        roots = positive_roots_in_bit_order(n)
        for w in all_windows(n):
            m = matrix(w)
            sent_negative = [
                not is_positive([sum(m[r][c] * root[c] for c in range(n)) for r in range(n)])
                for root in roots
            ]
            mask = inversion_mask(w)
            assert mask == sum(1 << k for k, neg in enumerate(sent_negative) if neg), w
            assert mask.bit_count() == length(w), w


def test_inversion_mask_named_values():
    assert inversion_mask(identity(4)) == 0
    assert inversion_mask(longest_element(3)) == (1 << 9) - 1
    assert inversion_mask((-1, 2)) == 0b0001  # e_1
    assert inversion_mask((2, 1)) == 0b0100  # -e_1 + e_2
    assert inversion_mask((1, -2)) == 0b1110  # e_2, -e_1 + e_2, e_1 + e_2


def test_left_multiplication_changes_length_by_one():
    for n in (1, 2, 3, 4):
        for w in all_windows(n):
            for i in range(n):
                assert abs(length(left_mul_simple(i, w)) - length(w)) == 1


def test_left_descents_match_length_drops():
    for n in (1, 2, 3, 4):
        for w in all_windows(n):
            drops = {
                i for i in range(n)
                if length(left_mul_simple(i, w)) == length(w) - 1
            }
            assert set(left_descents(w)) == drops


def test_left_mul_simple_matches_compose():
    for n in (2, 3):
        for w in all_windows(n):
            for i in range(n):
                assert left_mul_simple(i, w) == compose(simple_reflection(n, i), w)


@pytest.mark.parametrize("i, w", [(5, (1, 2)), (2, (1, 2)), (-1, (1, 2)), (1, (1,))])
def test_left_mul_simple_rejects_out_of_range_generators(i, w):
    # left_mul_simple(5, (1, 2)) used to return (1, 2)
    with pytest.raises(ValueError, match=f"generator index {i} out of range"):
        left_mul_simple(i, w)


def test_inverse_preserves_length_and_maps_negatives():
    for n in (1, 2, 3, 4):
        for w in all_windows(n):
            wi = inverse(w)
            assert length(wi) == length(w)
            expected = frozenset(abs(w[i - 1]) for i in statistic_sets(w).neg)
            assert statistic_sets(wi).neg == expected
