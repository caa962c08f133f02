"""Order comparisons, ideal enumeration, rank polynomials, reduced words."""

import random
import re
from collections import Counter
from itertools import combinations, product
from math import factorial, prod

import pytest

from bweyl import weak_order
from bweyl.patterns import parabolic_factor
from bweyl.polynomials import Poly, from_counts
from bweyl.quotients import is_splitting, quotient_of_interval
from bweyl.root_system import inversion_roots
from bweyl.signed_perm import (
    all_windows,
    compose,
    identity,
    inverse,
    inversion_mask,
    length,
    longest_element,
    simple_reflection,
    statistic_sets,
    validate_window,
)
from bweyl.weak_order import (
    ideal_polynomial,
    interval_right,
    iter_reduced_words,
    left_leq,
    lower_covers_left,
    lower_ideal_left,
    product_word,
    rank_polynomial,
    reduced_word_count,
    right_leq,
    upper_ideal_left,
)


# ------------------------------------------------------------------ comparisons


def test_left_leq_named_values():
    assert left_leq(identity(5), (-2, 3, 4, 5, 1))
    assert not left_leq((1, -2), (-2, -1))
    assert left_leq((-1, 2), (-2, -1))
    with pytest.raises(ValueError):
        left_leq((1, 2), (1, 2, 3))


def test_left_leq_matches_length_definition():
    # u <= w iff length(w) = length(u) + length(w * u^-1)
    for u in all_windows(3):
        lu = length(u)
        ui = inverse(u)
        for w in all_windows(3):
            expected = length(w) == lu + length(compose(w, ui))
            assert left_leq(u, w) == expected


def test_mask_containment_is_the_statistic_set_order():
    for n in (1, 2, 3, 4):
        stats = {w: statistic_sets(w) for w in all_windows(n)}
        masks = {w: inversion_mask(w) for w in stats}
        for u, su in stats.items():
            for w, sw in stats.items():
                by_sets = su.neg <= sw.neg and su.inv <= sw.inv and su.nsp <= sw.nsp
                assert (not masks[u] & ~masks[w]) == by_sets, (u, w)
                if n <= 3:
                    assert left_leq(u, w) == by_sets, (u, w)


def test_length_additivity_is_mask_disjointness():
    # l(xy) = l(x) + l(y) exactly when the inversion sets of x and y^-1 miss
    for n in (1, 2, 3, 4):
        ws = list(all_windows(n))
        masks = {w: inversion_mask(w) for w in ws}
        inverse_masks = {w: masks[inverse(w)] for w in ws}
        lengths = {w: length(w) for w in ws}
        for x in ws:
            for y in ws:
                additive = length(compose(x, y)) == lengths[x] + lengths[y]
                assert additive == (not masks[x] & inverse_masks[y]), (x, y)


def test_right_leq_named_values():
    for u in all_windows(2):
        assert right_leq(u, u)
    assert right_leq(simple_reflection(2, 0), (-2, -1))
    assert not right_leq((2, 1), (-1, 2))


def test_right_leq_matches_length_definition():
    for u in all_windows(3):
        lu = length(u)
        ui = inverse(u)
        for w in all_windows(3):
            expected = length(w) == lu + length(compose(ui, w))
            assert right_leq(u, w) == expected


# ----------------------------------------------------------------------- covers


def test_lower_covers():
    assert lower_covers_left(identity(4)) == frozenset()
    assert len(lower_covers_left(longest_element(2))) == 2
    assert lower_covers_left((-1, 2)) == frozenset({identity(2)})
    for w in all_windows(3):
        for c in lower_covers_left(w):
            assert length(c) == length(w) - 1
            assert left_leq(c, w)


# ----------------------------------------------------------------------- ideals


def _stats_cache(n):
    return {w: statistic_sets(w) for w in all_windows(n)}


def _filter_lower(w, cache):
    sw = cache[w]
    return frozenset(
        u for u, su in cache.items()
        if su.neg <= sw.neg and su.inv <= sw.inv and su.nsp <= sw.nsp
    )


def test_lower_ideal_matches_direct_filter_exhaustively():
    for n in (1, 2, 3, 4):
        cache = _stats_cache(n)
        for w in cache:
            assert lower_ideal_left(w) == _filter_lower(w, cache)


def test_lower_ideal_spot_checks_rank_five():
    rng = random.Random(55)
    cache = _stats_cache(5)
    for w in rng.sample(sorted(cache), 8):
        assert lower_ideal_left(w) == _filter_lower(w, cache)


def test_ideals_reject_malformed_windows():
    for bad in ((1, 1), (0, 2), (5, 7)):
        for build in (lower_ideal_left, upper_ideal_left, interval_right):
            with pytest.raises(ValueError):
                build(bad)


def test_upper_ideal_named_values():
    n = 3
    assert upper_ideal_left(identity(n)) == frozenset(all_windows(n))
    assert upper_ideal_left(longest_element(n)) == frozenset(
        {longest_element(n)}
    )
    assert len(upper_ideal_left((-1, 2))) == 4


def test_upper_ideal_matches_direct_filter():
    # left_leq is the statistic-set order: test_mask_containment_is_the_statistic_set_order
    for n in (1, 2, 3, 4):
        ws = list(all_windows(n))
        for w in ws:
            expected = frozenset(u for u in ws if left_leq(w, u))
            assert upper_ideal_left(w) == expected, w


def _upper_polynomial(w):
    """P_U(w): the upper left ideal of w is the lower one of -w negated."""
    return ideal_polynomial("lower-left", tuple(-x for x in w)).reversed()


#: Each materialized ideal with the polynomial that counts its levels.
_ORACLES = (
    (lower_ideal_left, lambda w: ideal_polynomial("lower-left", w)),
    (upper_ideal_left, _upper_polynomial),
    (interval_right, lambda w: ideal_polynomial("lower-right", w)),
)


def _bfs_levels(apex, covers):
    """The levels below apex, by breadth-first search through covers."""
    levels = [{apex}]
    while True:
        below = set().union(*(covers[x] for x in levels[-1]))
        if not below:
            return levels
        levels.append(below)


def test_ideals_match_left_cover_search_through_rank_five():
    # The literal search: lower covers s_i * w in the left order (acting
    # on values), upper covers by reversing them, and lower covers in the
    # right order as the inverses of the left covers of the inverse.
    for n in range(1, 6):
        down = {w: lower_covers_left(w) for w in all_windows(n)}
        up = {w: set() for w in down}
        for w, covers in down.items():
            for c in covers:
                up[c].add(w)
        right_down = {w: {inverse(c) for c in down[inverse(w)]} for w in down}
        for (build, poly), covers in zip(_ORACLES, (down, up, right_down)):
            for w in down:
                levels = _bfs_levels(w, covers)
                assert build(w) == frozenset().union(*levels), (build.__name__, w)
                # polynomials count levels from the bottom; BFS runs out from the apex
                bottom_up = levels if build is upper_ideal_left else levels[::-1]
                sizes = list(map(len, bottom_up))
                assert poly(w).to_list() == sizes, (build.__name__, w)


def _right_move(x, i):
    """x * s_i: place 1 negated for i = 0, places i and i+1 swapped otherwise."""
    if i == 0:
        return (-x[0],) + x[1:]
    return x[:i - 1] + (x[i], x[i - 1]) + x[i + 1:]


def test_place_swaps_are_the_literal_right_products():
    # index 0 is s_0, negating place 1; it used to be None
    for n in range(1, 6):
        moves = weak_order._place_swaps(n)
        assert len(moves) == n
        for i, move in enumerate(moves):
            s = simple_reflection(n, i)
            for x in all_windows(n):
                assert move(x) == compose(x, s), (n, i, x)


def _first_descent(z):
    """The first right descent of z, or None for the identity."""
    return next((j for j in range(len(z)) if (z[j - 1] if j else 0) > z[j]), None)


def _root_bit(n, a, b):
    """
    The bit of the root that x * s_i adds to the inversion set of x^-1
    when it swaps the values a < b: e_b (bit b-1) when a = -b, from s_0;
    else, with p < q the magnitudes and k the index of the pair (p, q),
    -e_p + e_q (bit n+2k) when a, b share a sign and e_p + e_q (bit
    n+2k+1) otherwise.
    """
    if a == -b:
        return b - 1
    p, q = sorted((abs(a), abs(b)))
    k = (p - 1) * (2 * n - p) // 2 + q - p - 1
    return n + 2 * k + ((a < 0) != (b < 0))


def test_an_upward_move_adds_the_root_of_the_values_it_swaps():
    for n in range(1, 7):
        masks = {w: inversion_mask(inverse(w)) for w in all_windows(n)}
        moves = 0
        for x, mask in masks.items():
            for i in range(n):
                a, b = (-x[0], x[0]) if i == 0 else (x[i - 1], x[i])
                if a < b:
                    z = _right_move(x, i)
                    assert masks[z] ^ mask == 1 << _root_bit(n, a, b), (x, i)
                    assert not mask >> _root_bit(n, a, b) & 1, (x, i)
                    moves += 1
        assert moves == len(masks) * n // 2  # each s_i ascends from half the group


def test_a_seed_has_the_root_of_a_b_exactly_when_it_puts_b_before_a():
    # The search keeps a move that swaps a < b when seed puts b first in
    # signed places, the value v at place p and -v at -p.
    for n in range(1, 6):
        for seed in all_windows(n):
            mask = inversion_mask(inverse(seed))
            place = {}
            for p, v in enumerate(seed, start=1):
                place[v], place[-v] = p, -p
            values = sorted(place)
            for a, b in combinations(values, 2):
                has_root = bool(mask >> _root_bit(n, a, b) & 1)
                assert has_root == (place[b] < place[a]), (seed, a, b)


def test_upward_search_lists_each_element_once_one_level_above_its_first_descent_parent():
    for n in range(1, 6):
        for seed in all_windows(n):
            levels = list(weak_order._levels(seed))
            elements = [z for level in levels for z in level]
            assert len(elements) == len(set(elements)), seed
            assert levels[0] == [identity(n)], seed
            for k, level in enumerate(levels[1:], start=1):
                below = set(levels[k - 1])
                for z in level:
                    assert length(z) == k, (seed, z)
                    assert _right_move(z, _first_descent(z)) in below, (seed, z)


def test_upper_ideal_polynomial_is_the_reversed_lower_one_through_w0():
    # w -> w0 * w reverses the left order, so P_U(w) is P_L(w0 * w) reversed
    for n in (2, 3, 4):
        w0 = longest_element(n)
        for w in all_windows(n):
            upper = rank_polynomial(upper_ideal_left(w))
            assert upper == rank_polynomial(lower_ideal_left(compose(w0, w))).reversed(), w


def test_interval_right_named_values():
    assert interval_right(identity(3)) == {identity(3)}
    assert len(interval_right(longest_element(2))) == 8
    assert interval_right((-1, 2)) == {identity(2), (-1, 2)}


def test_interval_right_matches_right_order_filter():
    for n in (1, 2, 3, 4):
        ws = list(all_windows(n))
        for u in ws:
            expected = frozenset(x for x in ws if right_leq(x, u))
            assert interval_right(u) == expected, u


def test_ideal_sizes_and_degrees():
    for w in all_windows(3):
        ideal = lower_ideal_left(w)
        assert len(ideal) <= 48
        poly = rank_polynomial(ideal)
        assert poly.degree == length(w)
        assert sum(poly.to_list()) == len(ideal)


# ------------------------------------------------------------- rank polynomials


def test_rank_polynomial_named_values():
    assert rank_polynomial(lower_ideal_left((-2, 3, 4, 5, 1))) == Poly(
        (1, 2, 2, 2, 1, 1)
    )
    assert rank_polynomial(lower_ideal_left((2, 3, 4, 5, -1))) == Poly(
        (1, 1, 1, 1, 1, 1)
    )
    assert rank_polynomial(lower_ideal_left(identity(4))) == Poly.one()
    assert rank_polynomial(lower_ideal_left(longest_element(2))) == Poly(
        (1, 2, 2, 2, 1)
    )


def test_upper_ideal_polynomial_graded_from_its_bottom():
    w0 = longest_element(2)
    assert rank_polynomial(upper_ideal_left(w0)) == Poly.one()
    assert rank_polynomial(upper_ideal_left(identity(2))) == Poly((1, 2, 2, 2, 1))


def test_rank_polynomial_matches_element_lengths():
    # the literal grading: every element's length, shifted to the bottom,
    # the identity for a lower ideal and w for an upper one
    def from_lengths(ideal, base):
        return from_counts([length(u) - base for u in ideal])

    cases = [w for n in range(1, 5) for w in all_windows(n)]
    cases += [longest_element(5), longest_element(6)]
    for w in cases:
        for build, base in ((lower_ideal_left, 0), (upper_ideal_left, length(w)),
                            (interval_right, 0)):
            ideal = build(w)
            assert rank_polynomial(ideal) == from_lengths(ideal, base), (build.__name__, w)


def test_ideal_polynomial_matches_materialized_ideals():
    cases = [w for n in range(1, 5) for w in all_windows(n)]
    cases += [longest_element(5), longest_element(6)]
    for w in cases:
        for build, poly in _ORACLES:
            assert poly(w) == rank_polynomial(build(w)), (build.__name__, w)


def test_ideal_polynomial_budget_and_kinds(monkeypatch):
    monkeypatch.setattr(weak_order, "MAX_IDEAL_ELEMENTS", 47)
    for kind in ("lower-left", "lower-right"):
        with pytest.raises(ValueError, match="element limit 47: 48 elements reached"):
            ideal_polynomial(kind, longest_element(3))
    for kind in ("upper-right", "upper-left"):
        with pytest.raises(ValueError, match=f"unknown ideal kind '{kind}'"):
            ideal_polynomial(kind, identity(3))


def test_ideal_element_budget(monkeypatch):
    # B_3 has 48 elements in length levels 1, 3, 5, 7, 8, 8, 7, 5, 3, 1
    monkeypatch.setattr(weak_order, "MAX_IDEAL_ELEMENTS", 48)
    assert len(lower_ideal_left(longest_element(3))) == 48
    monkeypatch.setattr(weak_order, "MAX_IDEAL_ELEMENTS", 47)
    for ideal, w in ((lower_ideal_left, longest_element(3)),
                     (upper_ideal_left, identity(3)),
                     (interval_right, longest_element(3))):
        with pytest.raises(ValueError, match="element limit 47: 48 elements reached"):
            ideal(w)
    monkeypatch.setattr(weak_order, "MAX_IDEAL_ELEMENTS", 10)
    with pytest.raises(ValueError, match="element limit 10: 16 elements reached"):
        lower_ideal_left(longest_element(3))
    assert len(upper_ideal_left(longest_element(3))) == 1
    # The search counts up from the identity: the ideal below
    # (-2, 3, 4, 5, 1) has levels 1, 2, 2, 2, 1, 1 from its bottom, so the
    # running total passes 4 at 5 (from the top it would pass at 6).
    monkeypatch.setattr(weak_order, "MAX_IDEAL_ELEMENTS", 4)
    for build in (lower_ideal_left, lambda w: ideal_polynomial("lower-left", w)):
        with pytest.raises(ValueError, match="element limit 4: 5 elements reached"):
            build((-2, 3, 4, 5, 1))


def test_reduced_word_count_element_budget(monkeypatch):
    # the count walks the levels of interval_right(w): 1, 3, 5, 7, ... for w0
    w0 = longest_element(3)
    monkeypatch.setattr(weak_order, "MAX_IDEAL_ELEMENTS", 48)
    assert reduced_word_count(w0) == 42
    monkeypatch.setattr(weak_order, "MAX_IDEAL_ELEMENTS", 47)
    with pytest.raises(ValueError, match="element limit 47: 48 elements reached"):
        reduced_word_count(w0)
    monkeypatch.setattr(weak_order, "MAX_IDEAL_ELEMENTS", 10)
    with pytest.raises(ValueError, match="element limit 10: 16 elements reached"):
        reduced_word_count(w0)
    assert reduced_word_count((1, -3, 2)) == 1  # 1, 1, 1, 1, 1 elements


def test_rank_polynomial_reversal_under_inverse_translation():
    # x -> x * u^-1 maps the ideal below u onto the ideal below u^-1,
    # reversing ranks
    for u in all_windows(4):
        f = rank_polynomial(lower_ideal_left(u))
        g = rank_polynomial(lower_ideal_left(inverse(u)))
        assert f.reversed() == g


# --------------------------------------------------------------- reduced words


def brute_force_word_count(w):
    n, l = len(w), length(w)
    count = 0
    for word in product(range(n), repeat=l):
        if product_word(n, word) == w:
            count += 1
    return count


def square_tableaux_count(n):
    """Standard Young tableaux of n x n shape, by the hook-length formula."""
    hooks = prod(i + j - 1 for i in range(1, n + 1) for j in range(1, n + 1))
    return factorial(n * n) // hooks


def test_reduced_words_named_values():
    assert reduced_word_count(identity(4)) == 1
    assert list(iter_reduced_words(identity(4))) == [()]
    # w0 of rank n has as many reduced words as n x n standard tableaux.
    for n in (2, 3, 4, 5):
        assert reduced_word_count(longest_element(n)) == square_tableaux_count(n)
    assert square_tableaux_count(3) == 42
    for n in (3, 4, 5):
        w = identity(n)[: n - 2] + (-n, n - 1)
        assert reduced_word_count(w) == 1


def test_reduced_word_count_keeps_nothing_between_calls():
    def held():
        return {
            name: len(value) for name, value in vars(weak_order).items()
            if not name.startswith("__") and isinstance(value, (dict, set, list))
        }

    assert not hasattr(reduced_word_count, "cache_info")
    before = held()
    assert reduced_word_count(longest_element(4)) == 24024
    assert held() == before


def test_reduced_words_against_brute_force():
    for w in all_windows(2):
        assert reduced_word_count(w) == brute_force_word_count(w)
    rng = random.Random(99)
    pool = [w for w in all_windows(3) if length(w) <= 6]
    for w in rng.sample(pool, 10):
        assert reduced_word_count(w) == brute_force_word_count(w)


def test_reduced_word_count_matches_left_descent_paths():
    # the literal count: paths down from w through left lower covers
    def left_paths(w):
        level = Counter({w: 1})
        for _ in range(length(w)):
            below = Counter()
            for x, paths in level.items():
                for c in lower_covers_left(x):
                    below[c] += paths
            level = below
        return level[identity(len(w))]

    for n in (1, 2, 3, 4):
        for w in all_windows(n):
            assert reduced_word_count(w) == left_paths(w), w


def test_iter_reduced_words_products_and_count():
    rng = random.Random(7)
    pool = sorted(all_windows(3))
    for w in rng.sample(pool, 12):
        words = list(iter_reduced_words(w))
        assert len(words) == reduced_word_count(w)
        assert len(set(words)) == len(words)
        assert words == sorted(words)
        for word in words:
            assert len(word) == length(w)
            assert product_word(3, word) == w


def test_product_word_rejects_out_of_range_generators():
    # product_word(3, (7,)) used to return the identity
    for word, bad in (((7,), 7), ((0, 3), 3), ((1, -1), -1)):
        with pytest.raises(ValueError, match=f"generator index {bad} out of range"):
            product_word(3, word)
    assert product_word(3, (2, 1, 0)) == compose(
        compose(simple_reflection(3, 2), simple_reflection(3, 1)), simple_reflection(3, 0))


# ------------------------------------------------------------- public boundary


@pytest.mark.parametrize("call, bad", [
    (lambda: left_leq((1, 1), (1, 2)), "(1, 1)"),
    (lambda: right_leq((1, 2), (2, 2)), "(2, 2)"),
    (lambda: lower_covers_left((2, 2)), "(2, 2)"),
    (lambda: reduced_word_count((2, 2)), "(2, 2)"),
    (lambda: list(iter_reduced_words((2, 2))), "(2, 2)"),
    (lambda: parabolic_factor((2, 2), (1,)), "(2, 2)"),
    (lambda: is_splitting([(1, 1), (2, 2)], [(1, 2)], 2), "(1, 1)"),
    (lambda: quotient_of_interval((1, 1)), "(1, 1)"),
    (lambda: inversion_roots((1, 1)), "(1, 1)"),
    (lambda: validate_window((True, 2)), "(True, 2)"),
    (lambda: ideal_polynomial("lower-left", (1, 1)), "(1, 1)"),
], ids=["left_leq", "right_leq", "lower_covers_left", "reduced_word_count",
        "iter_reduced_words", "parabolic_factor", "is_splitting", "quotient_of_interval",
        "inversion_roots", "bool_entry", "ideal_polynomial"])
def test_public_window_arguments_are_validated(call, bad):
    # each used to answer silently (or raise KeyError), some naming a
    # window derived from the input rather than the input
    with pytest.raises(ValueError, match=re.escape(f"not a signed permutation window: {bad}")):
        call()
