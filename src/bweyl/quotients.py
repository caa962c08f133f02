"""
Generalized quotients and splitting verification.

The generalized quotient of a set U is the set of w with w * u
length-additive for every u in U: the inversion mask of w misses the OR
of the masks of the u^-1.  For U the right interval below u it is the
left interval below w0 * u^-1.  (X, Y) splits the group when
multiplication X x Y -> group is length-additive and bijective; the
theorem sweep compares "(quotient, interval) splits" with separability.

The sweep indexes the group as ints, with one ascent table per
generator (`_GroupTables`); its ideal DP and its walk both push upward
in table order; the factors of u and -u are one pair of ideals at
mirrored indices, walked once in a single run of the DP.  One product
pass on window tuples (`_products`) serves the element's check
(`splits_with_interval`) and the factorization lemma in `theorems`: it
multiplies the signed tables of the smaller factor's elements by each
element of the larger one with one itemgetter, and the length sums read
off the searches' level sizes settle additivity.  `is_splitting` is the
public literal check: it checks every pair in `_splitting_report`.
"""

from __future__ import annotations

import re
from array import array
from functools import lru_cache, reduce
from itertools import chain
from operator import itemgetter, or_
from typing import Iterable, Iterator, Sequence

from .patterns import _separable
from .reports import LemmaReport, SplittingReport, lemma_report, require_rank
from .signed_perm import (
    Window,
    _iterate,
    all_windows,
    compose,
    format_window,
    group_order,
    inverse,
    inversion_mask,
    is_window,
    longest_element,
    validate_window,
)
from . import weak_order
from .weak_order import _levels, _place_swaps, _places


@lru_cache(maxsize=2)
def _group_masks(n: int) -> dict[Window, int]:
    """Every rank-n window with its inversion mask."""
    return {w: inversion_mask(w) for w in all_windows(n)}


def _require_enumerable(n: int) -> None:
    """ValueError when the rank-n group has more than MAX_IDEAL_ELEMENTS elements."""
    order = group_order(n)
    if order > weak_order.MAX_IDEAL_ELEMENTS:
        raise ValueError(f"rank-{n} group exceeds the element limit "
                         f"{weak_order.MAX_IDEAL_ELEMENTS}: {order} elements")


def generalized_quotient(U: Iterable[Window], n: int) -> frozenset[Window]:
    """
    The exact filter {w : length(w u) = length(w) + length(u) for all u in U}:
    w is kept when its inversion mask misses the OR of the masks of u^-1.
    ValueError when the rank-n group outgrows the ideal limit.
    """
    members = {u if type(u) is tuple else validate_window(u) for u in _iterate(U, "U")}
    if not members:
        raise ValueError("generalized quotient of an empty set is degenerate")
    _require_enumerable(n)
    masks = _group_masks(n)
    # A tuple is a window when it is a key with int entries (True == 1.0 == 1).
    if not masks.keys() >= members or {int} != set(map(type, chain.from_iterable(members))):
        strays = [u for u in members if u not in masks or not is_window(u)]
        raise ValueError(f"not rank-{n} windows: {sorted(strays, key=repr)!r}")
    blocked = reduce(or_, (masks[inverse(u)] for u in members))
    return frozenset(w for w, mask in masks.items() if not mask & blocked)


def quotient_of_interval(u: Window) -> frozenset[Window]:
    """The generalized quotient of the right interval below u: L(w0 * u^-1)."""
    # the inverses of the right ideal below (w0 * u^-1)^-1 = -u
    levels = _levels(tuple(-x for x in validate_window(u)))
    return frozenset(inverse(x) for level in levels for x in level)


def quotient_interval_identity(u: Window) -> bool:
    """
    Check on one element that the exact quotient filter of the right
    interval below u equals the left interval below w0 * u^-1.
    """
    U = [x for level in _levels(validate_window(u)) for x in level]
    return generalized_quotient(U, len(u)) == quotient_of_interval(u)


def _splitting_report(
    X: Sequence[Window],
    Y: Sequence[Window],
    universe: frozenset[Window] | None,
    universe_size: int,
) -> SplittingReport:
    """
    Check the pairs in sorted order: x * y is length-additive exactly when
    the inversion masks of x and y^-1 are disjoint, then it must land in
    the universe and be new.  The first failure is the witness.
    """
    counts = (len(X), len(Y), universe_size)
    if len(X) * len(Y) != universe_size:
        return SplittingReport(False, False, counts)
    ys = [(y, inversion_mask(inverse(y))) for y in sorted(Y)]
    seen: dict[Window, tuple[Window, Window]] = {}
    for x in sorted(X):
        mx = inversion_mask(x)
        for y, my in ys:
            if mx & my:
                return SplittingReport(False, True, counts, ("length-deficit", x, y))
            xy = compose(x, y)
            if universe is not None and xy not in universe:
                return SplittingReport(False, True, counts, ("escapes-subgroup", x, y))
            prior = seen.get(xy)
            if prior is not None:
                return SplittingReport(False, True, counts, ("collision", *prior, x, y))
            seen[xy] = (x, y)
    return SplittingReport(True, True, counts)


def is_splitting(
    X: Iterable[Window], Y: Iterable[Window], n: int
) -> SplittingReport:
    """
    Whether multiplication X x Y -> rank-n group is length-additive and
    bijective.  Fails fast on the cardinality check #X * #Y = 2^n n!.
    ValueError on a bad rank, a non-window, or a window not of rank n.
    """
    order = group_order(n)
    Xs, Ys = (sorted({validate_window(w) for w in _iterate(ws, name)})
              for ws, name in ((X, "X"), (Y, "Y")))
    for w in Xs + Ys:
        if len(w) != n:
            raise ValueError(f"rank mismatch: {format_window(w)} in rank-{n} group")
    return _splitting_report(Xs, Ys, None, order)


def _products(tables: list[list[int]], windows: Iterable[Window]) -> set[Window]:
    """
    The distinct products l * r for l in tables (entry v is l(v)) and r in
    windows: l * r is itemgetter(*r)(l).  No getter is kept.
    """
    products: set[Window] = set()
    for r in windows:
        products.update(map(itemgetter(*r), tables))
    return products


def _length_sum(sizes: Iterable[int]) -> int:
    """The sum of the lengths of a search's elements, from its level sizes."""
    return sum(k * size for k, size in enumerate(sizes))


def _product_pass(small: list[list[Window]], large: list[list[Window]]) -> bool:
    """
    Whether the products a^-1 * t, for a in the levels of one right-order
    search (by its place list) and t in those of another, are the group,
    each length-additive.  With #small * #large = #W they are the group
    when there are #W of them; then, as length(xy) <= length(x) +
    length(y), all are additive exactly when the length sums, read off
    the level sizes, add up to the group's, n^2 * #W / 2.
    """
    tables = [_places(a) for a in chain.from_iterable(small)]
    n = len(tables[0]) // 2  # a place list has 2n + 1 entries
    order = group_order(n)
    products = _products(tables, chain.from_iterable(large))
    s, t = list(map(len, small)), list(map(len, large))
    return (len(products) == order
            and sum(t) * _length_sum(s) + sum(s) * _length_sum(t) == order * n * n // 2)


def splits_with_interval(u: Window) -> SplittingReport:
    """
    The splitting check for (X, Y) = (quotient of interval, interval), on
    two right-order searches: Y is the right ideal below u and X^-1 the
    one below u * w0 = -u.  The product pass builds tables for the smaller
    factor and streams the larger, so its products are the x * y (X
    smaller) or the y^-1 * x^-1 = (x * y)^-1 (Y smaller), which keep
    lengths and distinctness.  A failed pass reruns the literal check for
    its witness.
    """
    u = validate_window(u)
    order = group_order(len(u))
    y = list(_levels(u))
    x_inv = list(_levels(tuple(-v for v in u)))
    counts = (sum(map(len, x_inv)), sum(map(len, y)), order)
    if counts[0] * counts[1] != order:
        return SplittingReport(False, False, counts)
    _require_enumerable(len(u))
    if _product_pass(*((x_inv, y) if counts[0] <= counts[1] else (y, x_inv))):
        return SplittingReport(True, True, counts)
    X = sorted(inverse(v) for v in chain.from_iterable(x_inv))
    return _splitting_report(X, sorted(chain.from_iterable(y)), None, order)


class _GroupTables:
    """
    The rank-n group indexed as ints, elements sorted by (length, window).
    up[i][k] is the index of s_i * w_k when that is longer and the
    sentinel `order` otherwise, and maps the sentinel to itself, so a walk
    off the cover relation stays there.  inv[k] is the index of w_k^-1, so
    the left tables serve the right order too.  s_i * w is the inverse of
    w^-1 * s_i, so the tables are read off the inverse windows by the
    moves of `_place_swaps`.  The order is that of the levels below w0,
    each sorted.  Negation maps length l to n^2 - l and reverses the
    window order within a length, so -w_k is w_{order-1-k}.
    """

    def __init__(self, n: int) -> None:
        self.windows = [x for level in _levels(longest_element(n)) for x in sorted(level)]
        inverses = [inverse(w) for w in self.windows]
        index = {v: k for k, v in enumerate(inverses)}  # w_k^-1 -> k
        self.order = len(self.windows)
        self.inv = array("i", map(index.__getitem__, self.windows))
        sentinel = self.order
        self.up = []
        for swap in _place_swaps(n):
            # A cover is one length away, so in length order it is longer
            # exactly when its index is larger.
            images = map(index.__getitem__, map(swap, inverses))
            up = array("i", [j if j > k else sentinel for k, j in enumerate(images)])
            up.append(sentinel)
            self.up.append(up)

    def splits(self, X: list[int], Y_inv: list[int]) -> bool:
        """
        Whether (X, Y) splits the group, with X a lower left ideal and Y a
        lower right interval, read as Y^-1: ascending index lists, so by
        length, identity first.  The smaller factor is walked as a tree,
        upward in table order: the row of z (its products with the other
        factor) goes to each upper cover s_i * z in the tree not yet
        reached, moved by up[i] as s_i * (z * y), and is dropped once read.
        The tables send a product that is not additive to the sentinel, so
        with #X * #Y = #W the products cover the group when none is the
        sentinel or collides.
        """
        if len(X) * len(Y_inv) != self.order:
            return False
        inv = self.inv
        if len(X) <= len(Y_inv):
            tree, row = X, list(map(inv.__getitem__, Y_inv))
        else:
            tree, row = Y_inv, list(map(inv.__getitem__, X))
        unreached = set(tree[1:])
        rows = {tree[0]: row}
        seen = set(row)
        # A row is pushed only on a tree of two or more, and a row is never
        # shorter than the tree, so itemgetter returns a tuple.
        for z in tree:
            row = rows.pop(z)
            for up in self.up:
                c = up[z]
                if c in unreached:
                    unreached.remove(c)
                    rows[c] = moved = itemgetter(*row)(up)
                    seen.update(moved)
        seen.discard(self.order)
        return len(seen) == self.order


def _lower_ideals(tables: _GroupTables) -> Iterator[int]:
    """
    The principal lower left ideal of every w_k in table order, as an int
    bitset (bit j for w_j), in one pass upward: the ideal of w_k is bit k
    OR'd with what its lower covers pushed to it, and is pushed in turn to
    its upper covers.  Only the pushes to the elements not yet reached are
    held.
    """
    order = tables.order
    above: dict[int, int] = {}
    for k in range(order):
        bits = above.pop(k, 0) | 1 << k
        yield bits
        for up in tables.up:
            c = up[k]
            if c != order:
                above[c] = above.get(c, 0) | bits


def _members(bits: int) -> list[int]:
    """The set bits of bits in ascending order, found by one scan of its binary digits."""
    return [m.start() for m in re.finditer("1", bin(bits)[:1:-1])]


def _theorem_cases(n: int) -> list[tuple[Window, bool, bool]]:
    """
    (u, is_separable(u), whether (quotient, interval) splits) for every u
    of rank n, sorted by u, from one run of the ideal DP.  For u = w_k the
    factors Y^-1 = L(u^-1) and X = L(w0 u^-1) are the ideals at j = inv[k]
    and at its mirror order-1-j; those of -u are the same two swapped, with
    product map (x, y) -> (xy)^-1, so u and -u split together.  Each pair
    with #X * #Y = #W is walked once, at its upper index, and a lower ideal
    is held till then only if its size divides #W
    (`test_theorem_sweep_walks_each_mirrored_pair_once`).
    """
    tables = _GroupTables(n)
    inv, order = tables.inv, tables.order
    held: dict[int, int] = {}
    splits = [False] * order
    for j, bits in enumerate(_lower_ideals(tables)):
        if j < order // 2:
            if order % bits.bit_count() == 0:
                held[j] = bits
            continue
        lower = held.pop(order - 1 - j, 0)
        if (lower.bit_count() * bits.bit_count() == order
                and tables.splits(_members(lower), _members(bits))):
            splits[inv[j]] = splits[order - 1 - inv[j]] = True
    return sorted(zip(tables.windows, map(_separable, tables.windows), splits))


def verify_main_theorem(n: int) -> LemmaReport:
    """
    Sweep every u of rank n and compare: the pair (generalized quotient of
    the right interval below u, that interval) splits the group exactly
    when u is separable.  Reports counts on success and the offending
    elements on failure.
    """
    require_rank("theorem", n)
    results = _theorem_cases(n)
    separable = sum(sep for _, sep, _ in results)
    return lemma_report("splitting-theorem", n, [
        None if sep == splits else {"window": u, "separable": sep, "splits": splits}
        for u, sep, splits in results
    ], {"separable": separable, "non_separable": len(results) - separable})
