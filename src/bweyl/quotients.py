"""
Generalized quotients and splitting verification.

For a set U of signed permutations, the generalized quotient is the set
of w whose products wu are length-additive against every u in U, that is
whose inversion mask misses the OR of the masks of the u^-1.  When U
is the principal right interval below u, the quotient is itself a
principal left interval generated by w0 * u^-1, which is how the checks
here compute it.  A pair (X, Y) splits the group when multiplication
X x Y -> group is length-additive and bijective; the main verification
sweeps every u and compares "([quotient], interval) splits" against
separability of u.

The sweep runs on the whole group indexed as ints (`_GroupTables`): ideal
sizes come from one bitset pass in length order, and products from table
lookups.  The tuple functions answer one element at a time and serve as
the reference the table path is tested against.
"""

from __future__ import annotations

from array import array
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable, Sequence

from .patterns import _separable, parabolic_factor
from .reports import LemmaReport, SplittingReport, lemma_report, require_rank
from .signed_perm import (
    Window,
    all_windows,
    compose,
    format_window,
    group_order,
    identity,
    inverse,
    inversion_mask,
    left_mul_simple,
    length,
    longest_element,
    validate_window,
)
from .weak_order import interval_right, lower_ideal_left


@lru_cache(maxsize=2)
def _group_masks(n: int) -> dict[Window, int]:
    """Every rank-n window with its inversion mask."""
    return {w: inversion_mask(w) for w in all_windows(n)}


def generalized_quotient(U: Iterable[Window], n: int) -> frozenset[Window]:
    """
    The exact filter {w : length(w u) = length(w) + length(u) for all u in U}:
    w is kept when its inversion mask misses the OR of the masks of u^-1.
    """
    members = set(U)
    if not members:
        raise ValueError("generalized quotient of an empty set is degenerate")
    masks = _group_masks(n)
    strays = members - masks.keys()
    if strays:
        raise ValueError(f"not rank-{n} windows: {sorted(strays, key=repr)!r}")
    blocked = reduce(or_, (masks[inverse(u)] for u in members))
    return frozenset(w for w, mask in masks.items() if not mask & blocked)


def quotient_of_interval(u: Window) -> frozenset[Window]:
    """
    The generalized quotient of the right interval below u, computed as
    the left interval below w0 * u^-1.
    """
    u = validate_window(u)
    w0 = longest_element(len(u))
    return lower_ideal_left(compose(w0, inverse(u))).elements


def quotient_interval_identity(u: Window) -> bool:
    """
    Check on one element that the exact quotient filter of the right
    interval below u equals the left interval below w0 * u^-1.
    """
    U = interval_right(u).elements
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


def _sorted_factors(
    X: Iterable[Window], Y: Iterable[Window], n: int | None = None
) -> tuple[list[Window], list[Window]]:
    """
    The distinct elements of X and of Y, each sorted.  ValueError on a
    non-window, or on a window whose rank is not n (by default the rank of
    the first window, X before Y).
    """
    Xs, Ys = (sorted({validate_window(w) for w in ws}) for ws in (X, Y))
    for w in Xs + Ys:
        if n is None:
            n = len(w)
        if len(w) != n:
            raise ValueError(f"rank mismatch: {format_window(w)} in rank-{n} group")
    return Xs, Ys


def is_splitting(
    X: Iterable[Window], Y: Iterable[Window], n: int
) -> SplittingReport:
    """
    Whether multiplication X x Y -> rank-n group is length-additive and
    bijective.  Fails fast on the cardinality check #X * #Y = 2^n n!.
    """
    Xs, Ys = _sorted_factors(X, Y, n)
    return _splitting_report(Xs, Ys, None, group_order(n))


def _greatest(Zs: Iterable[Window]) -> Window | None:
    """
    The greatest element of Zs in the left order, or None: the left order
    is containment of inversion sets, so it is the element whose mask is
    the union of all of theirs, if there is one.
    """
    by_mask = {inversion_mask(z): z for z in Zs}
    return by_mask.get(reduce(or_, by_mask, 0))


def splitting_transport(
    X: Iterable[Window], Y: Iterable[Window]
) -> tuple[frozenset[Window], frozenset[Window]]:
    """
    Produce a new splitting from one: with x0 the greatest element of X in
    the left order, map X to X * x0^-1 and Y to x0 * Y * w0.  Raises if X
    has no greatest element, or Y none in the right order, or if the two
    fail x0 * y0 = w0 (any of these means the input was not a splitting).
    """
    Xs, Ys = _sorted_factors(X, Y)
    if not Xs or not Ys:
        raise ValueError("transport of an empty factor is degenerate")
    n = len(Xs[0])
    x0 = _greatest(Xs)
    if x0 is None:
        raise ValueError("no unique left-maximal element; not a splitting")
    w0 = longest_element(n)
    y0_inv = _greatest(map(inverse, Ys))  # right order: left order of inverses
    if y0_inv is None or compose(x0, inverse(y0_inv)) != w0:
        raise ValueError("maximal elements do not multiply to w0; not a splitting")
    x0_inv = inverse(x0)
    new_x = frozenset(compose(z, x0_inv) for z in Xs)
    new_y = frozenset(compose(x0, compose(z, w0)) for z in Ys)
    return new_x, new_y


def parabolic_subgroup(n: int, removed: Iterable[int]) -> frozenset[Window]:
    """Elements of the parabolic subgroup: trivial quotient factor."""
    removed = tuple(sorted(set(removed)))
    e = identity(n)
    return frozenset(
        w for w in all_windows(n) if parabolic_factor(w, removed)[0] == e
    )


def minimal_coset_representatives(n: int, removed: Iterable[int]) -> frozenset[Window]:
    """Elements equal to their own quotient factor."""
    removed = tuple(sorted(set(removed)))
    return frozenset(
        w for w in all_windows(n) if parabolic_factor(w, removed)[0] == w
    )


def splitting_restriction(
    X: Iterable[Window], Y: Iterable[Window], removed: Iterable[int]
) -> SplittingReport:
    """
    Restrict a splitting to the parabolic subgroup fixed by deleting the
    generators in removed, and re-verify the splitting there (with the
    subgroup's own cardinality and its own universe of products).
    """
    Xs, Ys = _sorted_factors(X, Y)
    if not Xs:
        raise ValueError("restriction of an empty factor is degenerate")
    n = len(Xs[0])
    subgroup = parabolic_subgroup(n, removed)
    Xr = [w for w in Xs if w in subgroup]
    Yr = [w for w in Ys if w in subgroup]
    return _splitting_report(Xr, Yr, subgroup, len(subgroup))


def splits_with_interval(u: Window) -> SplittingReport:
    """The splitting check for the pair (quotient of interval, interval)."""
    U = interval_right(u).elements
    X = quotient_of_interval(u)
    return _splitting_report(sorted(X), sorted(U), None, group_order(len(u)))


class _GroupTables:
    """
    The rank-n group indexed as ints, elements sorted by (length, window).

    Left multiplication by each generator s_i is stored as two arrays,
    split by whether the product goes down or up one length: down[i][k]
    is the index of s_i * w_k when that is shorter and the sentinel
    `order` otherwise, up[i][k] the same when it is longer.  Both map the
    sentinel to itself, so a walk that leaves the cover relation stays at
    the sentinel.  inv[k] is the index of w_k^-1: the right order is the
    left order of the inverses, so the left tables serve both orders.
    """

    def __init__(self, n: int) -> None:
        keyed = sorted((length(w), w) for w in all_windows(n))
        self.windows = [w for _, w in keyed]
        self.index = {w: k for k, w in enumerate(self.windows)}
        self.order = len(self.windows)
        lengths = [l for l, _ in keyed]
        sentinel = self.order
        self.down, self.up = [], []
        for i in range(n):
            images = [self.index[left_mul_simple(i, w)] for w in self.windows]
            down = array("i", [j if lengths[j] < l else sentinel
                               for j, l in zip(images, lengths)])
            up = array("i", [sentinel if lengths[j] < l else j
                             for j, l in zip(images, lengths)])
            down.append(sentinel)
            up.append(sentinel)
            self.down.append(down)
            self.up.append(up)
        self.inv = array("i", [self.index[inverse(w)] for w in self.windows])

    def below(self, apex: int) -> list[int]:
        """
        The principal lower left ideal of apex, in increasing length,
        identity first.
        """
        sentinel = self.order
        out = [apex]
        level = {apex}
        while level:
            nxt: set[int] = set()
            for down in self.down:
                nxt.update(map(down.__getitem__, level))
            nxt.discard(sentinel)
            out.extend(nxt)
            level = nxt
        out.reverse()
        return out

    def splits(self, x_apex: int, u: int) -> bool:
        """
        Whether (X, Y) splits the group, with X the lower left ideal of
        x_apex and Y the lower right interval of u.  Y is read as Y^-1,
        the lower left ideal of u^-1.

        Every product is built from one already made by one lookup, along
        a spanning tree of the smaller factor: x * y is s_i * (x' * y)
        for x = s_i * x', and when Y^-1 is smaller the walk makes
        (x * y)^-1 = y^-1 * x^-1 instead, as s_i * (y'^-1 * x^-1) for
        y^-1 = s_i * y'^-1.  Inverting preserves length, so those products
        are additive and collide exactly when the x * y do.  The lookups
        are in the ascent tables, so a product reached without the
        sentinel has length l(x) + l(y); with #X * #Y = #W, the products
        then cover the group exactly when none is the sentinel and none
        collide.
        """
        inv = self.inv
        X = self.below(x_apex)
        Y_inv = self.below(inv[u])
        if len(X) * len(Y_inv) != self.order:
            return False
        if len(X) <= len(Y_inv):
            tree, row = X, list(map(inv.__getitem__, Y_inv))
        else:
            tree, row = Y_inv, list(map(inv.__getitem__, X))
        sentinel = self.order
        place = {z: j for j, z in enumerate(tree)}
        rows = [row]
        seen = set(row)
        for z in tree[1:]:
            i = next(i for i, down in enumerate(self.down) if down[z] != sentinel)
            row = list(map(self.up[i].__getitem__, rows[place[self.down[i][z]]]))
            seen.update(row)
            rows.append(row)
        seen.discard(sentinel)
        return len(seen) == self.order


def _lower_ideal_sizes(tables: _GroupTables) -> array:
    """
    The size of every principal lower left ideal, indexed like tables.

    One pass in length order: the ideal of w is w's own bit OR'd with the
    ideals of its lower covers, as an int bitset.  A bitset is dropped as
    soon as every upper cover of its element has used it, so only the
    ideals of a band of adjacent lengths are alive at once.
    """
    order = tables.order
    sizes = array("i", bytes(4 * order))
    pending = array("i", bytes(4 * order))
    live: dict[int, int] = {}
    for k in range(order):
        bits = 1 << k
        ascents = 0
        for down in tables.down:
            c = down[k]
            if c == order:
                ascents += 1
                continue
            bits |= live[c]
            pending[c] -= 1
            if not pending[c]:
                del live[c]
        sizes[k] = bits.bit_count()
        if ascents:
            pending[k] = ascents
            live[k] = bits
    return sizes


def _theorem_cases(n: int) -> list[tuple[Window, bool, bool]]:
    """
    (u, is_separable(u), whether (quotient, interval) splits) for every u
    of rank n, sorted by u.  #X = |L(w0 u^-1)| and #Y = |L(u^-1)|, so the
    ideal sizes settle #X * #Y != #W without building either factor; the
    remaining cases get the full product walk.
    """
    tables = _GroupTables(n)
    sizes = _lower_ideal_sizes(tables)
    index, inv = tables.index, tables.inv
    w0 = longest_element(n)
    cases = []
    for k, u in enumerate(tables.windows):
        x_apex = index[compose(w0, inverse(u))]
        splits = sizes[x_apex] * sizes[inv[k]] == tables.order and tables.splits(x_apex, k)
        cases.append((u, _separable(u), splits))
    return sorted(cases)


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
