"""
The two weak orders on signed permutations, their principal ideals, rank
generating polynomials, and reduced word counting.

u <= w on the left exactly when the inversion mask of u is inside that
of w; the right order is the left order of the inverses.  Ideals are
searched one length level at a time up the right order from the
identity, whose upper covers are read off the window: w * s_0 > w when
w_1 > 0 (negate it), w * s_i > w when w_i < w_{i+1} (swap the places).
Each adds one root to the inversion set of w^-1, so the search keeps a
move when that root is one of the apex's, and builds each element once,
from the parent its first right descent leads down to.  A lower left
ideal is the right ideal of w^-1 inverted and, as w0 = -1 is central
and x -> -x reverses the left order, an upper left ideal is the lower
left ideal of -w negated.  The materialized ideals are frozensets of
windows, kept as test oracles: `rank_polynomial` counts the lengths of
an ideal's elements from its shortest, and `ideal_polynomial` counts
the levels of its search and builds no ideal.  Every ideal is capped at
MAX_IDEAL_ELEMENTS elements.

`lower_covers_left` and `iter_reduced_words` act on values through
`left_mul_simple`, which is compose with s_i: the literal definition the
fast walks are tested against.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .polynomials import Poly, from_counts
from .signed_perm import (
    Window,
    identity,
    inverse,
    inversion_mask,
    left_descents,
    left_mul_simple,
    length,
    validate_window,
)

#: The most elements one ideal may hold: |W_7|, the whole rank-7 group.
#: An ideal that outgrows it raises ValueError before memory runs away
#: (the whole rank-8 group is 10,321,920 elements, several gigabytes).
MAX_IDEAL_ELEMENTS = 645_120


def left_leq(u: Window, w: Window) -> bool:
    """Left order: the inversion set of u sits inside that of w."""
    u, w = validate_window(u), validate_window(w)
    if len(u) != len(w):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(w)}")
    return not inversion_mask(u) & ~inversion_mask(w)


def right_leq(u: Window, w: Window) -> bool:
    """Right order: the left order applied to the inverses."""
    return left_leq(inverse(validate_window(u)), inverse(validate_window(w)))


def lower_covers_left(w: Window) -> frozenset[Window]:
    """The elements s_i * w one step below w in the left order."""
    w = validate_window(w)
    return frozenset(left_mul_simple(i, w) for i in left_descents(w))


def _check_limit(total: int) -> None:
    """Raise ValueError once a search has reached more than MAX_IDEAL_ELEMENTS elements."""
    if total > MAX_IDEAL_ELEMENTS:
        raise ValueError(
            f"ideal exceeds the element limit {MAX_IDEAL_ELEMENTS}: {total} elements reached"
        )


def _place_swaps(n: int) -> list[Callable[[Window], Window] | None]:
    """swaps[i](x) = x * s_i for 0 < i < n, x with places i and i+1 swapped; swaps[0] is None."""
    swaps: list[Callable[[Window], Window] | None] = [None]
    for i in range(1, n):
        places = list(range(n))
        places[i - 1], places[i] = i, i - 1
        swaps.append(itemgetter(*places))
    return swaps


def _levels(seed: Window) -> Iterator[tuple[list[Window], array]]:
    """
    Everything below seed in the right order, one length level at a time
    from the identity up, each level with its parent links: links[pos] is
    parent_pos * n + i for the element z = parent * s_i at pos, i being
    the first right descent of z (the identity has no link), so z is built
    once, from that parent alone.  x * s_i is above x when it swaps
    neighbouring entries a < b (for i = 0, the entries -x_1 < x_1 at
    places -1 and 1 of the signed window), and it adds one root to the
    inversion set of x^-1, that of the values a, b.  x * s_i <= seed
    exactly when x <= seed and that root is one of seed^-1's, that is,
    when seed puts b before a.  Raises ValueError once the levels hold
    more than MAX_IDEAL_ELEMENTS.
    """
    n = len(seed)
    place = [0] * (2 * n + 1)  # the signed place of each value in seed
    for p, a in enumerate(seed, start=1):
        place[a], place[-a] = p, -p
    swaps = _place_swaps(n)
    level = [identity(n)]
    firsts: Iterable[int] = [n]  # the identity descends nowhere
    links = array("i")
    total = 0
    while level:
        total += len(level)
        _check_limit(total)
        yield level, links
        up: list[Window] = []
        links = array("i")
        for pos, (x, f) in enumerate(zip(level, firsts)):
            # x first descends at f, so z = x * s_i first descends at i
            # (and is built here) for i = 0 and 0 < i < f, and for i = f + 1
            # when z does not descend at f; for any other i, at f.
            base = pos * n
            a = x[0]
            if a > 0 and place[a] < place[-a]:
                up.append((-a,) + x[1:])
                links.append(base)
            for i in range(1, f):
                a, b = x[i - 1], x[i]
                if a < b and place[b] < place[a]:
                    up.append(swaps[i](x))
                    links.append(base + i)
            if f < n - 1:
                a, b = x[f], x[f + 1]
                if a < b and place[b] < place[a] and (x[f - 1] if f else 0) < b:
                    up.append(swaps[f + 1](x))
                    links.append(base + f + 1)
        level = up
        firsts = map(n.__rmod__, links)  # link % n


def lower_ideal_left(w: Window) -> frozenset[Window]:
    """
    All u <= w in the left order: u^-1 <= w^-1 in the right order, so
    they are the inverses of the right ideal of w^-1.
    """
    levels = _levels(inverse(validate_window(w)))
    return frozenset(inverse(x) for level, _ in levels for x in level)


def upper_ideal_left(w: Window) -> frozenset[Window]:
    """
    All u >= w in the left order: x -> w0 * x = -x reverses the order, so
    they are the negated elements of the lower left ideal of -w, the
    inverses of the right ideal of (-w)^-1 = -w^-1, negated.
    """
    levels = _levels(tuple(-x for x in inverse(validate_window(w))))
    return frozenset(tuple(-y for y in inverse(x)) for level, _ in levels for x in level)


def interval_right(u: Window) -> frozenset[Window]:
    """All x <= u in the right order, by upward search from the identity."""
    return frozenset(x for level, _ in _levels(validate_window(u)) for x in level)


def rank_polynomial(ideal: frozenset[Window]) -> Poly:
    """
    The rank generating polynomial of an ideal, graded by length from its
    shortest element (the identity for a lower ideal, the generating
    element for an upper one), counted from element lengths.
    """
    lengths = [length(w) for w in ideal]
    base = min(lengths)
    return from_counts([k - base for k in lengths])


def ideal_polynomial(kind: str, w: Window) -> Poly:
    """
    rank_polynomial of the ideal of the given kind ("lower-left" or
    "lower-right") at w, counted from the levels of its search alone,
    with two levels alive at once and the same limit.  The upper left
    ideal of w is the lower left ideal of -w negated, so its polynomial
    is ideal_polynomial("lower-left", -w).reversed().

    >>> ideal_polynomial("lower-left", (-1, -2)).to_list()
    [1, 2, 2, 2, 1]
    """
    if kind not in ("lower-left", "lower-right"):
        raise ValueError(f"unknown ideal kind {kind!r}; "
                         "expected one of ['lower-left', 'lower-right']")
    seed = validate_window(w)
    if kind == "lower-left":  # the right ideal of w^-1, inverted
        seed = inverse(seed)
    return Poly([len(level) for level, _ in _levels(seed)])


def reduced_word_count(w: Window) -> int:
    """
    The number of reduced words for w, as paths down from w through lower
    covers in the right order (x -> x * s_i), counted one level at a time.
    The levels are those of the right ideal below w, under the same limit.

    >>> reduced_word_count((-1, -2))
    2
    """
    w = validate_window(w)
    places = range(1, len(w))
    swaps = _place_swaps(len(w))
    level = {w: 1}
    total = 1
    for _ in range(length(w)):
        below: dict[Window, int] = {}
        for x, paths in level.items():
            for i in places:
                if x[i - 1] > x[i]:
                    y = swaps[i](x)
                    below[y] = below.get(y, 0) + paths
            if x[0] < 0:
                y = (-x[0],) + x[1:]
                below[y] = below.get(y, 0) + paths
        level = below
        total += len(level)
        _check_limit(total)
    return level[identity(len(w))]


def iter_reduced_words(w: Window) -> Iterator[tuple[int, ...]]:
    """Yield every reduced word of w, in lexicographic order."""
    return _reduced_words(validate_window(w))


def _reduced_words(w: Window) -> Iterator[tuple[int, ...]]:
    descents = left_descents(w)
    if not descents:
        yield ()
        return
    for i in descents:
        for word in _reduced_words(left_mul_simple(i, w)):
            yield (i,) + word


def product_word(n: int, word: tuple[int, ...]) -> Window:
    """
    Multiply out a word of generator indices in rank n.  Raises ValueError
    on an index outside 0..n-1 (through `left_mul_simple`).
    """
    out = identity(n)
    for i in reversed(word):
        out = left_mul_simple(i, out)
    return out
