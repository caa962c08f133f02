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
from the parent its first right descent leads down to: a level is kept
in buckets by first descent, one list comprehension for each bucket
and generator.  A lower left ideal is the right ideal of w^-1 inverted
and, as w0 = -1 is central and x -> -x reverses the left order, an
upper left ideal is the lower left ideal of -w negated.  The
materialized ideals are frozensets of windows, kept as test oracles:
`rank_polynomial` counts the lengths of an ideal's elements from its
shortest, and `ideal_polynomial` counts the levels of its search and
builds no ideal.  Every ideal is capped at MAX_IDEAL_ELEMENTS elements.

`lower_covers_left` and `iter_reduced_words` act on values through
`left_mul_simple`, which is compose with s_i: the literal definition the
fast walks are tested against.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterator

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


def _places(w: Window) -> list[int]:
    """place[w_p] = p, place[-w_p] = -p (at a negative index): the signed table of w^-1."""
    place = [0] * (2 * len(w) + 1)
    for p, a in enumerate(w, start=1):
        place[a], place[-a] = p, -p
    return place


def _place_swaps(n: int) -> list[Callable[[Window], Window]]:
    """swaps[i](x) = x * s_i: x with place 1 negated (i = 0), places i, i+1 swapped (0 < i < n)."""
    swaps: list[Callable[[Window], Window]] = [lambda x: (-x[0],) + x[1:]]
    for i in range(1, n):
        places = list(range(n))
        places[i - 1], places[i] = i, i - 1
        swaps.append(itemgetter(*places))
    return swaps


def _levels(seed: Window) -> Iterator[list[Window]]:
    """
    Everything below seed in the right order, one length level at a time
    from the identity up.  x * s_i is above x when it swaps neighbouring
    entries a < b (for i = 0, the entries -x_1 < x_1 at places -1 and 1
    of the signed window), and it adds one root to the inversion set of
    x^-1, that of the values a, b.  x * s_i <= seed exactly when x <= seed
    and that root is one of seed^-1's, that is, when seed puts b before a.
    Each z is built once, from z * s_f for f its first right descent: a
    level is kept in buckets by first descent, and x in bucket f is
    positive and increasing before f, so of its moves only the one at
    f + 1 needs a test of order.  Raises ValueError once the levels hold
    more than MAX_IDEAL_ELEMENTS.
    """
    n = len(seed)
    place = _places(seed)
    swaps = _place_swaps(n)
    buckets = {n: [identity(n)]}  # the identity descends nowhere
    total = 0
    while buckets:
        level = [x for xs in buckets.values() for x in xs]
        total += len(level)
        _check_limit(total)
        yield level
        up: list[list[Window]] = [[] for _ in range(n)]
        for f, xs in buckets.items():
            # x[:f] is positive and increasing, so each move at i < f goes
            # up and lands in bucket i.  The move at f + 1 swaps x[f] and
            # x[f + 1]: it lands in bucket f + 1 when x[f - 1] < x[f + 1]
            # (0 < x[1] when f = 0), which, as x[f - 1] > x[f] (x[0] < 0),
            # also makes it go up.  Other moves keep f: built from elsewhere.
            if f:
                up[0] += [(-x[0],) + x[1:] for x in xs if place[x[0]] < 0]
            for i in range(1, f):
                h, swap = i - 1, swaps[i]
                up[i] += [swap(x) for x in xs if place[x[i]] < place[x[h]]]
            if f < n - 1:
                i, swap = f + 1, swaps[f + 1]
                up[i] += [swap(x) for x in xs
                          if (x[f - 1] if f else 0) < x[i] and place[x[i]] < place[x[f]]]
        buckets = {i: xs for i, xs in enumerate(up) if xs}


def lower_ideal_left(w: Window) -> frozenset[Window]:
    """
    All u <= w in the left order: u^-1 <= w^-1 in the right order, so
    they are the inverses of the right ideal of w^-1.
    """
    levels = _levels(inverse(validate_window(w)))
    return frozenset(inverse(x) for level in levels for x in level)


def upper_ideal_left(w: Window) -> frozenset[Window]:
    """
    All u >= w in the left order: x -> w0 * x = -x reverses the order, so
    they are the negated elements of the lower left ideal of -w, the
    inverses of the right ideal of (-w)^-1 = -w^-1, negated.
    """
    levels = _levels(tuple(-x for x in inverse(validate_window(w))))
    return frozenset(tuple(-y for y in inverse(x)) for level in levels for x in level)


def interval_right(u: Window) -> frozenset[Window]:
    """All x <= u in the right order, by upward search from the identity."""
    return frozenset(x for level in _levels(validate_window(u)) for x in level)


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
    return Poly(list(map(len, _levels(seed))))


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
