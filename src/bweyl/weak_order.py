"""
The two weak orders on signed permutations, their principal ideals, rank
generating polynomials, and reduced word counting.

u <= w on the left exactly when the inversion set of u is contained in
that of w (one AND of inversion masks); the right order is the left
order after inverting.  Lower ideals are enumerated by breadth-first
search down through cover relations (left multiplication by a generator
that shortens), one length level at a time: every lower cover is one
shorter than the element above it, so the k-th level is exactly the
elements k below the apex.  An ideal keeps the sizes of its levels, so it
is materialized with its grading and its rank polynomial needs no length
computation.  The longest element w0 = -1 is central and x -> w0 * x
reverses the left order, so an upper ideal is a lower ideal negated.
Every ideal is capped at MAX_IDEAL_ELEMENTS elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .polynomials import Poly
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
    if len(u) != len(w):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(w)}")
    return not inversion_mask(u) & ~inversion_mask(w)


def right_leq(u: Window, w: Window) -> bool:
    """Right order: the left order applied to the inverses."""
    return left_leq(inverse(u), inverse(w))


def lower_covers_left(w: Window) -> frozenset[Window]:
    """The elements s_i * w one step below w in the left order."""
    return frozenset(left_mul_simple(i, w) for i in left_descents(w))


@dataclass(frozen=True)
class Ideal:
    """
    A principal order ideal, materialized with its generating element and
    the sizes of its length levels counted outward from the apex (down
    from the top for the lower ideals, up from the bottom for the upper).
    """

    kind: str  # "lower-left" | "upper-left" | "lower-right"
    apex: Window
    elements: frozenset[Window]
    level_sizes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, w: Window) -> bool:
        return w in self.elements

    def __iter__(self) -> Iterator[Window]:
        return iter(sorted(self.elements))

    def rank_polynomial(self) -> Poly:
        return rank_polynomial(self)


def _levels(seed: Window) -> Iterator[set[Window]]:
    """
    Everything below seed in the left order, one length level at a time
    from seed down.  A lower cover is one shorter than its element, so
    duplicates only arise within a level.  Raises ValueError once the
    levels so far hold more than MAX_IDEAL_ELEMENTS elements.
    """
    layer = {seed}
    total = 0
    while layer:
        total += len(layer)
        if total > MAX_IDEAL_ELEMENTS:
            raise ValueError(
                f"ideal exceeds the element limit {MAX_IDEAL_ELEMENTS}: "
                f"{total} elements reached"
            )
        yield layer
        layer = {left_mul_simple(i, x) for x in layer for i in left_descents(x)}


def _ideal(kind: str, apex: Window, seed: Window,
           image: Callable[[Window], Window] | None = None) -> Ideal:
    """
    The ideal of the given kind: the levels below seed, each mapped
    through image as it is produced, so no second full-size set is built.
    """
    sizes: list[int] = []

    def walk() -> Iterator[Window]:
        for layer in _levels(seed):
            sizes.append(len(layer))
            yield from layer if image is None else map(image, layer)

    elements = frozenset(walk())
    return Ideal(kind, apex, elements, tuple(sizes))


def _negate(w: Window) -> Window:
    return tuple(-x for x in w)


def lower_ideal_left(w: Window) -> Ideal:
    """All u <= w in the left order, by downward search through covers."""
    w = validate_window(w)
    return _ideal("lower-left", w, w)


def upper_ideal_left(w: Window) -> Ideal:
    """
    All u >= w in the left order: x -> w0 * x = -x reverses the order, so
    they are the negated elements of the lower ideal of -w.
    """
    w = validate_window(w)
    return _ideal("upper-left", w, _negate(w), _negate)


def interval_right(u: Window) -> Ideal:
    """
    All x <= u in the right order: the inverses of the left lower ideal
    of the inverse.
    """
    u = validate_window(u)
    return _ideal("lower-right", u, inverse(u), inverse)


def rank_polynomial(ideal: Ideal) -> Poly:
    """
    The rank generating polynomial of an ideal, graded by length from the
    bottom of the ideal (for upper ideals the grading is shifted so the
    generating element sits in rank zero).  Read off the level sizes:
    an upper ideal's levels already run up from its bottom, a lower
    ideal's run down from its top.
    """
    sizes = ideal.level_sizes
    return Poly(sizes if ideal.kind == "upper-left" else sizes[::-1])


def reduced_word_count(w: Window) -> int:
    """
    The number of reduced words for w: sequences (i_1, ..., i_l) of
    generator indices with l = length(w) whose product is w.  Counts the
    paths down from w through lower covers one length at a time, holding
    only the current level.

    >>> reduced_word_count((-1, -2))
    2
    """
    level = {w: 1}
    for _ in range(length(w)):
        below: dict[Window, int] = {}
        for x, paths in level.items():
            for i in left_descents(x):
                y = left_mul_simple(i, x)
                below[y] = below.get(y, 0) + paths
        level = below
    return level[identity(len(w))]


def iter_reduced_words(w: Window) -> Iterator[tuple[int, ...]]:
    """Yield every reduced word of w, in lexicographic order."""
    descents = left_descents(w)
    if not descents:
        yield ()
        return
    for i in descents:
        for word in iter_reduced_words(left_mul_simple(i, w)):
            yield (i,) + word


def product_word(n: int, word: tuple[int, ...]) -> Window:
    """Multiply out a word of generator indices in rank n."""
    out = identity(n)
    for i in reversed(word):
        out = left_mul_simple(i, out)
    return out
