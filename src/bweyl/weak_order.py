"""
The two weak orders on signed permutations, their principal ideals, rank
generating polynomials, and reduced word counting.

u <= w on the left exactly when the inversion set of u is contained in
that of w (one AND of inversion masks); the right order is the left
order after inverting.  Lower ideals are enumerated by breadth-first
search down through cover relations (left multiplication by a generator
that shortens), layer by layer, so every ideal is materialized with its
grading.  The longest element w0 = -1 is central and x -> w0 * x
reverses the left order, so an upper ideal is a lower ideal negated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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
    """A principal order ideal, materialized with its generating element."""

    kind: str  # "lower-left" | "upper-left" | "lower-right"
    apex: Window
    elements: frozenset[Window]

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, w: Window) -> bool:
        return w in self.elements

    def __iter__(self) -> Iterator[Window]:
        return iter(sorted(self.elements))

    def rank_polynomial(self) -> Poly:
        return rank_polynomial(self)


def _bfs(seed: Window) -> frozenset[Window]:
    """Everything below seed in the left order, down through lower covers."""
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for x in frontier:
            for i in left_descents(x):
                y = left_mul_simple(i, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def lower_ideal_left(w: Window) -> Ideal:
    """All u <= w in the left order, by downward search through covers."""
    w = validate_window(w)
    return Ideal("lower-left", w, _bfs(w))


def upper_ideal_left(w: Window) -> Ideal:
    """
    All u >= w in the left order: x -> w0 * x = -x reverses the order, so
    they are the negated elements of the lower ideal of -w.
    """
    w = validate_window(w)
    below = _bfs(tuple(-x for x in w))
    return Ideal("upper-left", w, frozenset(tuple(-x for x in v) for v in below))


def interval_right(u: Window) -> Ideal:
    """
    All x <= u in the right order: the inverses of the left lower ideal
    of the inverse.
    """
    u = validate_window(u)
    below = _bfs(inverse(u))
    return Ideal("lower-right", u, frozenset(inverse(x) for x in below))


def rank_polynomial(ideal: Ideal) -> Poly:
    """
    The rank generating polynomial of an ideal, graded by length from the
    bottom of the ideal (for upper ideals the grading is shifted so the
    generating element sits in rank zero).
    """
    lengths = [length(w) for w in ideal.elements]
    base = min(lengths)
    return from_counts([l - base for l in lengths])


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
