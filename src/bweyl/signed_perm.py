"""
Signed permutations of {±1, ..., ±n} in one-line "window" notation.

A window is a tuple of n nonzero integers (w_1, ..., w_n) whose absolute
values form a permutation of {1, ..., n}; it records the images w_i = w(i),
and w(-i) = -w(i).  The text form is space separated signed decimals,
e.g. "-2 3 4 5 1".  Products compose right to left: (u*v)(i) = u(v(i)).
The generators are s_0, which negates the value 1, and s_i (1 <= i < n),
which swaps the values i and i+1; multiplying s_i on the left acts on
values, on the right on places.  The length of w is the size of its
inversion set: negative entries, inversions and negative-sum pairs, kept
as one int bitmask over the positive roots (`inversion_mask`).

`compose`, `inverse`, `length`, `inversion_mask`, `statistic_sets` and
`format_window` are unchecked primitives for the hot loops: on a
non-window they return a meaningless value or raise IndexError.  They
live here, not in the package root.  Check outside input with
`validate_window` or `parse_window`, ranks with `_check_rank`, generator
indices with `_check_generator` and collections with `_iterate`; the
root's entry points do, and raise ValueError.
"""

from __future__ import annotations

import itertools
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

Window = tuple[int, ...]


class StatisticSets(NamedTuple):
    """The three window statistics; positions are 1-based."""

    neg: frozenset[int]
    inv: frozenset[tuple[int, int]]
    nsp: frozenset[tuple[int, int]]


def is_window(w: Sequence[int]) -> bool:
    """
    Check that w is a valid window: nonzero int entries (not bool) whose
    absolute values are a permutation of {1, ..., n}.

    >>> [is_window(w) for w in ((-2, 3, 4, 5, 1), (1, 1), (0, 2), (True, 2))]
    [True, False, False, False]
    """
    n = len(w)
    if n == 0:
        return False
    seen = 0
    for x in w:
        if type(x) is not int or x == 0 or not -n <= x <= n:
            return False
        bit = 1 << (abs(x) - 1)
        if seen & bit:
            return False
        seen |= bit
    return seen == (1 << n) - 1


def validate_window(w: Sequence[int]) -> Window:
    """Return w as a tuple, raising ValueError if it is not a window."""
    try:
        t = tuple(w)
    except TypeError:
        raise ValueError(f"not a signed permutation window: {w!r}") from None
    if not is_window(t):
        raise ValueError(f"not a signed permutation window: {t!r}")
    return t


def parse_window(text: str) -> Window:
    """
    Parse the text form "-2 3 4 5 1".  Rejects zeros, repeated absolute
    values, and gaps.

    >>> parse_window("-2 3 4 5 1")
    (-2, 3, 4, 5, 1)
    """
    if not isinstance(text, str):
        raise ValueError(f"window text must be a string, got {text!r}")
    try:
        entries = tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ValueError(f"window entries must be integers: {text!r}") from None
    if not entries:
        raise ValueError("empty window")
    return validate_window(entries)


def format_window(w: Sequence[int]) -> str:
    """Render a window in its text form (unchecked: see `validate_window`).

    >>> format_window((-2, 3, 4, 5, 1))
    '-2 3 4 5 1'
    """
    return " ".join(str(x) for x in w)


def _check_rank(n: int) -> None:
    """Raise ValueError unless n is an int (not a bool) of at least 1."""
    if type(n) is not int or n < 1:
        raise ValueError(f"rank must be a positive integer, got {n!r}")


def _check_generator(n: int, i: int) -> int:
    """Return i, raising ValueError unless it is an int (not a bool) in 0..n-1."""
    if type(i) is not int or not 0 <= i < n:
        raise ValueError(f"generator index {i!r} out of range [0, {n - 1}]")
    return i


def _iterate(xs: Iterable, what: str) -> Iterator:
    """iter(xs), raising ValueError when xs is not iterable."""
    try:
        return iter(xs)
    except TypeError:
        raise ValueError(f"{what} must be iterable, got {xs!r}") from None


def identity(n: int) -> Window:
    """The identity window (1, 2, ..., n).

    >>> identity(3)
    (1, 2, 3)
    """
    _check_rank(n)
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Window:
    """The unique longest element (-1, -2, ..., -n), of length n^2.

    >>> longest_element(2)
    (-1, -2)
    """
    _check_rank(n)
    return tuple(range(-1, -n - 1, -1))


def simple_reflection(n: int, i: int) -> Window:
    """
    The generator s_i of rank n: s_0 = (-1, 2, ..., n), and s_i for i >= 1
    is the adjacent transposition of places i, i+1.

    >>> simple_reflection(2, 0), simple_reflection(5, 3)
    ((-1, 2), (1, 2, 4, 3, 5))
    """
    _check_rank(n)
    _check_generator(n, i)
    win = list(range(1, n + 1))
    if i == 0:
        win[0] = -1
    else:
        win[i - 1], win[i] = win[i], win[i - 1]
    return tuple(win)


def all_windows(n: int) -> Iterator[Window]:
    """Iterate over all 2^n * n! windows of rank n in a fixed order."""
    _check_rank(n)
    patterns = list(itertools.product((1, -1), repeat=n))
    return (tuple(map(mul, signs, perm))
            for perm in itertools.permutations(range(1, n + 1)) for signs in patterns)


def compose(u: Window, v: Window) -> Window:
    """
    The product u*v acting as u after v: (u*v)(i) = u(v(i)).  Unchecked
    primitive: u and v must be windows (see `validate_window`).

    >>> compose((2, 1), (-1, 2))
    (-2, 1)
    """
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    return tuple(u[x - 1] if x > 0 else -u[-x - 1] for x in v)


def inverse(w: Window) -> Window:
    """
    The group inverse: the value k sits at the signed place recorded by
    inverse(w)_k.  Unchecked primitive: see `validate_window`.

    >>> inverse((-2, 3, 4, 5, 1))
    (5, -1, 2, 3, 4)
    """
    inv = [0] * len(w)
    for pos, x in enumerate(w, start=1):
        if x > 0:
            inv[x - 1] = pos
        else:
            inv[-x - 1] = -pos
    return tuple(inv)


def left_mul_simple(i: int, w: Window) -> Window:
    """s_i * w, acting on values; raises ValueError on i outside 0..n-1."""
    return compose(simple_reflection(len(w), i), w)


def left_descents(w: Window) -> list[int]:
    """
    Indices i with length(s_i * w) = length(w) - 1: the right descents of
    v = inverse(w), which holds the signed place of each value.  s_i
    descends iff v_i > v_{i+1}, with v_0 = 0 (so s_0 iff v_1 < 0).

    >>> left_descents((-1, -2))
    [0, 1]
    """
    v = inverse(w)
    return [i for i in range(len(v)) if (v[i - 1] if i else 0) > v[i]]


def statistic_sets(w: Window) -> StatisticSets:
    """
    The negative places, inversions, and negative-sum pairs of a window:
    neg = {i : w_i < 0}, inv = {(i, j) : i < j, w_i > w_j}, and
    nsp = {(i, j) : i < j, w_i + w_j < 0}.  Unchecked primitive: see
    `validate_window`.

    >>> s = statistic_sets((1, -2))
    >>> sorted(s.neg), sorted(s.inv), sorted(s.nsp)
    ([2], [(1, 2)], [(1, 2)])
    """
    places = range(1, len(w) + 1)
    pairs = list(itertools.combinations(places, 2))
    return StatisticSets(
        frozenset(i for i in places if w[i - 1] < 0),
        frozenset((i, j) for i, j in pairs if w[i - 1] > w[j - 1]),
        frozenset((i, j) for i, j in pairs if w[i - 1] + w[j - 1] < 0),
    )


def inversion_mask(w: Window) -> int:
    """
    The inversion set of w as an int over the n^2 positive roots, in the
    order root_system.full_system lists them: bit i-1 is e_i, set when
    w_i < 0; for the p-th pair i < j in lexicographic order, bit n+2p is
    -e_i + e_j, set when w_i > w_j, and bit n+2p+1 is e_i + e_j, set when
    w_i + w_j < 0.  Its popcount is the length.  Unchecked primitive: see
    `validate_window`.

    >>> bin(inversion_mask((1, -2)))
    '0b1110'
    """
    n = len(w)
    mask = sum(1 << i for i in range(n) if w[i] < 0)
    bit = n
    for i, wi in enumerate(w):
        for wj in w[i + 1:]:
            mask |= (wi > wj) << bit | (wi + wj < 0) << bit + 1
            bit += 2
    return mask


def length(w: Window) -> int:
    """
    Word length in the generators: the inversion count minus the sum of
    the negative entries (equivalently #neg + #inv + #nsp).  Unchecked
    primitive: see `validate_window`.

    >>> length((2, 3, 5, 1, -4))
    11
    """
    n = len(w)
    inv = 0
    negsum = 0
    for i in range(n):
        wi = w[i]
        if wi < 0:
            negsum += wi
        for j in range(i + 1, n):
            if wi > w[j]:
                inv += 1
    return inv - negsum


def group_order(n: int) -> int:
    """The number of signed permutations of rank n, 2^n * n!."""
    _check_rank(n)
    order = 1
    for k in range(1, n + 1):
        order *= 2 * k
    return order


def sort_windows(ws: Iterable[Window]) -> list[Window]:
    """Sort windows by (length, window) for deterministic listings."""
    return sorted(ws, key=lambda w: (length(w), w))
