"""
The benchmark's own arithmetic for signed permutations, written from the
definitions and sharing no code with the package it checks.

A window w = (w_1, ..., w_n) lists the images of 1..n; the image of -i
is -w_i.  Everything here is brute force: pattern containment looks at
every subsequence, and the closed forms (group order, large Schröder
numbers, hook lengths) are computed from their formulas.
"""

from __future__ import annotations

import itertools
from math import factorial

#: The six forbidden signed patterns of the separability criterion.
SIX_PATTERNS = (
    (-2, 1),
    (2, -1),
    (3, 1, 4, 2),
    (2, 4, 1, 3),
    (-3, -1, -4, -2),
    (-2, -4, -1, -3),
)


def group_order(n: int) -> int:
    """|W_n| = 2^n * n!."""
    return 2 ** n * factorial(n)


def schroeder(n: int) -> int:
    """
    The large Schröder number S_n by its recurrence
    S_n = 3 S_(n-1) + sum_{k=1}^{n-2} S_k S_(n-1-k), with S_0 = 1, S_1 = 2.
    """
    s = [1, 2]
    for m in range(2, n + 1):
        s.append(3 * s[m - 1] + sum(s[k] * s[m - 1 - k] for k in range(1, m - 1)))
    return s[n]


def square_tableaux(n: int) -> int:
    """Standard Young tableaux of the n x n square, by the hook-length formula."""
    hooks = 1
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            hooks *= (n - i) + (n - j) + 1
    return factorial(n * n) // hooks


def length(w) -> int:
    """Inversions (i < j, w_i > w_j) minus the sum of the negative entries."""
    inv = sum(1 for a, b in itertools.combinations(w, 2) if a > b)
    return inv - sum(x for x in w if x < 0)


def inverse(w) -> tuple[int, ...]:
    """The signed permutation sending w_i back to i."""
    out = [0] * len(w)
    for i, x in enumerate(w, start=1):
        out[abs(x) - 1] = i if x > 0 else -i
    return tuple(out)


def longest_times_inverse(u) -> tuple[int, ...]:
    """w0 * u^-1, with w0 = (-1, ..., -n) the central longest element."""
    return tuple(-x for x in inverse(u))


def signed_standardize(seq) -> tuple[int, ...]:
    """Replace each magnitude by its rank among the magnitudes, keep signs."""
    order = sorted(abs(x) for x in seq)
    return tuple((order.index(abs(x)) + 1) * (1 if x > 0 else -1) for x in seq)


def standardize(seq) -> tuple[int, ...]:
    """Replace each value by its rank among the values (all positive)."""
    order = sorted(seq)
    return tuple(order.index(x) + 1 for x in seq)


def contains(w, pattern) -> bool:
    """Whether some subsequence of w signed-standardizes to pattern."""
    return any(
        signed_standardize(sub) == pattern
        for sub in itertools.combinations(w, len(pattern))
    )


def separable(w) -> bool:
    """Avoids all six forbidden patterns."""
    return not any(contains(w, p) for p in SIX_PATTERNS)


def minimal_nonseparable(w) -> bool:
    """
    Non-separable, while the restriction to every maximal parabolic
    subgroup is separable.  Deleting generator s_i (0 <= i < n) cuts the
    places into 1..i, acted on as a signed group, and i+1..n, acted on as
    a symmetric group; the restriction keeps the signed pattern of the
    first block and the unsigned pattern of the second.
    """
    if separable(w):
        return False
    for i in range(len(w)):
        if i and not separable(signed_standardize(w[:i])):
            return False
        if not separable(standardize(w[i:])):
            return False
    return True


def is_window(w, n: int) -> bool:
    return len(w) == n and sorted(abs(x) for x in w) == list(range(1, n + 1))


def all_windows(n: int):
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(s * p for s, p in zip(signs, perm))


def unimodal(coeffs) -> bool:
    """Nondecreasing up to some peak, nonincreasing after it."""
    peak = coeffs.index(max(coeffs))
    return all(a <= b for a, b in zip(coeffs[:peak], coeffs[1:peak + 1])) and all(
        a >= b for a, b in zip(coeffs[peak:], coeffs[peak + 1:])
    )
