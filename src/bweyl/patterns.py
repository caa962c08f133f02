"""
Standardization, signed pattern containment, the six-pattern test for
separability, parabolic factorization, and the minimal non-separability
criteria.

w contains the pattern p (a window) when some subsequence of w has
signed standardization p.  Separable windows avoid the six forbidden
patterns; quadruple families refine the test to the minimal
non-separable windows and those whose inverses stay minimal.  Both
standardizations keep the order of the entries, the signed one every
sign, and the tests compare nothing else: a parabolic block is tested as
the raw slice of w it standardizes.  The public predicates raise
ValueError on a non-window; sweeps call the unvalidated cores
(`_separable`, `_minimal`, ...) on windows they made.
"""

from __future__ import annotations

from itertools import combinations, count
from typing import Iterable, Sequence

from .signed_perm import (
    Window,
    _check_generator,
    _iterate,
    identity,
    inverse,
    validate_window,
)

#: The six forbidden patterns; avoiding all of them is separability.
SEPARABLE_FORBIDDEN: tuple[Window, ...] = (
    (-2, 1),
    (2, -1),
    (3, 1, 4, 2),
    (2, 4, 1, 3),
    (-3, -1, -4, -2),
    (-2, -4, -1, -3),
)

def _sign_pair(name: str, positive: tuple[Window, ...]) -> dict[str, tuple[Window, ...]]:
    """A family through a positive last entry, and the negative one: its negation, sorted."""
    return {f"{name}-pos": positive,
            f"{name}-neg": tuple(sorted(tuple(-x for x in p) for p in positive))}


#: The named pattern families the CLI lists: the six forbidden patterns in
#: the order above, then the forbidden quadruples through the last entry in
#: the minimality and inverse-minimality tests, each sorted (the negative
#: family is the positive one negated, see `_positive_last`).
PATTERN_SETS: dict[str, tuple[Window, ...]] = {
    "sep-forbidden-6": SEPARABLE_FORBIDDEN,
    **_sign_pair("minnonsep-quad", ((-2, 3, -4, 1), (-1, 3, -4, 2), (1, 3, -4, 2), (2, -3, 4, 1))),
    **_sign_pair("inverse-quad", ((-1, -4, -2, 3), (1, -4, -2, 3))),
}


def _check_entries(seq: Sequence[int]) -> None:
    """Raise ValueError unless seq is a sequence of nonzero ints (not bools)."""
    if not isinstance(seq, Sequence) or not all(type(x) is int for x in seq):
        raise ValueError(f"standardization rejects non-int entries: {seq!r}")
    if 0 in seq:
        raise ValueError("standardization rejects zero entries")


def _st(seq: Sequence[int]) -> Window:
    rank = dict(zip(sorted(seq), count(1)))
    return tuple(map(rank.__getitem__, seq))


def st(seq: Sequence[int]) -> Window:
    """
    The unsigned standardization: replace each entry by its 1-based rank.
    Entries must be nonzero ints, pairwise distinct (ties are rejected).

    >>> st((2, -4, 3, -1))
    (3, 1, 4, 2)
    """
    _check_entries(seq)
    if len(set(seq)) != len(seq):
        raise ValueError(f"standardization rejects repeated values: {tuple(seq)!r}")
    return _st(seq)


def _sts(seq: Sequence[int]) -> Window:
    rank = {m: k for k, m in enumerate(sorted(map(abs, seq)), start=1)}
    return tuple(rank[x] if x > 0 else -rank[-x] for x in seq)


def sts(seq: Sequence[int]) -> Window:
    """
    The signed standardization: keep each sign, rank the absolute values.
    Entries must be nonzero ints with pairwise distinct absolute values.

    >>> sts((-5, 2))
    (-2, 1)
    """
    _check_entries(seq)
    if len(set(map(abs, seq))) != len(seq):
        raise ValueError(
            f"signed standardization rejects repeated magnitudes: {tuple(seq)!r}"
        )
    return _sts(seq)


def contains_pattern(w: Sequence[int], p: Window) -> bool:
    """
    Whether some subsequence of w standardizes (signed) to p; both must be
    windows (ValueError otherwise).

    >>> contains_pattern((-2, 3, 4, 5, 1), (-2, 1))
    True
    >>> contains_pattern((1, 2, 3, 4), (2, 1))
    False
    """
    w, p = validate_window(w), validate_window(p)
    return any(_sts(tuple(w[i] for i in idx)) == p
               for idx in combinations(range(len(w)), len(p)))


def _has_forbidden_pair(w: Sequence[int]) -> bool:
    """
    Whether w contains (-2, 1) or (2, -1): in one scan, an entry whose
    magnitude is below that of an earlier entry of the other sign.
    """
    top_pos = top_neg = 0
    for x in w:
        if x > 0:
            if x < top_neg:
                return True
            if x > top_pos:
                top_pos = x
        elif -x < top_pos:
            return True
        elif -x > top_neg:
            top_neg = -x
    return False


def _has_order_quad(seq: Sequence[int]) -> bool:
    """Whether some quadruple of seq is ordered as (3, 1, 4, 2) or (2, 4, 1, 3)."""
    for a, b, c, d in combinations(seq, 4):
        if b < d < a < c or c < a < d < b:
            return True
    return False


def _has_forbidden_quad(w: Sequence[int]) -> bool:
    """
    Whether w contains one of the four length-4 forbidden patterns, by
    comparing entries: a quadruple (a, b, c, d) matches (3, 1, 4, 2) or
    (-2, -4, -1, -3) as the chain b < d < a < c, and (2, 4, 1, 3) or
    (-3, -1, -4, -2) as c < a < d < b, with all four entries of one sign:
    the least of the chain above 0 or the greatest below it.
    """
    for a, b, c, d in combinations(w, 4):
        if (b < d < a < c and (b > 0 or c < 0)) or (c < a < d < b and (c > 0 or b < 0)):
            return True
    return False


def _separable(w: Sequence[int]) -> bool:
    return not _has_forbidden_pair(w) and not _has_forbidden_quad(w)


def is_separable(w: Sequence[int]) -> bool:
    """
    Whether w avoids all six forbidden patterns.  Unsigned windows can
    only meet the two all-positive quadruples, signed ones any of the six.
    """
    return _separable(validate_window(w))


def parabolic_factor(
    w: Window, removed: Iterable[int]
) -> tuple[Window, Window]:
    """
    Factor w = q * b over the standard parabolic subgroup without the
    generators s_p, p in removed, which cut the window into blocks.  b
    standardizes each block in place (signed before the first cut,
    unsigned and shifted after), q sorts it (by magnitude before the first
    cut).  Lengths add: length(w) = length(q) + length(b).

    With removed empty the subgroup is everything: returns (identity, w).
    """
    w = validate_window(w)
    n = len(w)
    ps = sorted({_check_generator(n, p) for p in _iterate(removed, "removed generators")})
    if not ps:
        return identity(n), w

    bounds = ps + [n]
    quotient = list(w)
    subgroup = list(range(1, n + 1))

    first = bounds[0]
    if first > 0:
        block = w[:first]
        quotient[:first] = sorted(map(abs, block))
        subgroup[:first] = _sts(block)
    for a, b in zip(bounds, bounds[1:]):
        block = w[a:b]
        quotient[a:b] = sorted(block)
        subgroup[a:b] = [a + r for r in _st(block)]
    return tuple(quotient), tuple(subgroup)


def _minimal_definitional(w: Window) -> bool:
    """
    Deleting s_i leaves the blocks sts(w[:i]) and st(w[i:]), tested raw
    (the second is all positive).  The cuts run from the last: most
    non-separable windows fail on a long signed prefix first.
    """
    if _separable(w):
        return False
    for i in reversed(range(len(w))):
        if not _separable(w[:i]) or _has_order_quad(w[i:]):
            return False
    return True


def is_minimal_nonseparable_definitional(w: Window) -> bool:
    """
    Non-separable, but every maximal-parabolic restriction is separable:
    for each deleted generator index i, both standardized blocks of the
    subgroup factor avoid the six patterns.
    """
    return _minimal_definitional(validate_window(w))


def _positive_last(w: Window) -> Window:
    """
    w with its last entry made positive by negating the whole window: each
    family through the last entry is its positive family negated, and
    negating a quadruple negates its signed standardization.
    """
    return w if w[-1] > 0 else tuple(-x for x in w)


def _minnonsep_quad_through_last(w: Window) -> bool:
    """
    Whether some quadruple (a, b, c, d = w_n) standardizes (signed) into
    the minimality family for the sign of w_n, by comparing entries.  With
    d > 0, (1, 3, -4, 2) and (-1, 3, -4, 2) are |a| < d < b < -c,
    (2, -3, 4, 1) is d < a < -b < c, and (-2, 3, -4, 1) is d < -a < b < -c;
    each chain fixes the signs it does not test.
    """
    w = _positive_last(w)
    d = w[-1]
    for a, b, c in combinations(w[:-1], 3):
        if abs(a) < d < b < -c or d < a < -b < c or d < -a < b < -c:
            return True
    return False


def _inverse_quad_through_last(w: Window) -> bool:
    """
    Whether some quadruple (a, b, c, d = w_n) standardizes (signed) into
    the inverse-minimality family for the sign of w_n: with d > 0,
    (-1, -4, -2, 3) and (1, -4, -2, 3) are |a| < -c < d < -b.
    """
    w = _positive_last(w)
    d = w[-1]
    return any(abs(a) < -c < d < -b for a, b, c in combinations(w[:-1], 3))


def _minimal(w: Window) -> bool:
    # w_1..w_{n-1} avoids both pairs and w does not: some (x, w_n)
    # standardizes to (-2, 1) for w_n > 0, to (2, -1) otherwise
    return (not _has_forbidden_pair(w[:-1]) and _has_forbidden_pair(w)
            and not _has_forbidden_quad(w) and not _minnonsep_quad_through_last(w))


def is_minimal_nonseparable_fast(w: Window) -> bool:
    """
    The direct window test for minimal non-separability: w_1..w_{n-1}
    avoids the length-2 patterns and w the length-4 ones; some (w_i, w_n)
    is the length-2 violation for the sign of w_n; and no quadruple
    through w_n is in the forbidden family for that sign.
    """
    return _minimal(validate_window(w))


def _pivot(w: Window) -> int:
    """The 0-based place of the magnitude-n entry of w."""
    n = len(w)
    return next(k for k, x in enumerate(w) if abs(x) == n)


def _inverse_minimal(w: Window) -> bool:
    i = _pivot(w)
    if i == len(w) - 1 or not _separable(w[:i] + w[i + 1:]):
        return False
    return not _inverse_quad_through_last(w)


def inverse_minimality_criterion(w: Window) -> bool:
    """
    For a minimal non-separable w, whether its inverse is one too:
    deleting the magnitude-n entry (before the last place) leaves a
    separable standardization, and no quadruple through w_n is in the
    inverse-forbidden family for its sign.  ValueError for any other w.
    """
    w = validate_window(w)
    if not _minimal(w):
        raise ValueError(f"criterion needs a minimal non-separable window, got {w!r}")
    return _inverse_minimal(w)


def _doubly_minimal(w: Window) -> bool:
    return _minimal(w) and _minimal(inverse(w))


def is_doubly_minimal(w: Window) -> bool:
    """Whether w and its inverse are both minimal non-separable."""
    return _doubly_minimal(validate_window(w))
