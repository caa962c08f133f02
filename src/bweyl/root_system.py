"""
The rank-n root system of the signed permutation group, in integer
coordinates, with the recursive pivot test for separability.

The positive roots are e_i and -e_i + e_j, e_i + e_j (i < j); the simple
roots are a_0 = e_1 and a_i = -e_i + e_{i+1}.  A set of positive roots is
an int mask, bit k for the k-th root in the order of
signed_perm.inversion_mask, and restriction to a subsystem is an AND.
Both facts about simple roots used here are closed forms (Bjorner-Brenti,
Combinatorics of Coxeter Groups, ch. 1-4 and App. A1): v = sum c_k * a_k
with c_k = sum(v[k:]), and the Dynkin diagram is the path
a_0 - a_1 - ... - a_{n-1}.  The roots with c_p >= 1 form the support of
a_p.  A subsystem is given by the places p of its simple roots on the
path alone: its mask is every root minus the supports of the places it
leaves out, and its roots dominance-above a_p are its mask AND that
support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import accumulate, combinations, groupby
from operator import or_
from typing import Iterable

from .signed_perm import (
    Window,
    _check_generator,
    _check_rank,
    _iterate,
    inversion_mask,
    validate_window,
)

Root = tuple[int, ...]


@dataclass(frozen=True)
class RootSubsystem:
    """
    A closed subsystem, given by the increasing places p of its simple
    roots a_p on the path a_0 - ... - a_{n-1}.  The mask of its positive
    roots follows from them: every rank-n root minus the supports of the
    places left out.
    """

    ambient_rank: int
    positions: tuple[int, ...]
    mask: int = field(init=False)

    def __post_init__(self) -> None:
        n = self.ambient_rank
        _check_rank(n)
        places = (-1, *self.positions, n)
        if any(p >= q for p, q in zip(places, places[1:])):
            raise ValueError(f"simple root positions not increasing in 0..{n - 1}: "
                             f"{self.positions!r}")
        object.__setattr__(self, "mask", _span(n, set(range(n)) - set(self.positions)))

    @property
    def rank(self) -> int:
        return len(self.positions)

    @property
    def simple_roots(self) -> tuple[Root, ...]:  # decoded from the positions
        return tuple(_simple_root(self.ambient_rank, p) for p in self.positions)

    @property
    def positive_roots(self) -> frozenset[Root]:  # decoded from the mask
        return _decode(self.ambient_rank, self.mask)


def _vector(n: int, *entries: tuple[int, int]) -> Root:
    """The rank-n vector with the given (0-based place, value) entries."""
    coords = [0] * n
    for place, value in entries:
        coords[place] = value
    return tuple(coords)


def _simple_root(n: int, p: int) -> Root:
    """a_p of the rank-n system: a_0 = e_1 and a_p = -e_p + e_{p+1}."""
    return _vector(n, (p - 1, -1), (p, 1)) if p else _vector(n, (0, 1))


@lru_cache(maxsize=8)
def _tables(n: int) -> tuple[tuple[Root, ...], tuple[int, ...]]:
    """
    The rank-n positive roots in bit order, and the supports: support[p]
    is the mask of the roots with a nonzero coefficient on a_p.
    """
    roots = [_vector(n, (i, 1)) for i in range(n)] + [
        _vector(n, (i, s), (j, 1)) for i, j in combinations(range(n), 2) for s in (-1, 1)
    ]
    coeffs = [_coefficients(root) for root in roots]
    return tuple(roots), tuple(
        sum(1 << k for k, c in enumerate(coeffs) if c[p]) for p in range(n)
    )


def _span(n: int, dropped: Iterable[int]) -> int:
    """The mask of the rank-n roots with no coefficient on a dropped place."""
    support = _tables(n)[1]
    return (1 << n * n) - 1 & ~reduce(or_, (support[p] for p in dropped), 0)


def _decode(n: int, mask: int) -> frozenset[Root]:
    """The rank-n positive roots whose bits are set in mask."""
    return frozenset(root for k, root in enumerate(_tables(n)[0]) if mask >> k & 1)


@lru_cache(maxsize=8, typed=True)  # typed, so True and 2.0 miss the ranks 1 and 2
def full_system(n: int) -> RootSubsystem:
    """The full rank-n system: n^2 positive roots, simples (a_0, ..., a_{n-1})."""
    _check_rank(n)
    return RootSubsystem(n, tuple(range(n)))


def inversion_roots(w: Window) -> frozenset[Root]:
    """
    The positive roots sent negative by w: e_i for each negative place i,
    -e_i + e_j for each inversion (i, j), and e_i + e_j for each
    negative-sum pair (i, j): inversion_mask(w) decoded.
    """
    w = validate_window(w)
    return _decode(len(w), inversion_mask(w))


def _coefficients(root: Root) -> tuple[int, ...]:
    """
    The coordinates of root in the simple roots a_0, ..., a_{n-1} of the
    full system: root = sum c_k * a_k with c_k = sum(root[k:]).  Integer
    coordinates give integer coefficients.

    >>> _coefficients((0, 1, 1))  # e_2 + e_3 = 2 a_0 + 2 a_1 + a_2
    (2, 2, 1)
    >>> _coefficients((-1, 1, 0))  # a_1
    (0, 1, 0)
    """
    return tuple(accumulate(reversed(root)))[::-1]


def dominance_leq(alpha: Root, beta: Root, sys: RootSubsystem) -> bool:
    """
    The dominance order on positive roots: alpha <= beta iff beta - alpha
    is a nonnegative integer combination of the simple roots of sys.  Both
    roots lie in the span of those simple roots, and so does beta - alpha:
    the test is that none of its coefficients is negative.
    """
    for root in (alpha, beta):
        if root not in sys.positive_roots:
            raise ValueError(f"{root!r} is not a positive root of the subsystem")
    diff = tuple(b - a for a, b in zip(alpha, beta))
    return all(c >= 0 for c in _coefficients(diff))


def subsystem_spanned_by(sys: RootSubsystem, kept: Iterable[int]) -> RootSubsystem:
    """
    The subsystem spanned by the simple roots of sys at the kept indices:
    those positive roots of sys whose nonzero coefficients all fall on the
    kept simple roots.
    """
    kept_idx = sorted({_check_generator(sys.rank, k) for k in _iterate(kept, "kept indices")})
    return RootSubsystem(sys.ambient_rank, tuple(sys.positions[k] for k in kept_idx))


def components(sys: RootSubsystem) -> list[RootSubsystem]:
    """
    Split sys into its irreducible components, each carrying the positive
    roots in its span.  Two simple roots are non-orthogonal exactly when
    they are neighbours on the path a_0 - ... - a_{n-1}, so the components
    are the maximal runs of consecutive path positions (those along which
    place minus index stays the same).  A single component means sys is
    irreducible.
    """
    runs = groupby(range(sys.rank), key=lambda k: sys.positions[k] - k)
    return [subsystem_spanned_by(sys, run) for _, run in runs]


def is_separable_recursive(I: int, sys: RootSubsystem) -> bool:
    """
    The recursive pivot test for separability of an inversion set I (a
    root mask, e.g. inversion_mask(w)) inside sys.  A reducible system is
    separable iff each component is, and each component is a run
    a_lo - ... - a_hi of the path.  A run of rank at most 1 is separable;
    a longer run needs some pivot a_p whose dominance upper set (the run's
    mask AND the support of a_p) lies wholly inside I or misses it, with
    the two runs left on either side of p separable in turn.
    """
    if I & ~sys.mask:
        raise ValueError(f"inversion set {I:#x} leaves the subsystem {sys.mask:#x}")
    n = sys.ambient_rank
    support = _tables(n)[1]

    def run(lo: int, hi: int) -> bool:
        if hi <= lo:
            return True
        span = _span(n, [*range(lo), *range(hi + 1, n)])
        for p in range(lo, hi + 1):
            upper = span & support[p]
            if (not upper & ~I or not upper & I) and run(lo, p - 1) and run(p + 1, hi):
                return True
        return False

    return all(run(comp.positions[0], comp.positions[-1]) for comp in components(sys))
