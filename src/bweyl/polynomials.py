"""
Dense polynomials in q with exact integer coefficients.

These carry the rank-generating functions of graded sets of signed
permutations, so coefficients are nonnegative counts and all arithmetic
is exact (Python integers never overflow).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .signed_perm import _check_rank


class Poly:
    """An immutable dense polynomial; coeffs[k] is the coefficient of q^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def geometric(cls, degree: int) -> "Poly":
        """1 + q + ... + q^degree."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls((1,) * (degree + 1))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    def __call__(self, q: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * q + c
        return value

    def reversed(self) -> "Poly":
        """The reciprocal polynomial q^deg * f(1/q)."""
        return Poly(tuple(reversed(self.coeffs)))

    def is_symmetric(self) -> bool:
        """Whether the coefficient sequence is palindromic."""
        cs = self.coeffs
        return cs == cs[::-1]

    def is_unimodal(self) -> bool:
        """Whether the coefficients rise to a single peak and then fall."""
        cs = self.coeffs
        k = 0
        while k + 1 < len(cs) and cs[k] <= cs[k + 1]:
            k += 1
        while k + 1 < len(cs) and cs[k] >= cs[k + 1]:
            k += 1
        return k + 1 >= len(cs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}q" if k == 1 else f"{head}q^{k}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def to_list(self) -> list[int]:
        """JSON form: the coefficient list in ascending exponent order."""
        return list(self.coeffs)


def from_counts(values: Sequence[int]) -> Poly:
    """Build the generating polynomial sum q^v over a multiset of values."""
    if not values:
        return Poly()
    coeffs = [0] * (max(values) + 1)
    for v in values:
        if v < 0:
            raise ValueError("exponents must be nonnegative")
        coeffs[v] += 1
    return Poly(coeffs)


@lru_cache(maxsize=8, typed=True)  # typed, so True and 2.0 miss the ranks 1 and 2
def group_poincare(n: int) -> Poly:
    """
    Length generating polynomial of the rank-n group: the product of
    1 + q + ... + q^(2i-1) for i = 1..n (degrees 2, 4, ..., 2n).

    >>> str(group_poincare(2))
    '1 + 2q + 2q^2 + 2q^3 + q^4'
    """
    _check_rank(n)
    f = Poly.one()
    for i in range(1, n + 1):
        f = f * Poly.geometric(2 * i - 1)
    return f
