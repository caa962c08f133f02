"""
Machine checks for the structural facts about minimal non-separable
windows and their order ideals, and for the separable product identity.
Every sweep runs through `_sweep`: it checks the rank against
`reports.RANKS`, walks the check's universe and collects a witness for
each element the check rejects; an empty universe passes vacuously.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, permutations, product
from typing import Callable, Iterable, Iterator

from .patterns import (
    _doubly_minimal,
    _inverse_minimal,
    _minimal,
    _minimal_definitional,
    _pivot,
    _separable,
    is_doubly_minimal,
    parabolic_factor,
)
from .polynomials import Poly, group_poincare
from .quotients import _length_sum, _products, quotient_interval_identity, verify_main_theorem
from .reports import LemmaReport, lemma_report, require_rank
from .root_system import full_system, is_separable_recursive
from .signed_perm import Window, all_windows, identity, inverse, inversion_mask, length
from .weak_order import _levels, ideal_polynomial, iter_reduced_words, reduced_word_count


def _sweep(
    check_id: str,
    n: int,
    universe: Callable[[int], Iterable[Window]],
    case: Callable[[Window], dict | None],
    counts: dict[str, int] | None = None,
) -> LemmaReport:
    """
    Check n against the check's accepted ranks, then run case on every
    element of universe(n); each element it returns a witness for fails.

    >>> check_interval_identity(6)
    Traceback (most recent call last):
    ValueError: interval-identity accepts ranks 1..5, got 6
    """
    require_rank(check_id, n)
    return lemma_report(check_id, n, [case(w) for w in universe(n)], counts)


@lru_cache(maxsize=4)  # one entry per rank the checks accept, 3..6
def doubly_minimal_elements(n: int) -> tuple[Window, ...]:
    """Windows w with w and w^-1 both minimal non-separable."""
    return tuple(filter(_doubly_minimal, all_windows(n)))


def check_sign_structure(n: int) -> LemmaReport:
    """
    For doubly minimal w with |w_n| = n-1 and the magnitude-n entry at a
    place i <= n-2: every entry before place i exceeds every entry after
    it and both are positive when w_n = -(n-1), with both negative and the
    comparison reversed when w_n = n-1; the two entry value sets are then
    the forced consecutive runs.
    """
    def case(w: Window) -> dict | None:
        i = _pivot(w)
        before, after = w[:i], w[i + 1:-1]
        s = 1 if w[-1] < 0 else -1  # the sign both runs must carry
        ordered = all(s * b > s * a > 0 for b in before for a in after)
        sets_ok = (set(before) == {s * x for x in range(n - i - 1, n - 1)}
                   and set(after) == {s * x for x in range(1, n - i - 1)})
        return None if ordered and sets_ok else {"window": w, "pivot_place": i + 1}

    return _sweep("sign-structure", n, lambda n: (
        w for w in doubly_minimal_elements(n) if abs(w[-1]) == n - 1 and _pivot(w) <= n - 3
    ), case)


def _shift_case(w: Window) -> tuple[str, int] | None:
    """Classify w for the coefficient-shift check: ('plus'|'minus', 0-based place)."""
    n = len(w)
    i = _pivot(w)
    if i > n - 3:
        return None
    if w[-1] == -(n - 1) and w[i] == n:
        return "plus", i
    if w[-1] == n - 1 and w[i] == -n:
        return "minus", i
    return None


def _shift_witness(w: Window, sign: str, i: int) -> dict | None:
    """The coefficient-shift test on one classified w; None when it holds."""
    place = i + 1  # 1-based place of the magnitude-n entry
    f = ideal_polynomial("lower-left", w)
    lw = length(w)
    delta = 1 if sign == "plus" else -1
    ok = all(f.coefficient(d) == f.coefficient(lw - d) for d in range(place))
    ok = ok and f.coefficient(place) == f.coefficient(lw - place) + delta
    ok = ok and not f.is_symmetric()
    return None if ok else {"window": w, "pivot_place": place, "coeffs": f.to_list()}


def check_coefficient_shift(w: Window, sign: str) -> LemmaReport:
    """
    For doubly minimal w with last entry -+(n-1) and the magnitude-n entry
    at place i <= n-2: with f the rank polynomial of the lower left ideal
    of w, the coefficients of q^d and q^(length-d) agree for d < i and
    differ by exactly +1 ('plus' shape, entries n .. -(n-1)) or -1
    ('minus' shape, entries -n .. n-1) at d = i; so f is not symmetric.
    """
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if not is_doubly_minimal(w):
        raise ValueError(f"{w!r} is not doubly minimal non-separable")
    case = _shift_case(w)
    if case is None or case[0] != sign:
        raise ValueError(f"{w!r} does not match the {sign} entry shape")
    return lemma_report("coefficient-shift", len(w), [_shift_witness(w, *case)],
                        counts={"pivot_place": case[1] + 1, "length": length(w)})


def check_coefficient_shift_all(n: int) -> LemmaReport:
    """Run the coefficient-shift check on every qualifying window."""
    return _sweep("coefficient-shift", n, lambda n: (
        w for w in doubly_minimal_elements(n) if _shift_case(w) is not None
    ), lambda w: _shift_witness(w, *_shift_case(w)))


def check_not_rank_symmetric(n: int) -> LemmaReport:
    """
    Doubly minimal w whose last two magnitudes are not {n-1, n} generate a
    right interval whose rank polynomial is not symmetric.
    """
    def case(w: Window) -> dict | None:
        f = ideal_polynomial("lower-right", w)
        return {"window": w, "coeffs": f.to_list()} if f.is_symmetric() else None

    return _sweep("not-rank-symmetric", n, lambda n: (
        w for w in doubly_minimal_elements(n) if {abs(w[-1]), abs(w[-2])} != {n - 1, n}
    ), case)


def check_unique_reduced_word(n: int) -> LemmaReport:
    """
    The window (1, ..., n-2, -n, n-1) has length 2n-2 and exactly one
    reduced word, (n-1, n-2, ..., 1, 0, 1, ..., n-2).
    """
    counts: dict[str, int] = {}

    def case(w: Window) -> dict | None:
        counts["length"] = length(w)
        expected = tuple(range(n - 1, 0, -1)) + tuple(range(0, n - 1))
        words = list(iter_reduced_words(w))
        count = reduced_word_count(w)
        if length(w) == 2 * n - 2 and count == 1 and words == [expected]:
            return None
        return {"window": w, "count": count, "words": [list(x) for x in words[:3]]}

    return _sweep("unique-reduced-word", n,
                  lambda n: [identity(n)[: n - 2] + (-n, n - 1)], case, counts)


def _factorization_witness(w: Window) -> dict | None:
    """
    The factorization test on one w ending (-n, n-1); None when it holds.
    With w = q * b over the subgroup without the last two generators, the
    searches below q^-1, b^-1 and w^-1 list the inverses of L(q), L(b)
    and L(w), and the products c * a = (x * y)^-1 of c = y^-1 and a = x^-1
    are read off the signed tables of the c.  L(w) = L(q) * L(b) exactly
    when #L(w) = #L(q) * #L(b), the products are the inverses of L(w), and
    (as length(ca) <= length(c) + length(a)) the length sums agree.
    """
    n = len(w)
    wq, wj = parabolic_factor(w, (n - 2, n - 1))
    a_levels, c_levels, w_levels = (list(_levels(inverse(v))) for v in (wq, wj, w))
    tables = [[0, *c, *(-v for v in reversed(c))] for c in chain.from_iterable(c_levels)]
    products = _products(tables, chain.from_iterable(a_levels))
    # The levels of a lower left ideal's search run up from its bottom.
    a_sizes, c_sizes, w_sizes = (list(map(len, ls)) for ls in (a_levels, c_levels, w_levels))
    split = (sum(w_sizes) == sum(a_sizes) * sum(c_sizes)
             and products == set(chain.from_iterable(w_levels))
             and sum(c_sizes) * _length_sum(a_sizes) + sum(a_sizes) * _length_sum(c_sizes)
             == _length_sum(w_sizes))
    poly_ok = Poly(w_sizes) == Poly.geometric(2 * n - 2) * Poly(c_sizes)
    return None if split and poly_ok else {"window": w}


def check_factorization_bijection(w: Window) -> LemmaReport:
    """
    For w ending in (-n, n-1): the pairwise products of the lower ideals
    of the two parabolic factors (deleting the last two generators) are
    distinct, length-additive, and exactly cover the lower ideal of w, so
    its rank polynomial factors as (1 + q + ... + q^(2n-2)) times the
    subgroup factor's polynomial.
    """
    n = len(w)
    if n < 2 or w[-2] != -n or w[-1] != n - 1:
        raise ValueError(f"{w!r} does not end in (-n, n-1)")
    return lemma_report("factorization", n, [_factorization_witness(w)])


def _factorization_universe(n: int) -> Iterator[Window]:
    """The rank-n windows ending (-n, n-1), in the order of all_windows(n)."""
    return (v + (-n, n - 1) for v in (all_windows(n - 2) if n > 2 else [()]))


def check_factorization_bijection_all(n: int) -> LemmaReport:
    """Run the factorization check on every rank-n window ending (-n, n-1)."""
    return _sweep("factorization", n, _factorization_universe, _factorization_witness)


def _top_tail_windows(n: int) -> Iterator[Window]:
    """
    The rank-n windows whose last two magnitudes are {n-1, n}, in the
    order of all_windows(n): each permutation of 1..n-2 with the tail
    n-1, n and then n, n-1, every sign pattern on each.
    """
    for head in permutations(range(1, n - 1)):
        for tail in ((n - 1, n), (n, n - 1)):
            for signs in product((1, -1), repeat=n):
                yield tuple(s * x for s, x in zip(signs, head + tail))


def check_rank_symmetry_proposition(n: int) -> LemmaReport:
    """
    Minimal non-separable w whose last two magnitudes are {n-1, n} have a
    symmetric and unimodal lower-ideal rank polynomial.
    """
    def case(w: Window) -> dict | None:
        f = ideal_polynomial("lower-left", w)
        if f.is_symmetric() and f.is_unimodal():
            return None
        return {"window": w, "coeffs": f.to_list()}

    return _sweep("rank-symmetry", n,
                  lambda n: (w for w in _top_tail_windows(n) if _minimal(w)), case)


def check_separable_product_identity(n: int) -> LemmaReport:
    """
    For every separable w: the lower and upper ideal rank polynomials are
    symmetric, unimodal, and multiply to the full length generating
    polynomial of the group.
    """
    lower: dict[Window, Poly] = {}

    def universe(n: int) -> Iterable[Window]:
        for w in all_windows(n):
            if _separable(w):
                lower[w] = ideal_polynomial("lower-left", w)
        return lower

    def case(w: Window) -> dict | None:
        # The six forbidden patterns are closed under negation, as
        # sts(-s) = -sts(s), so -w is separable with w; and x -> -x
        # reverses the left order, so the upper ideal of w is the lower
        # ideal of -w negated, its polynomial that of -w reversed.
        upper = lower[tuple(-x for x in w)].reversed()
        ok = (
            lower[w] * upper == group_poincare(n)
            and lower[w].is_symmetric()
            and lower[w].is_unimodal()
            and upper.is_symmetric()
            and upper.is_unimodal()
        )
        return None if ok else {"window": w}

    return _sweep("product-identity", n, universe, case)


def check_classifier_equivalence(n: int) -> LemmaReport:
    """
    The six-pattern separability test agrees with the recursive pivot test
    over the root system, on every rank-n window.
    """
    def case(w: Window) -> dict | None:
        by_patterns = _separable(w)
        by_roots = is_separable_recursive(inversion_mask(w), full_system(n))
        if by_patterns == by_roots:
            return None
        return {"window": w, "patterns": by_patterns, "recursive": by_roots}

    return _sweep("classifier-equivalence", n, all_windows, case)


def check_minimality_equivalence(n: int) -> LemmaReport:
    """
    The window test for minimal non-separability agrees with the blockwise
    definition on every rank-n window, and the inverse-minimality test
    agrees with testing the inverse directly on every minimal one.
    """
    counts = {"minimal_nonseparable": 0}

    def case(w: Window) -> dict | None:
        fast = _minimal(w)
        if fast != _minimal_definitional(w):
            return {"window": w, "disagreement": "minimality"}
        if not fast:
            return None
        counts["minimal_nonseparable"] += 1
        if _inverse_minimal(w) == _minimal(inverse(w)):
            return None
        return {"window": w, "disagreement": "inverse-minimality"}

    return _sweep("minimality-equivalence", n, all_windows, case, counts)


def check_interval_identity(n: int) -> LemmaReport:
    """
    The generalized quotient of every principal right interval equals the
    principal left interval below w0 * u^-1, by the exact filter.
    """
    return _sweep("interval-identity", n, all_windows,
                  lambda u: None if quotient_interval_identity(u) else {"window": u})


#: Verification matrix: check id -> check taking the rank n.
CHECKS = {
    "theorem": verify_main_theorem,
    "sign-structure": check_sign_structure,
    "coefficient-shift": check_coefficient_shift_all,
    "not-rank-symmetric": check_not_rank_symmetric,
    "unique-reduced-word": check_unique_reduced_word,
    "factorization": check_factorization_bijection_all,
    "rank-symmetry": check_rank_symmetry_proposition,
    "product-identity": check_separable_product_identity,
    "classifier-equivalence": check_classifier_equivalence,
    "minimality-equivalence": check_minimality_equivalence,
    "interval-identity": check_interval_identity,
}
