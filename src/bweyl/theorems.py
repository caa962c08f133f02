"""
Machine checks for the structural facts about minimal non-separable
windows and their order ideals: entry-sign structure, the one-coefficient
failure of rank symmetry, the unique-reduced-word element, the ideal
factorization for windows ending (-n, n-1), and the product identity for
separable elements.

Every check enumerates its qualifying universe internally and returns a
LemmaReport; a check with no qualifying elements passes vacuously.
"""

from __future__ import annotations

from functools import lru_cache

from .patterns import (
    inverse_minimality_criterion,
    is_doubly_minimal,
    is_minimal_nonseparable_definitional,
    is_minimal_nonseparable_fast,
    is_separable,
    parabolic_factor,
)
from .polynomials import Poly, group_poincare
from .quotients import quotient_interval_identity, verify_main_theorem
from .reports import LemmaReport
from .root_system import full_system, inversion_roots, is_separable_recursive
from .signed_perm import Window, all_windows, compose, identity, inverse, length
from .weak_order import (
    interval_right,
    iter_reduced_words,
    lower_ideal_left,
    rank_polynomial,
    reduced_word_count,
    upper_ideal_left,
)


def _report(
    lemma_id: str,
    n: int,
    universe: int,
    witnesses: list,
    counts: dict[str, int] | None = None,
) -> LemmaReport:
    return LemmaReport(
        lemma_id=lemma_id,
        n=n,
        universe_size=universe,
        passed=not witnesses,
        witnesses=tuple(witnesses),
        vacuous=universe == 0,
        counts=counts or {},
    )


@lru_cache(maxsize=4)  # one entry per rank the checks accept, 3..6
def doubly_minimal_elements(n: int) -> tuple[Window, ...]:
    """Windows w with w and w^-1 both minimal non-separable."""
    return tuple(w for w in all_windows(n) if is_doubly_minimal(w))


def check_sign_structure(n: int) -> LemmaReport:
    """
    For doubly minimal w with |w_n| = n-1 and the magnitude-n entry at a
    place i <= n-2: every entry before place i exceeds every entry after
    it and both are positive when w_n = -(n-1), with both negative and the
    comparison reversed when w_n = n-1; the two entry value sets are then
    the forced consecutive runs.
    """
    if not 3 <= n <= 6:
        raise ValueError(f"supported ranks are 3..6, got {n}")
    witnesses = []
    universe = 0
    for w in doubly_minimal_elements(n):
        if abs(w[-1]) != n - 1:
            continue
        i = next(k for k in range(n) if abs(w[k]) == n)
        if i > n - 3:
            continue
        universe += 1
        before, after = w[:i], w[i + 1:-1]
        if w[-1] < 0:
            ordered = all(b > a > 0 for b in before for a in after)
            sets_ok = (
                set(before) == set(range(n - i - 1, n - 1))
                and set(after) == set(range(1, n - i - 1))
            )
        else:
            ordered = all(b < a < 0 for b in before for a in after)
            sets_ok = (
                set(before) == set(range(-(n - 2), -(n - i - 2)))
                and set(after) == set(range(-(n - i - 2), 0))
            )
        if not (ordered and sets_ok):
            witnesses.append({"window": w, "pivot_place": i + 1})
    return _report("sign-structure", n, universe, witnesses)


def _shift_case(w: Window) -> tuple[str, int] | None:
    """Classify w for the coefficient-shift check: ('plus'|'minus', place)."""
    n = len(w)
    i = next(k for k in range(n) if abs(w[k]) == n)
    if i > n - 3:
        return None
    if w[-1] == -(n - 1) and w[i] == n:
        return "plus", i
    if w[-1] == n - 1 and w[i] == -n:
        return "minus", i
    return None


def check_coefficient_shift(w: Window, sign: str) -> LemmaReport:
    """
    For doubly minimal w with last entry -+(n-1) and the magnitude-n entry
    at place i <= n-2: with f the rank polynomial of the lower left ideal
    of w, the coefficients of q^d and q^(length-d) agree for d < i and
    differ by exactly +1 ('plus' shape, entries n .. -(n-1)) or -1
    ('minus' shape, entries -n .. n-1) at d = i; so f is not symmetric.
    """
    n = len(w)
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if not is_doubly_minimal(w):
        raise ValueError(f"{w!r} is not doubly minimal non-separable")
    case = _shift_case(w)
    if case is None or case[0] != sign:
        raise ValueError(f"{w!r} does not match the {sign} entry shape")
    place = case[1] + 1  # 1-based place of the magnitude-n entry
    f = rank_polynomial(lower_ideal_left(w))
    lw = length(w)
    delta = 1 if sign == "plus" else -1
    ok = all(f.coefficient(d) == f.coefficient(lw - d) for d in range(place))
    ok = ok and f.coefficient(place) == f.coefficient(lw - place) + delta
    ok = ok and not f.is_symmetric()
    witnesses = [] if ok else [
        {"window": w, "pivot_place": place, "coeffs": f.to_list()}
    ]
    return _report(
        "coefficient-shift", n, 1, witnesses,
        counts={"pivot_place": place, "length": lw},
    )


def check_coefficient_shift_all(n: int) -> LemmaReport:
    """Run the coefficient-shift check on every qualifying window."""
    if not 3 <= n <= 6:
        raise ValueError(f"supported ranks are 3..6, got {n}")
    witnesses = []
    universe = 0
    for w in doubly_minimal_elements(n):
        case = _shift_case(w)
        if case is None:
            continue
        universe += 1
        sub = check_coefficient_shift(w, case[0])
        if not sub.passed:
            witnesses.extend(sub.witnesses)
    return _report("coefficient-shift", n, universe, witnesses)


def check_not_rank_symmetric(n: int) -> LemmaReport:
    """
    Doubly minimal w whose last two magnitudes are not {n-1, n} generate a
    right interval whose rank polynomial is not symmetric.
    """
    if not 3 <= n <= 6:
        raise ValueError(f"supported ranks are 3..6, got {n}")
    witnesses = []
    universe = 0
    for w in doubly_minimal_elements(n):
        if {abs(w[-1]), abs(w[-2])} == {n - 1, n}:
            continue
        universe += 1
        f = rank_polynomial(interval_right(w))
        if f.is_symmetric():
            witnesses.append({"window": w, "coeffs": f.to_list()})
    return _report("not-rank-symmetric", n, universe, witnesses)


def check_unique_reduced_word(n: int) -> LemmaReport:
    """
    The window (1, ..., n-2, -n, n-1) has length 2n-2 and exactly one
    reduced word, (n-1, n-2, ..., 1, 0, 1, ..., n-2).
    """
    if n < 2:
        raise ValueError(f"rank must be at least 2, got {n}")
    w = identity(n)[: n - 2] + (-n, n - 1)
    expected = tuple(range(n - 1, 0, -1)) + tuple(range(0, n - 1))
    words = list(iter_reduced_words(w))
    ok = (
        length(w) == 2 * n - 2
        and reduced_word_count(w) == 1
        and words == [expected]
    )
    witnesses = [] if ok else [
        {
            "window": w,
            "count": reduced_word_count(w),
            "words": [list(x) for x in words[:3]],
        }
    ]
    return _report(
        "unique-reduced-word", n, 1, witnesses, counts={"length": length(w)}
    )


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
    wq, wj = parabolic_factor(w, (n - 2, n - 1))
    ideal_q = lower_ideal_left(wq)
    ideal_j = lower_ideal_left(wj)
    ideal_w = lower_ideal_left(w)
    ys = [(y, length(y)) for y in ideal_j]
    products: dict[Window, tuple[Window, Window]] = {}
    ok = True
    for x in ideal_q:
        if not ok:
            break
        lx = length(x)
        for y, ly in ys:
            xy = compose(x, y)
            if length(xy) != lx + ly or xy in products:
                ok = False
                break
            products[xy] = (x, y)
    ok = ok and frozenset(products) == ideal_w.elements
    poly_ok = rank_polynomial(ideal_w) == Poly.geometric(2 * n - 2) * rank_polynomial(
        ideal_j
    )
    witnesses = [] if ok and poly_ok else [{"window": w}]
    return _report("factorization", n, 1, witnesses)


def check_factorization_bijection_all(n: int) -> LemmaReport:
    """Run the factorization check on every rank-n window ending (-n, n-1)."""
    if n < 2:
        raise ValueError(f"rank must be at least 2, got {n}")
    witnesses = []
    universe = 0
    for w in all_windows(n):
        if w[-2] == -n and w[-1] == n - 1:
            universe += 1
            sub = check_factorization_bijection(w)
            if not sub.passed:
                witnesses.extend(sub.witnesses)
    return _report("factorization", n, universe, witnesses)


def check_rank_symmetry_proposition(n: int) -> LemmaReport:
    """
    Minimal non-separable w whose last two magnitudes are {n-1, n} have a
    symmetric and unimodal lower-ideal rank polynomial.
    """
    if not 3 <= n <= 6:
        raise ValueError(f"supported ranks are 3..6, got {n}")
    witnesses = []
    universe = 0
    for w in all_windows(n):
        if {abs(w[-1]), abs(w[-2])} != {n - 1, n}:
            continue
        if not is_minimal_nonseparable_fast(w):
            continue
        universe += 1
        f = rank_polynomial(lower_ideal_left(w))
        if not (f.is_symmetric() and f.is_unimodal()):
            witnesses.append({"window": w, "coeffs": f.to_list()})
    return _report("rank-symmetry", n, universe, witnesses)


def check_separable_product_identity(n: int) -> LemmaReport:
    """
    For every separable w: the lower and upper ideal rank polynomials are
    symmetric, unimodal, and multiply to the full length generating
    polynomial of the group.
    """
    if not 2 <= n <= 5:
        raise ValueError(f"supported ranks are 2..5, got {n}")
    target = group_poincare(n)
    witnesses = []
    universe = 0
    for w in all_windows(n):
        if not is_separable(w):
            continue
        universe += 1
        lower = rank_polynomial(lower_ideal_left(w))
        upper = rank_polynomial(upper_ideal_left(w))
        ok = (
            lower * upper == target
            and lower.is_symmetric()
            and lower.is_unimodal()
            and upper.is_symmetric()
            and upper.is_unimodal()
        )
        if not ok:
            witnesses.append({"window": w})
    return _report("product-identity", n, universe, witnesses)


def check_classifier_equivalence(n: int) -> LemmaReport:
    """
    The six-pattern separability test agrees with the recursive pivot test
    over the root system, on every rank-n window.
    """
    if not 1 <= n <= 5:
        raise ValueError(f"supported ranks are 1..5, got {n}")
    sys = full_system(n)
    witnesses = []
    universe = 0
    for w in all_windows(n):
        universe += 1
        by_patterns = is_separable(w)
        by_roots = is_separable_recursive(inversion_roots(w), sys)
        if by_patterns != by_roots:
            witnesses.append(
                {"window": w, "patterns": by_patterns, "recursive": by_roots}
            )
    return _report("classifier-equivalence", n, universe, witnesses)


def check_minimality_equivalence(n: int) -> LemmaReport:
    """
    The window test for minimal non-separability agrees with the blockwise
    definition on every rank-n window, and the inverse-minimality test
    agrees with testing the inverse directly on every minimal one.
    """
    if not 1 <= n <= 6:
        raise ValueError(f"supported ranks are 1..6, got {n}")
    witnesses = []
    universe = 0
    minimal = 0
    for w in all_windows(n):
        universe += 1
        fast = is_minimal_nonseparable_fast(w)
        if fast != is_minimal_nonseparable_definitional(w):
            witnesses.append({"window": w, "disagreement": "minimality"})
            continue
        if fast:
            minimal += 1
            if inverse_minimality_criterion(w) != is_minimal_nonseparable_fast(
                inverse(w)
            ):
                witnesses.append({"window": w, "disagreement": "inverse-minimality"})
    return _report(
        "minimality-equivalence", n, universe, witnesses,
        counts={"minimal_nonseparable": minimal},
    )


def check_interval_identity(n: int) -> LemmaReport:
    """
    The generalized quotient of every principal right interval equals the
    principal left interval below w0 * u^-1, by the exact filter.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"supported ranks are 1..4, got {n}")
    witnesses = []
    universe = 0
    for u in all_windows(n):
        universe += 1
        if not quotient_interval_identity(u):
            witnesses.append({"window": u})
    return _report("interval-identity", n, universe, witnesses)


#: Verification matrix: check id -> runner taking (n, jobs).
CHECKS = {
    "theorem": lambda n, jobs=1: verify_main_theorem(n, jobs=jobs),
    "sign-structure": lambda n, jobs=1: check_sign_structure(n),
    "coefficient-shift": lambda n, jobs=1: check_coefficient_shift_all(n),
    "not-rank-symmetric": lambda n, jobs=1: check_not_rank_symmetric(n),
    "unique-reduced-word": lambda n, jobs=1: check_unique_reduced_word(n),
    "factorization": lambda n, jobs=1: check_factorization_bijection_all(n),
    "rank-symmetry": lambda n, jobs=1: check_rank_symmetry_proposition(n),
    "product-identity": lambda n, jobs=1: check_separable_product_identity(n),
    "classifier-equivalence": lambda n, jobs=1: check_classifier_equivalence(n),
    "minimality-equivalence": lambda n, jobs=1: check_minimality_equivalence(n),
    "interval-identity": lambda n, jobs=1: check_interval_identity(n),
}
