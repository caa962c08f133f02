"""Acceptance suite: one test per criterion, each printed with its runtime.

Every expected value here is exact; the asserted time limits are the
stated targets for a desk-scale machine.
"""

import time
from itertools import chain, combinations

from bweyl.catalog import B2_SEPARABLE, ST_FIBER_2413, ST_FIBER_3142
from bweyl.patterns import (
    inverse_minimality_criterion,
    is_minimal_nonseparable_definitional,
    is_minimal_nonseparable_fast,
    is_separable,
    st,
)
from bweyl.polynomials import Poly, from_counts, group_poincare
from bweyl.quotients import quotient_interval_identity, verify_main_theorem
from bweyl.root_system import full_system, inversion_roots, is_separable_recursive
from bweyl.signed_perm import (
    all_windows,
    compose,
    inverse,
    inversion_mask,
    length,
    longest_element,
)
from bweyl.theorems import (
    check_coefficient_shift,
    check_coefficient_shift_all,
    check_factorization_bijection_all,
    check_rank_symmetry_proposition,
    check_separable_product_identity,
    check_unique_reduced_word,
)
from bweyl.weak_order import lower_ideal_left, rank_polynomial


def timed(label, limit_seconds, body):
    start = time.perf_counter()
    body()
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {label}: PASS in {elapsed:.2f}s (limit {limit_seconds}s)")
    assert elapsed < limit_seconds, f"{label} exceeded {limit_seconds}s ({elapsed:.2f}s)"


def test_criterion_01_rank_two_separable_classification():
    def body():
        separable = {w for w in all_windows(2) if is_separable(w)}
        assert separable == set(B2_SEPARABLE)
        for w, roots in B2_SEPARABLE.items():
            assert inversion_roots(w) == roots

    timed("criterion 1 (rank-2 separable set and inversion roots)", 1.0, body)


def test_criterion_02_standardization_fibers():
    def body():
        assert {w for w in all_windows(4) if st(w) == (3, 1, 4, 2)} == ST_FIBER_3142
        assert {w for w in all_windows(4) if st(w) == (2, 4, 1, 3)} == ST_FIBER_2413

    timed("criterion 2 (rank-4 standardization fibers)", 1.0, body)


def test_criterion_03_ideal_rank_polynomials():
    def body():
        f = rank_polynomial(lower_ideal_left((-2, 3, 4, 5, 1)))
        g = rank_polynomial(lower_ideal_left((2, 3, 4, 5, -1)))
        assert f == Poly((1, 2, 2, 2, 1, 1)) and not f.is_symmetric()
        assert g == Poly((1, 1, 1, 1, 1, 1)) and g.is_symmetric()

    timed("criterion 3 (the two contrasting ideal polynomials)", 1.0, body)


def test_criterion_04a_splitting_theorem_small_ranks():
    def body():
        for n in (2, 3, 4):
            report = verify_main_theorem(n)
            assert report.passed and not report.witnesses, report

    timed("criterion 4a (splitting theorem, ranks 2-4)", 10.0, body)


def test_criterion_04b_splitting_theorem_rank_five():
    def body():
        report = verify_main_theorem(5)
        assert report.passed and report.universe_size == 3840, report

    timed("criterion 4b (splitting theorem, rank 5)", 300.0, body)


def test_criterion_05_classifier_equivalence():
    def body():
        checked = 0
        for n in (2, 3, 4):
            sys = full_system(n)
            for w in all_windows(n):
                assert is_separable(w) == is_separable_recursive(
                    inversion_mask(w), sys
                ), w
                checked += 1
        assert checked == 440

    timed("criterion 5 (pattern test == recursive pivot test, 440 windows)",
          30.0, body)


def test_criterion_06_minimality_equivalences():
    def body():
        for n in (4, 5):
            for w in all_windows(n):
                fast = is_minimal_nonseparable_fast(w)
                assert fast == is_minimal_nonseparable_definitional(w), w
                if fast:
                    assert inverse_minimality_criterion(w) == (
                        is_minimal_nonseparable_fast(inverse(w))
                    ), w

    timed("criterion 6 (minimality tests agree, ranks 4-5)", 60.0, body)


def test_criterion_07_separable_product_identity():
    def body():
        report = check_separable_product_identity(4)
        assert report.passed and report.universe_size == 90, report

    timed("criterion 7 (ideal product identity, separable rank-4)", 60.0, body)


def test_criterion_08_coefficient_shift():
    def body():
        plus = check_coefficient_shift((2, 3, 5, 1, -4), "plus")
        assert plus.passed and plus.counts == {"pivot_place": 3, "length": 11}
        minus = check_coefficient_shift((-2, -3, -5, -1, 4), "minus")
        assert minus.passed
        for n in (4, 5):
            report = check_coefficient_shift_all(n)
            assert report.passed, report

    timed("criterion 8 (one-coefficient shift, named and exhaustive)", 60.0, body)


def test_criterion_09_unique_reduced_word():
    def body():
        for n in range(2, 7):
            report = check_unique_reduced_word(n)
            assert report.passed and report.counts == {"length": 2 * n - 2}, report

    timed("criterion 9 (unique reduced word, ranks 2-6)", 10.0, body)


def test_criterion_10_factorization_bijection():
    def body():
        for n in (4, 5):
            report = check_factorization_bijection_all(n)
            assert report.passed and report.universe_size > 0, report

    timed("criterion 10 (ideal factorization for the (-n, n-1) tail)", 60.0, body)


def test_criterion_11_rank_symmetry_proposition():
    def body():
        report = check_rank_symmetry_proposition(5)
        assert report.passed and not report.vacuous, report

    timed("criterion 11 (rank symmetry for top-magnitude tails, rank 5)",
          60.0, body)


def test_criterion_12_infrastructure_identities():
    def body():
        for n in range(1, 6):
            counted = from_counts([length(w) for w in all_windows(n)])
            assert group_poincare(n) == counted, n
        for u in all_windows(4):
            assert quotient_interval_identity(u), u
        w0 = longest_element(4)
        for w in all_windows(4):
            if not is_separable(w):
                assert not is_separable(compose(w0, w))
                assert not is_separable(compose(w, w0))
            if is_minimal_nonseparable_fast(w):
                assert is_minimal_nonseparable_fast(compose(w0, w))
                assert is_minimal_nonseparable_fast(compose(w, w0))

    timed("criterion 12 (length polynomial, interval identity, longest-element"
          " multiplication)", 120.0, body)
