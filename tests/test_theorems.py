"""The lemma-level verification surface."""

import pytest

from bweyl.cli import main
from bweyl.polynomials import Poly
from bweyl.reports import RANKS, LemmaReport
from bweyl.signed_perm import all_windows, identity, length
from bweyl.theorems import (
    CHECKS,
    _sweep,
    check_coefficient_shift,
    check_coefficient_shift_all,
    check_factorization_bijection,
    check_factorization_bijection_all,
    check_interval_identity,
    check_minimality_equivalence,
    check_not_rank_symmetric,
    check_rank_symmetry_proposition,
    check_separable_product_identity,
    check_sign_structure,
    check_unique_reduced_word,
    doubly_minimal_elements,
)
from bweyl.weak_order import lower_ideal_left, rank_polynomial


def test_sign_structure_named_element():
    # the plus-shape element with the magnitude-5 entry at place 3
    w = (2, 3, 5, 1, -4)
    assert w in doubly_minimal_elements(5)
    report = check_sign_structure(5)
    assert report.passed and not report.vacuous
    assert report.universe_size >= 1


def test_doubly_minimal_elements_computed_once_per_rank():
    first = doubly_minimal_elements(4)
    assert isinstance(first, tuple)
    assert doubly_minimal_elements(4) is first


def test_sign_structure_small_ranks():
    for n in (3, 4):
        report = check_sign_structure(n)
        assert report.passed


def test_coefficient_shift_named_elements():
    plus = check_coefficient_shift((2, 3, 5, 1, -4), "plus")
    assert plus.passed
    assert plus.counts == {"pivot_place": 3, "length": 11}
    minus = check_coefficient_shift((-2, -3, -5, -1, 4), "minus")
    assert minus.passed


def test_coefficient_shift_rejections():
    with pytest.raises(ValueError):
        check_coefficient_shift(identity(5), "plus")
    with pytest.raises(ValueError):
        check_coefficient_shift((2, 3, 5, 1, -4), "minus")
    with pytest.raises(ValueError):
        check_coefficient_shift((2, 3, 5, 1, -4), "both")


def test_coefficient_shift_exhaustive_rank_four():
    report = check_coefficient_shift_all(4)
    assert report.passed


def test_not_rank_symmetric_small_ranks():
    for n in (3, 4):
        assert check_not_rank_symmetric(n).passed


def test_unique_reduced_word_small_ranks():
    for n in (2, 3, 4):
        report = check_unique_reduced_word(n)
        assert report.passed
        assert report.counts == {"length": 2 * n - 2}


def test_factorization_named_trivial_element():
    n = 4
    w = identity(n)[: n - 2] + (-n, n - 1)
    report = check_factorization_bijection(w)
    assert report.passed
    # the whole ideal is the geometric chain in this trivial-subgroup case
    assert rank_polynomial(lower_ideal_left(w)) == Poly.geometric(2 * n - 2)


def test_factorization_rejects_wrong_tail():
    with pytest.raises(ValueError):
        check_factorization_bijection((1, 2, 3, 4))


def test_factorization_iterates_each_ideal_once(monkeypatch):
    from bweyl.weak_order import Ideal

    calls = []
    iterate = Ideal.__iter__

    def counted(self):
        calls.append(self.apex)
        return iterate(self)

    monkeypatch.setattr(Ideal, "__iter__", counted)
    assert check_factorization_bijection((2, 1, -4, 3)).passed
    assert len(calls) == 2  # the two factor ideals, not once per element


def test_factorization_exhaustive_rank_four():
    report = check_factorization_bijection_all(4)
    assert report.passed
    assert report.universe_size == 8  # 2^(n-2) (n-2)! windows with that tail


def test_rank_symmetry_proposition_rank_four():
    report = check_rank_symmetry_proposition(4)
    assert report.passed and not report.vacuous


def test_product_identity_small_ranks():
    for n in (2, 3):
        report = check_separable_product_identity(n)
        assert report.passed
        assert report.universe_size == (6 if n == 2 else 22)


def test_minimality_equivalence_counts():
    report = check_minimality_equivalence(4)
    assert report.passed
    assert report.counts["minimal_nonseparable"] > 0


def test_interval_identity_small_rank():
    assert check_interval_identity(2).passed


def test_vacuous_reporting():
    report = check_coefficient_shift_all(3)
    if report.universe_size == 0:
        assert report.vacuous and report.passed
    else:
        assert not report.vacuous


def test_sweep_driver_builds_the_report():
    empty = _sweep("classifier-equivalence", 2, lambda n: [], lambda w: {"window": w})
    assert (empty.universe_size, empty.passed, empty.vacuous) == (0, True, True)
    found = _sweep("classifier-equivalence", 2, all_windows,
                   lambda w: {"window": w} if w[0] < 0 else None)
    assert (found.universe_size, found.passed, found.vacuous) == (8, False, False)
    assert [x["window"] for x in found.witnesses] == [w for w in all_windows(2) if w[0] < 0]


def test_checks_registry_runs_everything_small():
    needs_rank_three = {"sign-structure", "coefficient-shift",
                        "not-rank-symmetric", "rank-symmetry"}
    for name, runner in CHECKS.items():
        report = runner(3 if name in needs_rank_three else 2)
        assert isinstance(report, LemmaReport)
        assert report.passed, name


def test_rank_guards():
    with pytest.raises(ValueError):
        check_sign_structure(2)
    with pytest.raises(ValueError):
        check_separable_product_identity(6)
    with pytest.raises(ValueError):
        check_interval_identity(6)
    with pytest.raises(ValueError):
        check_unique_reduced_word(1)


@pytest.mark.parametrize("check", sorted(RANKS))
def test_rank_table_bounds_every_check(check, capsys):
    assert sorted(RANKS) == sorted(CHECKS)
    lo, hi = RANKS[check]
    for n in (lo - 1, hi + 1):
        with pytest.raises(ValueError, match=f"{lo}\\.\\.{hi}"):
            CHECKS[check](n)
        assert main(["verify", check, "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --n must be in {lo}..{hi}\n"
