"""The lemma-level verification surface."""

import sys

import pytest

from bweyl import signed_perm, theorems
from bweyl.cli import main
from bweyl.patterns import parabolic_factor
from bweyl.polynomials import Poly
from bweyl.quotients import _splitting_report
from bweyl.reports import RANKS, LemmaReport
from bweyl.signed_perm import all_windows, identity, length
from bweyl.theorems import (
    CHECKS,
    _factorization_universe,
    _factorization_witness,
    _sweep,
    _top_tail_windows,
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
from bweyl.weak_order import ideal_polynomial, lower_ideal_left, rank_polynomial


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


def literal_factorization_witness(w):
    """The factorization test by its definition: three ideals, every product composed."""
    n = len(w)
    wq, wj = parabolic_factor(w, (n - 2, n - 1))
    ideal_q, ideal_j, ideal_w = (lower_ideal_left(v) for v in (wq, wj, w))
    split = _splitting_report(sorted(ideal_q), sorted(ideal_j), ideal_w, len(ideal_w))
    poly_ok = rank_polynomial(ideal_w) == Poly.geometric(2 * n - 2) * rank_polynomial(ideal_j)
    return None if split.is_splitting and poly_ok else {"window": w}


def test_factorization_walk_matches_the_literal_check_on_every_window():
    # Every window, not only those ending (-n, n-1): most others fail, so
    # both verdicts are compared.
    for n in (2, 3, 4, 5):
        verdicts = set()
        for w in all_windows(n):
            witness = _factorization_witness(w)
            assert witness == literal_factorization_witness(w), w
            verdicts.add(witness is None)
        assert verdicts == {True, False}, n


def test_factorization_rejects_products_that_miss_the_ideal(monkeypatch):
    # w and v end (-4, 3) and have the same rank polynomial, so with the
    # factors of v the walk is additive, the sizes match and the polynomial
    # test holds: only the comparison with L(w) rejects.
    w, v = (1, -2, -4, 3), (-2, -1, -4, 3)
    assert literal_factorization_witness(w) is None
    assert literal_factorization_witness(v) is None
    assert rank_polynomial(lower_ideal_left(w)) == rank_polynomial(lower_ideal_left(v))
    monkeypatch.setattr(theorems, "parabolic_factor",
                        lambda _, removed: parabolic_factor(v, removed))
    assert _factorization_witness(w) == {"window": w}
    assert _factorization_witness(v) is None


def test_factorization_composes_nothing(monkeypatch):
    # The walk moves places; a return to per-product work would compose,
    # or invert once per element.
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "bweyl"]
    counts = {"compose": 0, "inverse": 0}
    for name in counts:
        original = getattr(signed_perm, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    windows = list(_factorization_universe(5))
    for w in windows:
        assert check_factorization_bijection(w).passed
    assert counts["compose"] == 0
    assert 0 < counts["inverse"] <= 3 * len(windows)


def test_direct_universes_match_the_group_filter():
    for n in range(2, 7):
        assert list(_factorization_universe(n)) == [
            w for w in all_windows(n) if w[-2] == -n and w[-1] == n - 1
        ], n
    for n in range(3, 7):
        assert list(_top_tail_windows(n)) == [
            w for w in all_windows(n) if {abs(w[-1]), abs(w[-2])} == {n - 1, n}
        ], n


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


def test_product_identity_searches_each_separable_window_once(monkeypatch, capsys):
    # -w is separable with w and P_U(w) is P_L(-w) reversed, so one lower
    # ideal search per separable window serves both polynomials; the rank
    # guard refuses before any search.
    kinds = []

    def counted(kind, w):
        kinds.append(kind)
        return ideal_polynomial(kind, w)

    monkeypatch.setattr(theorems, "ideal_polynomial", counted)
    with pytest.raises(ValueError):
        check_separable_product_identity(7)
    assert kinds == []
    assert main(["verify", "product-identity", "--n", "4", "--format", "json"]) == 0
    assert '"pass": true' in capsys.readouterr().out
    assert kinds == ["lower-left"] * 90


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
        check_separable_product_identity(7)
    with pytest.raises(ValueError):
        check_interval_identity(6)
    with pytest.raises(ValueError):
        check_unique_reduced_word(1)


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("n", [True, 2.0, "3"], ids=repr)
def test_every_check_refuses_a_rank_that_is_not_an_int(check, n):
    # True == 1 and 2.0 == 2 pass a range test alone; "3" fails it with TypeError
    with pytest.raises(ValueError, match="accepts ranks"):
        CHECKS[check](n)


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
