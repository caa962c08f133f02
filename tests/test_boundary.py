"""The package root is the public boundary: every export that takes a
window, a collection, a generator index or a rank raises ValueError on a
malformed one, and nothing else is exported."""

import importlib

import pytest

import bweyl
from bweyl import (
    RootSubsystem,
    all_windows,
    contains_pattern,
    full_system,
    generalized_quotient,
    group_order,
    group_poincare,
    ideal_polynomial,
    identity,
    inverse_minimality_criterion,
    inversion_roots,
    is_doubly_minimal,
    is_minimal_nonseparable_definitional,
    is_minimal_nonseparable_fast,
    is_separable,
    is_splitting,
    iter_reduced_words,
    longest_element,
    parabolic_factor,
    parse_window,
    quotient_interval_identity,
    quotient_of_interval,
    reduced_word_count,
    simple_reflection,
    splits_with_interval,
    st,
    sts,
    subsystem_spanned_by,
    validate_window,
    verify_main_theorem,
)

BAD_WINDOWS = [(1, 1), (0, 3), (), (True, 2), (1.0, 2), None]
BAD_RANKS = [True, 2.0, "3"]
BAD_GENERATORS = [True, 1.0, -1, 3]  # at rank 3
BAD_COLLECTIONS = [None, 3]

#: Export -> calls feeding it a window argument.  A collection argument
#: gets a one-element list holding the window.
TAKES_WINDOW = {
    "contains_pattern": [lambda w: contains_pattern(w, (2, 1)),
                         lambda p: contains_pattern((2, 1), p)],
    "inverse_minimality_criterion": [inverse_minimality_criterion],
    "is_doubly_minimal": [is_doubly_minimal],
    "is_minimal_nonseparable_definitional": [is_minimal_nonseparable_definitional],
    "is_minimal_nonseparable_fast": [is_minimal_nonseparable_fast],
    "is_separable": [is_separable],
    "parabolic_factor": [lambda w: parabolic_factor(w, (1,))],
    "st": [st],
    "sts": [sts],
    "quotient_interval_identity": [quotient_interval_identity],
    "generalized_quotient": [lambda w: generalized_quotient([w], 2)],
    "is_splitting": [lambda w: is_splitting([w], [(1, 2)], 2),
                     lambda w: is_splitting([(1, 2)], [w], 2)],
    "quotient_of_interval": [quotient_of_interval],
    "splits_with_interval": [splits_with_interval],
    "inversion_roots": [inversion_roots],
    "parse_window": [parse_window],
    "validate_window": [validate_window],
    "ideal_polynomial": [lambda w: ideal_polynomial("lower-left", w),
                         lambda w: ideal_polynomial("lower-right", w)],
    "iter_reduced_words": [iter_reduced_words],
    "reduced_word_count": [reduced_word_count],
}

#: Export -> calls feeding it a rank argument.
TAKES_RANK = {
    "verify_main_theorem": [verify_main_theorem],
    "generalized_quotient": [lambda n: generalized_quotient([(1, 2)], n)],
    "is_splitting": [lambda n: is_splitting([(1, 2)], [(1, 2)], n)],
    "group_poincare": [group_poincare],
    "full_system": [full_system],
    "RootSubsystem": [lambda n: RootSubsystem(n, ())],
    "all_windows": [all_windows],
    "group_order": [group_order],
    "identity": [identity],
    "longest_element": [longest_element],
    "simple_reflection": [lambda n: simple_reflection(n, 0)],
}

#: Export -> calls feeding it a generator index of rank 3.
TAKES_GENERATOR = {
    "simple_reflection": [lambda i: simple_reflection(3, i)],
    "parabolic_factor": [lambda i: parabolic_factor((2, 1, 3), (i,))],
    "subsystem_spanned_by": [lambda i: subsystem_spanned_by(full_system(3), [i])],
}

#: Export -> calls feeding it a collection argument itself.
TAKES_COLLECTION = {
    "generalized_quotient": [lambda c: generalized_quotient(c, 2)],
    "is_splitting": [lambda c: is_splitting(c, [(1, 2)], 2),
                     lambda c: is_splitting([(1, 2)], c, 2)],
    "parabolic_factor": [lambda c: parabolic_factor((2, 1, 3), c)],
    "subsystem_spanned_by": [lambda c: subsystem_spanned_by(full_system(3), c)],
}

#: Exports that take none of these: values, a type alias, polynomial
#: coefficients, subsystems and masks, and the report records the checks
#: build from ranks they have already checked.
TAKES_NEITHER = {
    "PATTERN_SETS", "Window", "Poly", "LemmaReport", "SplittingReport",
    "components", "is_separable_recursive",
}

#: Names the root no longer exports, each still defined in its module.
DROPPED = {
    "signed_perm": ["compose", "inverse", "length", "inversion_mask", "statistic_sets",
                    "format_window"],
    "polynomials": ["from_counts"],
    "root_system": ["dominance_leq"],
    "weak_order": ["lower_covers_left", "left_leq", "right_leq", "lower_ideal_left",
                   "upper_ideal_left", "interval_right", "rank_polynomial"],
}


def _cases(table, bad_values, kind=""):
    for name, calls in sorted(table.items()):
        for k, call in enumerate(calls):
            for bad in bad_values:
                if name in ("st", "sts") and bad == ():
                    continue  # any sequence standardizes, the empty one too
                yield pytest.param(call, bad, id=f"{kind}{name}#{k}-{bad!r}")


@pytest.mark.parametrize("call, bad", [*_cases(TAKES_WINDOW, BAD_WINDOWS),
                                       *_cases(TAKES_RANK, BAD_RANKS),
                                       *_cases(TAKES_GENERATOR, BAD_GENERATORS, "index:"),
                                       *_cases(TAKES_COLLECTION, BAD_COLLECTIONS, "collection:")])
def test_every_export_refuses_malformed_input(call, bad):
    # never another exception and never a value: a generator that would
    # fail only when read counts as a value
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("cached", [full_system, group_poincare], ids=lambda f: f.__name__)
def test_a_cached_rank_does_not_answer_an_equal_bool_or_float(cached):
    cached(1), cached(2)  # True == 1 and 2.0 == 2 hash alike
    for bad in (True, 2.0):
        with pytest.raises(ValueError):
            cached(bad)


def test_every_export_is_in_the_boundary_table():
    takes_something = set().union(TAKES_WINDOW, TAKES_RANK, TAKES_GENERATOR, TAKES_COLLECTION)
    assert set(bweyl.__all__) == takes_something | TAKES_NEITHER
    assert not TAKES_NEITHER & takes_something


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from bweyl import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(bweyl.__all__)
    assert len(set(bweyl.__all__)) == len(bweyl.__all__) == 37


@pytest.mark.parametrize("module, names", sorted(DROPPED.items()))
def test_dropped_names_stay_in_their_modules(module, names):
    mod = importlib.import_module(f"bweyl.{module}")
    for name in names:
        assert callable(getattr(mod, name)), name
        assert not hasattr(bweyl, name), name


def test_list_windows_are_accepted_as_tuples():
    assert generalized_quotient([[1, 2]], 2) == generalized_quotient([(1, 2)], 2)
    assert ideal_polynomial("lower-left", [2, 1]) == ideal_polynomial("lower-left", (2, 1))
