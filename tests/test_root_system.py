"""Root coordinates, dominance, subsystems, and the recursive pivot test."""

import ast
import importlib
import pkgutil
import random
from itertools import combinations, product
from pathlib import Path

import bweyl
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bweyl.catalog import B2_SEPARABLE
from bweyl.root_system import (
    RootSubsystem,
    _coefficients,
    _decode,
    _tables,
    components,
    dominance_leq,
    full_system,
    inversion_roots,
    is_separable_recursive,
    subsystem_spanned_by,
)
from bweyl.patterns import _separable, is_separable, parabolic_factor
from bweyl.signed_perm import (
    all_windows,
    identity,
    inversion_mask,
    length,
    longest_element,
    statistic_sets,
)


def test_full_system_shape():
    sys2 = full_system(2)
    assert sys2.positive_roots == frozenset({(1, 0), (0, 1), (-1, 1), (1, 1)})
    assert sys2.positions == (0, 1)
    assert sys2.simple_roots == ((1, 0), (-1, 1))
    assert len(full_system(4).positive_roots) == 16
    assert full_system(1).positive_roots == frozenset({(1,)})
    with pytest.raises(ValueError):
        full_system(0)


def test_subsystem_positions_must_increase_inside_the_path():
    sub = RootSubsystem(3, (0, 2))
    assert sub.rank == 2
    assert sub.simple_roots == ((1, 0, 0), (0, -1, 1))  # a_0 and a_2
    for n, positions in (
        (2, (1, 0)),  # out of path order
        (2, (0, 0)),  # repeated
        (2, (2,)),  # past a_{n-1}
        (2, (-1,)),
        (1, (0, 1)),
    ):
        with pytest.raises(ValueError, match="not increasing in 0.."):
            RootSubsystem(n, positions)


def test_inversion_roots_named_values():
    assert inversion_roots((-2, -1)) == frozenset({(1, 0), (0, 1), (1, 1)})
    assert inversion_roots(identity(3)) == frozenset()
    assert inversion_roots(longest_element(2)) == full_system(2).positive_roots


def test_inversion_roots_b2_catalog():
    for w, roots in B2_SEPARABLE.items():
        assert inversion_roots(w) == roots


def test_inversion_root_count_is_length():
    for n in (1, 2, 3, 4):
        positives = full_system(n).positive_roots
        for w in all_windows(n):
            roots = inversion_roots(w)
            assert roots <= positives
            assert len(roots) == length(w)


def test_inversion_roots_match_the_statistic_sets():
    # the coordinate form the mask replaced, built from the three statistics
    def vector(n, *entries):
        v = [0] * n
        for place, value in entries:
            v[place - 1] = value
        return tuple(v)

    for n in (1, 2, 3, 4):
        for w in all_windows(n):
            neg, inv, nsp = statistic_sets(w)
            expected = frozenset(
                [vector(n, (i, 1)) for i in neg]
                + [vector(n, (i, -1), (j, 1)) for i, j in inv]
                + [vector(n, (i, 1), (j, 1)) for i, j in nsp]
            )
            assert inversion_roots(w) == expected, w
            assert _decode(n, inversion_mask(w)) == expected


def test_subsystem_mask_cannot_be_passed_in():
    # a mask given beside the positions could disagree with them: with the
    # inversion set of the non-separable (-2, 1) as the "mask" of the full
    # rank-2 system, the pivot test used to answer separable
    with pytest.raises(TypeError):
        RootSubsystem(2, (0, 1), inversion_mask((-2, 1)))


def test_every_cache_is_bounded():
    for info in pkgutil.iter_modules(bweyl.__path__):
        module = importlib.import_module(f"bweyl.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters"):
                assert value.cache_parameters()["maxsize"] is not None, (info.name, name)


def test_no_module_imports_a_name_it_never_uses():
    # a deletion that leaves an import behind shows here
    for info in pkgutil.iter_modules(bweyl.__path__):
        module = importlib.import_module(f"bweyl.{info.name}")
        tree = ast.parse(Path(module.__file__).read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (info.name, sorted(imported - used))


def test_inversion_roots_determine_element():
    for n in (1, 2, 3, 4):
        seen = {}
        for w in all_windows(n):
            key = inversion_roots(w)
            assert key not in seen, (w, seen.get(key))
            seen[key] = w


def test_dominance_named_values():
    sys2 = full_system(2)
    a0, a1 = sys2.simple_roots
    high = (1, 1)  # a0 + (a0 + a1)
    assert dominance_leq(a0, high, sys2)
    assert dominance_leq(a1, a1, sys2)
    assert not dominance_leq(a1, a0, sys2)
    with pytest.raises(ValueError):
        dominance_leq((2, 0), a0, sys2)


def test_dominance_is_a_partial_order():
    for n in (2, 3, 4):
        sys = full_system(n)
        roots = sorted(sys.positive_roots)
        for a in roots:
            assert dominance_leq(a, a, sys)
            for b in roots:
                ab = dominance_leq(a, b, sys)
                if ab and dominance_leq(b, a, sys):
                    assert a == b
                if ab:
                    for c in roots:
                        if dominance_leq(b, c, sys):
                            assert dominance_leq(a, c, sys)


def test_components_full_system_irreducible():
    for n in (1, 2, 3, 4, 5):
        assert len(components(full_system(n))) == 1


def test_components_orthogonal_pair():
    sys3 = full_system(3)
    sub = subsystem_spanned_by(sys3, (0, 2))  # e_1 and -e_2 + e_3
    comps = components(sub)
    assert sorted(c.rank for c in comps) == [1, 1]
    assert sub.positive_roots == frozenset({(1, 0, 0), (0, -1, 1)})


def test_components_after_deleting_one_simple():
    sys4 = full_system(4)
    sub = subsystem_spanned_by(sys4, (0, 2, 3))  # drop a_1
    comps = components(sub)
    assert sorted(c.rank for c in comps) == [1, 2]
    small = next(c for c in comps if c.rank == 1)
    big = next(c for c in comps if c.rank == 2)
    assert small.positive_roots == frozenset({(1, 0, 0, 0)})
    # rank-2 unsigned component on places 2..4: three positive roots
    assert len(big.positive_roots) == 3


def test_recursive_oracle_on_rank_two():
    sys2 = full_system(2)
    separable = {
        w for w in all_windows(2)
        if is_separable_recursive(inversion_mask(w), sys2)
    }
    assert separable == set(B2_SEPARABLE)
    assert not is_separable_recursive(inversion_mask((-2, 1)), sys2)
    assert is_separable_recursive(inversion_mask((1, -2)), sys2)


def test_recursive_oracle_accepts_empty_set():
    assert is_separable_recursive(0, full_system(3))


def test_recursive_oracle_rejects_foreign_vectors():
    with pytest.raises(ValueError):
        is_separable_recursive(1 << 4, full_system(2))  # past the 4 roots


def test_recursive_oracle_on_proper_subsystems_matches_the_parabolic_block():
    # the pivot test inside the subsystem on the kept places sees the part
    # of w in the standard parabolic subgroup generated by those places
    for n in (1, 2, 3, 4):
        for kept in subsets(n):
            sub = RootSubsystem(n, kept)
            removed = [p for p in range(n) if p not in kept]
            for w in all_windows(n):
                block = parabolic_factor(w, removed)[1]
                assert is_separable_recursive(inversion_mask(w) & sub.mask, sub) == (
                    _separable(block)
                ), (w, kept)


def test_recursive_oracle_matches_pattern_test_small_ranks():
    for n in (1, 2, 3):
        sys = full_system(n)
        for w in all_windows(n):
            assert is_separable(w) == is_separable_recursive(
                inversion_mask(w), sys
            ), w


def _random_window(rng, n):
    return tuple(x if rng.random() < 0.5 else -x for x in rng.sample(range(1, n + 1), n))


@pytest.mark.parametrize("n", [7, 8, 9])
def test_recursive_oracle_matches_pattern_test_past_exhaustive_ranks(n):
    # uniform windows are rarely separable here (about 1.3%, 0.4% and 0.1%
    # at ranks 7, 8, 9), so the separable ones are drawn by rejection
    rng = random.Random(7000 + n)
    uniform = [_random_window(rng, n) for _ in range(200)]
    separable = []
    while len(separable) < 50:
        w = _random_window(rng, n)
        if is_separable(w):
            separable.append(w)
    sys = full_system(n)
    for w in uniform + separable:
        assert is_separable_recursive(inversion_mask(w), sys) == is_separable(w), w


# ------------------------------------------- closed form against the definitions


def combine(n, simples, coeffs):
    """The rank-n vector sum c_k * simples[k]."""
    return tuple(sum(c * a[r] for c, a in zip(coeffs, simples)) for r in range(n))


def nonnegative_span(n, simples):
    """Every sum c_k * simples[k] with each c_k in {0, 1, 2}."""
    return {combine(n, simples, c) for c in product((0, 1, 2), repeat=len(simples))}


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def test_coefficients_rebuild_every_positive_root():
    for n in range(1, 7):
        sys = full_system(n)
        for beta in sys.positive_roots:
            coeffs = _coefficients(beta)
            assert combine(n, sys.simple_roots, coeffs) == beta
            assert set(coeffs) <= {0, 1, 2}


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8))
def test_coefficients_invert_the_simple_root_sum(coeffs):
    n = len(coeffs)
    simples = full_system(n).simple_roots
    assert _coefficients(combine(n, simples, coeffs)) == tuple(coeffs)


def subsets(k):
    for r in range(k + 1):
        yield from combinations(range(k), r)


def test_subsystem_matches_span_membership():
    # ranks 5 and 6 too: classifier-equivalence runs the pivot test there
    for n in range(1, 7):
        sys = full_system(n)
        for kept in subsets(n):
            simples = [sys.simple_roots[k] for k in kept]
            spanned = nonnegative_span(n, simples)
            sub = subsystem_spanned_by(sys, kept)
            assert sub.simple_roots == tuple(simples)
            assert sub.positive_roots == sys.positive_roots & spanned, (n, kept)
            assert _decode(n, RootSubsystem(n, kept).mask) == sys.positive_roots & spanned


def test_components_match_non_orthogonality_graph():
    for n in range(1, 5):
        sys = full_system(n)
        for kept in subsets(n):
            sub = subsystem_spanned_by(sys, kept)
            # connected classes of simple roots, merged pairwise by dot products
            classes = [{a} for a in sub.simple_roots]
            for a, b in combinations(sub.simple_roots, 2):
                if dot(a, b) != 0:
                    ca = next(c for c in classes if a in c)
                    cb = next(c for c in classes if b in c)
                    if ca is not cb:
                        classes.remove(cb)
                        ca |= cb
            comps = components(sub)
            assert len(comps) == len(classes)
            assert {frozenset(c.simple_roots) for c in comps} == {
                frozenset(c) for c in classes
            }
            for comp in comps:
                spanned = nonnegative_span(n, comp.simple_roots)
                assert comp.positive_roots == sys.positive_roots & spanned


def test_dominance_matches_definition():
    for n in (2, 3, 4):
        sys = full_system(n)
        # positive roots have coefficients in {0, 1, 2}, so a difference
        # beta - alpha that is a nonnegative combination lies in this set
        above_zero = nonnegative_span(n, sys.simple_roots)
        for alpha in sys.positive_roots:
            for beta in sys.positive_roots:
                diff = tuple(b - a for a, b in zip(alpha, beta))
                assert dominance_leq(alpha, beta, sys) == (diff in above_zero)


def test_nested_subsystems_match_direct_ones():
    n = 5
    sys = full_system(n)
    for outer in subsets(n):
        sub = subsystem_spanned_by(sys, outer)
        for inner in subsets(len(outer)):
            nested = subsystem_spanned_by(sub, inner)
            assert nested == subsystem_spanned_by(sys, [outer[k] for k in inner])


def test_support_masks_are_the_dominance_upper_sets():
    # what the pivot test reads in place of a search through dominance_leq
    for n in range(1, 5):
        support = _tables(n)[1]
        sys = full_system(n)
        for kept in subsets(n):
            sub = subsystem_spanned_by(sys, kept)
            for alpha, p in zip(sub.simple_roots, sub.positions):
                above = {b for b in sub.positive_roots if dominance_leq(alpha, b, sub)}
                assert _decode(n, sub.mask & support[p]) == above
