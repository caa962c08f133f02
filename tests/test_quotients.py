"""Generalized quotients, interval identity, splittings, the theorem sweep."""

import random
from array import array
from itertools import chain, combinations

import pytest

from bweyl import quotients, weak_order
from bweyl.patterns import is_separable, parabolic_factor
from bweyl.polynomials import from_counts, group_poincare
from bweyl.quotients import (
    _GroupTables,
    _lower_ideals,
    _members,
    _splitting_report,
    _theorem_cases,
    _walk_links,
    quotient_interval_identity,
    generalized_quotient,
    is_splitting,
    quotient_of_interval,
    splits_with_interval,
    verify_main_theorem,
)
from bweyl.reports import SplittingReport
from bweyl.signed_perm import (
    all_windows,
    compose,
    group_order,
    identity,
    inverse,
    left_mul_simple,
    length,
    longest_element,
    sort_windows,
)
from bweyl.weak_order import _levels, interval_right, lower_ideal_left


def subsets(ns):
    return chain.from_iterable(combinations(ns, k) for k in range(len(ns) + 1))


# ------------------------------------------------------- generalized quotients


def literal_quotient(U, n):
    """The exact filter by its definition: compose, then compare lengths."""
    return frozenset(
        w for w in all_windows(n)
        if all(length(compose(w, u)) == length(w) + length(u) for u in U)
    )


def test_generalized_quotient_degenerate_cases():
    n = 3
    everything = frozenset(all_windows(n))
    assert generalized_quotient({identity(n)}, n) == everything
    assert generalized_quotient(everything, n) == {identity(n)}
    with pytest.raises(ValueError):
        generalized_quotient(set(), n)
    with pytest.raises(ValueError):
        generalized_quotient({identity(2)}, 3)
    with pytest.raises(ValueError):
        generalized_quotient({identity(3), (1, 1, 3)}, 3)


def test_generalized_quotient_matches_compose_and_length_filter():
    for n in (1, 2, 3):
        everything = frozenset(all_windows(n))
        cases = [interval_right(u) for u in everything]
        cases += [{identity(n)}, everything, {longest_element(n)}]
        for U in cases:
            assert generalized_quotient(U, n) == literal_quotient(U, n), (n, sorted(U))


def test_quotient_of_interval_rank_two():
    u = (-1, 2)
    U = interval_right(u)
    expected = {(1, 2), (2, 1), (2, -1), (1, -2)}
    assert generalized_quotient(U, 2) == expected
    assert quotient_of_interval(u) == expected


def test_interval_identity_exhaustive_rank_three():
    for u in all_windows(3):
        assert quotient_interval_identity(u)


def test_interval_identity_trivial_cases():
    assert quotient_interval_identity(identity(4))
    assert quotient_interval_identity(longest_element(4))


# ------------------------------------------------------------------- splittings


def parabolic_pair(n, removed):
    """
    The minimal coset representatives (windows equal to their own quotient
    factor) and the parabolic subgroup (trivial quotient factor) for the
    generators in removed.
    """
    e = identity(n)
    factors = {w: parabolic_factor(w, removed)[0] for w in all_windows(n)}
    return ({w for w, q in factors.items() if q == w},
            {w for w, q in factors.items() if q == e})


def test_parabolic_pair_is_splitting():
    X, Y = parabolic_pair(3, (1,))
    report = is_splitting(X, Y, 3)
    assert report.is_splitting and report.size_check
    assert report.counts[0] * report.counts[1] == report.counts[2] == 48


def test_every_parabolic_pair_splits():
    for n in (2, 3, 4):
        for removed in subsets(range(n)):
            X, Y = parabolic_pair(n, removed)
            assert is_splitting(X, Y, n).is_splitting, (n, removed)


def test_interval_splitting_rank_two():
    good = splits_with_interval((-1, 2))
    assert good.is_splitting
    bad = splits_with_interval((-2, 1))
    assert not bad.is_splitting
    assert not bad.size_check  # 3 * 3 != 8
    assert bad.failure_witness is None  # short-circuited before the scan


def test_length_deficit_witness_replays():
    n = 2
    s0, s1 = (-1, 2), (2, 1)
    X = {identity(n), s0, s1, compose(s0, s1)}
    Y = {identity(n), s0}
    report = is_splitting(X, Y, n)  # 4 * 2 = 8, so the scan runs
    assert not report.is_splitting and report.size_check
    kind, x, y = report.failure_witness
    assert kind == "length-deficit"
    assert length(compose(x, y)) != length(x) + length(y)


def test_collision_witness_replays():
    e, s1, s2 = identity(3), (2, 1, 3), (1, 3, 2)
    X = sorted({e, s1})
    Y = sorted({s2, compose(s1, s2)})
    report = _splitting_report(X, Y, None, 4)
    assert not report.is_splitting and report.size_check
    kind, x1, y1, x2, y2 = report.failure_witness
    assert kind == "collision"
    assert compose(x1, y1) == compose(x2, y2)
    assert (x1, y1) != (x2, y2)


def splitting_report_by_length(X, Y, universe, universe_size):
    """The splitting scan by its definition: compose, then compare lengths."""
    counts = (len(X), len(Y), universe_size)
    if len(X) * len(Y) != universe_size:
        return SplittingReport(False, False, counts)
    seen = {}
    for x in sorted(X):
        for y in sorted(Y):
            xy = compose(x, y)
            if length(xy) != length(x) + length(y):
                return SplittingReport(False, True, counts, ("length-deficit", x, y))
            if universe is not None and xy not in universe:
                return SplittingReport(False, True, counts, ("escapes-subgroup", x, y))
            if xy in seen:
                return SplittingReport(False, True, counts, ("collision", *seen[xy], x, y))
            seen[xy] = (x, y)
    return SplittingReport(True, True, counts)


def test_splitting_report_matches_length_scan():
    # Every (lower left ideal, right interval) pair at ranks 2-3, the
    # theorem's pairs (L(w0 u^-1), R(u)) among them; at rank 3 the size
    # check passes for pairs that fail by a deficit or a collision.
    kinds = set()
    for n in (2, 3):
        ws = list(all_windows(n))
        X = [sorted(lower_ideal_left(w)) for w in ws]
        Y = [sorted(interval_right(w)) for w in ws]
        for x in X:
            for y in Y:
                report = _splitting_report(x, y, None, len(ws))
                assert report == splitting_report_by_length(x, y, None, len(ws)), (x[-1], y[-1])
                kinds.add(report.failure_witness and report.failure_witness[0])
    assert kinds == {None, "length-deficit", "collision"}
    # The factorization check's pairs, inside the ideal of w.
    for n in (4, 5):
        for w in all_windows(n):
            if w[-2:] == (-n, n - 1):
                q, j = (lower_ideal_left(f) for f in parabolic_factor(w, (n - 2, n - 1)))
                ideal_w = lower_ideal_left(w)
                args = (sorted(q), sorted(j), ideal_w, len(ideal_w))
                assert _splitting_report(*args) == splitting_report_by_length(*args), w


def walk_splits(tree, row, order):
    """The split-check verdict on the walk: additive products, `order` of them."""
    products = _walk_links(tree, row)
    return products is not None and len(products) == order


def test_walk_core_matches_literal_report_on_every_size_matched_pair():
    # Every (X, Y) = (R(a)^-1, R(b)) with #X * #Y = #W, not only the
    # theorem's pairs, walked with either factor as the tree, and by the
    # table walk on X = L(a^-1) and Y^-1 = L(b^-1) from the ideal DP: most
    # of them fail, by a deficit or by a collision.
    expected = {2: (10, 4), 3: (106, 84), 4: (1772, 1682)}
    kinds = set()
    for n, (pairs, failing) in expected.items():
        order = group_order(n)
        tables = _GroupTables(n)
        ideals = all_ideals(tables)
        index = {w: k for k, w in enumerate(tables.windows)}
        levels = {w: list(_levels(w)) for w in all_windows(n)}
        sizes = {w: sum(len(level) for level, _ in ls) for w, ls in levels.items()}
        flat = {w: [v for level, _ in ls for v in level] for w, ls in levels.items()}
        seen = fails = 0
        for a in levels:
            for b in levels:
                if sizes[a] * sizes[b] != order:
                    continue
                X, Y = [inverse(v) for v in flat[a]], flat[b]
                report = _splitting_report(sorted(X), sorted(Y), None, order)
                y_tree = walk_splits(levels[b], X, order)
                x_tree = walk_splits(levels[a], [inverse(v) for v in Y], order)
                table = tables.splits(ideals[index[inverse(a)]], ideals[index[inverse(b)]])
                assert y_tree == x_tree == table == report.is_splitting, (a, b)
                seen += 1
                fails += not report.is_splitting
                kinds.add(report.failure_witness and report.failure_witness[0])
        assert (seen, fails) == (pairs, failing), n
    assert kinds == {None, "length-deficit", "collision"}


def test_table_walk_reads_one_row_per_tree_element(monkeypatch):
    # Each tree element but the identity gets its row once, from the first
    # lower cover that reaches it; a walk that pushed a row again to an
    # element already reached would keep every verdict and only do more.
    tables = _GroupTables(4)
    ideals = all_ideals(tables)
    rows = 0
    itemgetter = quotients.itemgetter

    def counting(*items):
        nonlocal rows
        rows += 1
        return itemgetter(*items)

    monkeypatch.setattr(quotients, "itemgetter", counting)
    walks = 0
    for X in ideals:
        for Y_inv in ideals:
            if len(X) * len(Y_inv) == tables.order:
                rows = 0
                tables.splits(X, Y_inv)
                assert rows == min(len(X), len(Y_inv)) - 1, (X[-1], Y_inv[-1])
                walks += 1
    assert walks == 1772


def test_walk_core_checks_additivity_on_arbitrary_rows():
    # When both factors are ideals, a bijective product map was additive in
    # every case above; arbitrary first rows give products that are
    # distinct but not additive, which only the ascent checks reject.
    rng = random.Random(11)
    distinct_not_additive = 0
    for n in (2, 3):
        order = group_order(n)
        group = sorted(all_windows(n))
        for b in group:
            tree = list(_levels(b))
            Y = [v for level, _ in tree for v in level]
            if order % len(Y):
                continue
            for _ in range(20):
                X = rng.sample(group, order // len(Y))
                report = _splitting_report(sorted(X), sorted(Y), None, order)
                assert walk_splits(tree, X, order) == report.is_splitting, (X, b)
                bijective = len({compose(x, y) for x in X for y in Y}) == order
                distinct_not_additive += bijective and not report.is_splitting
    assert distinct_not_additive > 0


def literal_split_check(u):
    """The split check by its definition: both factors built, every pair composed."""
    X, Y = quotient_of_interval(u), interval_right(u)
    return _splitting_report(sorted(X), sorted(Y), None, group_order(len(u)))


def test_split_check_report_matches_literal_on_every_window():
    for n in (1, 2, 3, 4):
        for u in all_windows(n):
            assert splits_with_interval(u) == literal_split_check(u), u


def test_split_check_never_falls_back_on_a_splitting_pair(monkeypatch):
    # A broken walk would stay correct through the literal fallback, only
    # slow: every separable u must be settled by the walk alone.
    def refuse(*args):
        raise AssertionError("literal fallback taken")

    monkeypatch.setattr(quotients, "_splitting_report", refuse)
    for n in (1, 2, 3, 4):
        for u in all_windows(n):
            if is_separable(u):
                assert splits_with_interval(u).is_splitting, u


def test_split_check_rejects_malformed_windows():
    for bad in ((1, 1), (0, 2), (5, 7), (1, 3), ()):
        with pytest.raises(ValueError, match="not a signed permutation window"):
            splits_with_interval(bad)


@pytest.mark.parametrize("call", [
    lambda: generalized_quotient({identity(3)}, 3),
    lambda: splits_with_interval((2, 1, 3)),
], ids=["generalized_quotient", "splits_with_interval"])
def test_group_enumeration_budget(monkeypatch, call):
    # B_3 has 48 elements: allowed at a bound of 48, refused below it.
    # (2, 1, 3) passes the size check with ideals of 24 and 2 elements,
    # so only its product walk would hold the whole group.
    monkeypatch.setattr(weak_order, "MAX_IDEAL_ELEMENTS", 48)
    call()
    monkeypatch.setattr(weak_order, "MAX_IDEAL_ELEMENTS", 47)
    with pytest.raises(ValueError, match="rank-3 group exceeds the element limit 47: 48 elements"):
        call()


def test_splitting_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        is_splitting({identity(2)}, {identity(3)}, 3)


def test_splitting_checks_the_rank_before_the_windows():
    # a bad rank is named as such, not as a mismatch with every window
    with pytest.raises(ValueError, match="rank must be a positive integer, got 0"):
        is_splitting([(1,)], [(1,)], 0)


def test_every_splitting_entry_point_rejects_mixed_ranks():
    # a window of another rank is an error, never silently left out
    u = (-1, 2, 3)
    X = quotient_of_interval(u)
    Y = interval_right(u) | {(1, 2)}
    with pytest.raises(ValueError, match="rank mismatch: 1 2 in rank-3 group"):
        is_splitting(X, Y, 3)


def test_splitting_implies_poincare_factorization():
    for n in (3, 4):
        target = group_poincare(n)
        for u in all_windows(n):
            report = splits_with_interval(u)
            if report.is_splitting:
                X = quotient_of_interval(u)
                Y = interval_right(u)
                fx = from_counts([length(x) for x in X])
                fy = from_counts([length(y) for y in Y])
                assert fx * fy == target


# ---------------------------------------------------------------- main theorem


def test_main_theorem_rank_two_counts():
    report = verify_main_theorem(2)
    assert report.passed
    assert report.universe_size == 8
    assert report.counts == {"separable": 6, "non_separable": 2}
    assert report.witnesses == ()


def test_main_theorem_rank_three():
    report = verify_main_theorem(3)
    assert report.passed
    assert report.counts["separable"] == 22


def test_main_theorem_rank_guard():
    with pytest.raises(ValueError):
        verify_main_theorem(1)
    with pytest.raises(ValueError):
        verify_main_theorem(7)


def test_table_sweep_matches_tuple_path():
    for n in (2, 3, 4):
        for u, sep, splits in _theorem_cases(n):
            assert (sep, splits) == (
                is_separable(u), splits_with_interval(u).is_splitting
            ), u


def all_ideals(tables):
    """Every principal lower left ideal as an ascending index list, from the DP."""
    return [_members(bits) for bits in _lower_ideals(tables)]


def test_table_walk_matches_tuple_walk_on_every_pair():
    # Every (lower left ideal, lower right interval) pair, not only the
    # theorem's: at rank 3 the size check passes for 84 non-splitting pairs,
    # so both failure kinds of the walk are exercised.
    for n in (2, 3):
        tables = _GroupTables(n)
        ideals = all_ideals(tables)
        X = [lower_ideal_left(w) for w in tables.windows]
        Y = [interval_right(w) for w in tables.windows]
        failures = set()
        for a in range(tables.order):
            for u in range(tables.order):
                report = is_splitting(X[a], Y[u], n)
                walked = tables.splits(ideals[a], ideals[tables.inv[u]])
                assert walked == report.is_splitting, (n, a, u)
                if report.failure_witness:
                    failures.add(report.failure_witness[0])
        assert n == 2 or failures == {"length-deficit", "collision"}


def literal_tables(n):
    """up and inv by their definitions: one left_mul_simple per generator and element."""
    windows = sort_windows(all_windows(n))
    index = {w: k for k, w in enumerate(windows)}
    order = len(windows)
    up = []
    for i in range(n):
        images = [index[left_mul_simple(i, w)] for w in windows]
        up.append(array("i", [j if j > k else order for k, j in enumerate(images)] + [order]))
    return up, array("i", [index[inverse(w)] for w in windows])


def test_tables_match_the_literal_construction():
    for n in range(1, 6):
        tables = _GroupTables(n)
        assert tables.windows == sort_windows(all_windows(n)), n
        assert (tables.up, tables.inv) == literal_tables(n), n


def test_table_ideal_sizes_match_ideals_rank_five():
    tables = _GroupTables(5)
    sizes = [bits.bit_count() for bits in _lower_ideals(tables)]
    assert len(sizes) == len(tables.windows) == 3840
    for w, size in zip(tables.windows, sizes):
        assert size == len(lower_ideal_left(w)), w
    for k, w in enumerate(tables.windows):
        assert tables.windows[tables.inv[k]] == inverse(w), w
        assert tables.inv[tables.inv[k]] == k, w


def searched_ideals(tables, apexes):
    """The sorted table indices of the lower left ideal of each apex, by the tuple search."""
    index = {w: j for j, w in enumerate(tables.windows)}
    return [sorted(index[v] for v in lower_ideal_left(tables.windows[k])) for k in apexes]


@pytest.fixture
def walks(monkeypatch):
    """The (X, Y_inv) of every `_GroupTables.splits` call, in call order."""
    calls = []
    splits = _GroupTables.splits

    def recording(self, X, Y_inv):
        calls.append((X, Y_inv))
        return splits(self, X, Y_inv)

    monkeypatch.setattr(_GroupTables, "splits", recording)
    return calls


def test_kept_ideals_match_the_tuple_search(walks):
    for n in range(1, 5):
        tables = _GroupTables(n)
        assert all_ideals(tables) == searched_ideals(tables, range(tables.order)), n
    # At rank 5, every ideal the sweep hands to a walk, against the search
    # below its apex (an ascending index list ends with its apex).
    _theorem_cases(5)
    handed = [ideal for pair in walks for ideal in pair]
    assert len(handed) > 0
    assert handed == searched_ideals(_GroupTables(5), [ideal[-1] for ideal in handed])


def test_negation_reverses_the_table_order():
    for n in range(1, 6):
        tables = _GroupTables(n)
        windows, inv, last = tables.windows, tables.inv, tables.order - 1
        index = {w: k for k, w in enumerate(windows)}
        w0 = longest_element(n)
        for k, w in enumerate(windows):
            assert windows[last - k] == tuple(-v for v in w), (n, w)
            assert inv[last - k] == index[compose(w0, inverse(w))], (n, w)


def _full_walk_theorem_cases(n):
    # The oracle: every u walked, its apex composed from the window.
    tables = _GroupTables(n)
    ideals = all_ideals(tables)
    index = {w: k for k, w in enumerate(tables.windows)}
    inv = tables.inv
    w0 = longest_element(n)
    cases = []
    for k, u in enumerate(tables.windows):
        X, Y_inv = ideals[index[compose(w0, inverse(u))]], ideals[inv[k]]
        splits = len(X) * len(Y_inv) == tables.order and tables.splits(X, Y_inv)
        cases.append((u, is_separable(u), splits))
    return sorted(cases)


def test_halved_theorem_sweep_matches_the_full_walk():
    for n in (2, 3, 4, 5):
        assert _theorem_cases(n) == _full_walk_theorem_cases(n), n


def test_theorem_sweep_walks_each_mirrored_pair_once(walks):
    # Pins the reuse key: the two ideals of a walk sit at mirrored indices,
    # as those of u and -u do.  A sweep that reused the verdict of u^-1 in
    # place of -u agrees with the full walk at every rank here, but walks
    # other pairs, or one pair twice.  Each ideal is an ascending index
    # list, so its apex is its last member.
    for n in (2, 3, 4, 5):
        walks.clear()
        _theorem_cases(n)
        tables = _GroupTables(n)
        order = tables.order
        sizes = [bits.bit_count() for bits in _lower_ideals(tables)]
        assert all(X[-1] + Y_inv[-1] == order - 1 for X, Y_inv in walks), n
        pairs = [frozenset((X[-1], Y_inv[-1])) for X, Y_inv in walks]
        assert len(pairs) == len(set(pairs)), n
        assert set(pairs) == {
            frozenset((j, order - 1 - j)) for j in range(order // 2)
            if sizes[j] * sizes[order - 1 - j] == order
        }, n


def test_theorem_sweep_runs_the_ideal_dp_once(monkeypatch):
    runs = []

    def counting(tables):
        runs.append(tables.order)
        return _lower_ideals(tables)

    monkeypatch.setattr(quotients, "_lower_ideals", counting)
    for n in (2, 3, 4, 5):
        runs.clear()
        _theorem_cases(n)
        assert runs == [group_order(n)], n


def test_report_json_shape():
    report = verify_main_theorem(2)
    payload = report.to_json()
    assert list(payload) == [
        "theorem", "n", "checked", "pass", "witnesses", "vacuous", "counts",
    ]
    assert payload["pass"] is True
    assert payload["checked"] == 8
