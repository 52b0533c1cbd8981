"""The solver and RM against their earlier forms, kept in ``oracles``.

The 64-row-block class table and the NaN-masked layer loop, which
solves over a table's columns and their copies and traces predecessors
back from each layer's stored distances, must give the same matching
as the two-step seat matrix build and the ``done``-mask loop with its
``pred_row`` array on every input, not only the same cost: RM's CSV
depends on which optimum the solver picks among ties.
"""

import re

import numpy as np
import pytest

from schoolmatch.assignment import min_cost_assignment
from schoolmatch.market import Market
from schoolmatch.mechanisms import _shuffled_rank_costs, rank_minimizing
from schoolmatch.simulate import generate_uniform_market

from oracles import (
    correlated_lists,
    matched_total,
    random_market_lists,
    reference_min_cost_assignment,
    reference_rank_minimizing,
    reference_shuffled_cost_matrix,
)
from test_solver_vs_scipy import partial_market


def check_same_result(cost, columns=None):
    """Equal matchings, each a 1-D ``np.intp`` array, or the same refusal,
    from the solver on ``cost`` and ``columns`` and the reference on
    ``cost[:, columns]``; True when that matrix has a finite-cost matching."""
    try:
        expected = reference_min_cost_assignment(cost if columns is None else cost[:, columns])
    except ValueError as exc:  # InfeasibleAssignmentError included
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$") as refusal:
            min_cost_assignment(cost, columns)
        assert type(refusal.value) is type(exc)
        return False
    result = min_cost_assignment(cost, columns)
    assert result.dtype == expected.dtype == np.intp
    assert np.array_equal(result, expected)
    return True


def test_tie_heavy_matrices():
    # the generator of test_solver_vs_scipy's tie-heavy test
    rng = np.random.default_rng(64)
    solved = 0
    for _ in range(600):
        nr = int(rng.integers(1, 9))
        nc = nr + int(rng.integers(0, 4))
        cost = rng.integers(0, 3, size=(nr, nc)).astype(float)
        cost[rng.random((nr, nc)) < 0.5] = np.inf
        for i in range(nr):
            if not np.isfinite(cost[i]).any():
                cost[i, int(rng.integers(0, nc))] = 1.0
        solved += check_same_result(cost)
    assert 0 < solved < 600


@pytest.mark.parametrize("step", [0.0, 0.25, 0.1], ids=["continuous", "quarters", "tenths"])
def test_non_integer_matrices(step):
    # quarters tie often and add exactly; tenths tie and round
    rng = np.random.default_rng(65)
    for _ in range(200):
        nr = int(rng.integers(1, 13))
        nc = nr + int(rng.integers(0, 5))
        cost = rng.random((nr, nc)) * 3
        if step:
            cost = np.round(cost / step) * step
        cost[rng.random((nr, nc)) < 0.3] = np.inf
        cost[np.arange(nr), rng.permutation(nc)[:nr]] = 2.5  # some matching is finite
        assert check_same_result(cost)


def test_tie_heavy_search_sizes():
    # 40-150 rows: searches run through many layers, and augmenting paths
    # through two or more of them, which the small sets above rarely reach
    rng = np.random.default_rng(72)
    for _ in range(24):
        nr = int(rng.integers(40, 151))
        nc = nr + int(rng.integers(0, 4))
        # each row ranks the columns, ranks above 5 tie at 5: rows compete
        # for their few cheap columns, as students do for their first choices
        cost = np.minimum(rng.random((nr, nc)).argsort(axis=1), 5).astype(float)
        cost[rng.random((nr, nc)) < rng.uniform(0.0, 0.5)] = np.inf
        cost[np.arange(nr), rng.permutation(nc)[:nr]] = 5.0  # some matching is finite
        assert check_same_result(cost)


def test_quarter_step_search_sizes():
    # quarters tie often and add exactly, at sizes with long searches
    rng = np.random.default_rng(73)
    for _ in range(24):
        nr = int(rng.integers(30, 81))
        nc = nr + int(rng.integers(0, 9))
        cost = np.round(rng.random((nr, nc)) * 12) / 4
        cost[rng.random((nr, nc)) < 0.3] = np.inf
        cost[np.arange(nr), rng.permutation(nc)[:nr]] = 2.5
        assert check_same_result(cost)


@pytest.mark.parametrize("step", [1.0, 0.25, 0.1, 0.0],
                         ids=["ranks", "quarters", "tenths", "continuous"])
def test_class_tables(step):
    # a few classes, each with many copies named in no particular order;
    # rows with no finite class, or too few copies of theirs, are infeasible
    rng = np.random.default_rng(75)
    solved = 0
    for trial in range(240):
        nr = int(rng.integers(40, 151)) if trial % 20 == 0 else int(rng.integers(1, 13))
        n_classes = int(rng.integers(1, 9))
        table = rng.random((nr, n_classes)) * 4
        if step:
            table = np.round(table / step) * step
        table[rng.random((nr, n_classes)) < rng.uniform(0.0, 0.4)] = np.inf
        columns = rng.integers(0, n_classes, size=nr + int(rng.integers(0, 9)))
        solved += check_same_result(table, columns)
    assert 0 < solved < 240


@pytest.mark.parametrize(
    "table, columns",
    [
        (np.array([[1.0, np.nan], [2.0, 0.0]]), [1, 1, 0]),
        (np.array([[1.0, -1.0]]), [0, 1]),
        (np.ones((3, 2)), [1, 0]),
        (np.ones((2, 2)), np.array([], dtype=int)),
        (np.array([[np.inf, 1.0], [np.inf, 1.0]]), [0, 1, 0]),  # one copy of class 1
    ],
    ids=["nan", "negative", "more-rows", "no-columns", "too-few-copies"],
)
def test_class_table_refusals(table, columns):
    assert not check_same_result(table, columns)


def test_columns_left_out_are_ignored():
    # a column of the table that no copy names is neither checked nor
    # solved over: its NaN, negative entry and fraction change nothing
    table = np.array([[1.0, np.nan, 2.0, 0.5], [3.0, -1.0, 1.0, 0.5]])
    assert check_same_result(table, [2, 0, 0, 2])
    cols = min_cost_assignment(table, [2, 0, 0, 2])
    assert cols.tolist() == [1, 0] and matched_total(table[:, [2, 0, 0, 2]], cols) == 2


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint64])
def test_columns_of_any_integer_type(dtype):
    table = np.array([[1.0, 4.0, 2.0], [3.0, 1.0, 1.0]])
    expected = min_cost_assignment(table, [2, 0, 0, 2, 1])
    assert np.array_equal(min_cost_assignment(table, np.array([2, 0, 0, 2, 1], dtype=dtype)),
                          expected)


@pytest.mark.parametrize("columns", [[0, 3], [-1, 0], [0.0, 1.0], [[0, 1]], [True, False]],
                         ids=["past-the-end", "negative", "float", "2-D", "bool"])
def test_columns_outside_the_table_refused(columns):
    with pytest.raises(ValueError, match="^columns must be a list of column indices below 3$"):
        min_cost_assignment(np.ones((2, 3)), columns)


def assert_same_shuffled_costs(market, seed):
    """RM's block-built table read through its seats' columns, the school
    of each seat and the row permutation equal the full seat matrix's
    ``np.ix_`` copy, entry for entry; the table has one column per seat
    class, in the order the classes first appear among the seats."""
    table, columns, seats, row_perm = _shuffled_rank_costs(market, seed)
    expected, schools, expected_perm = reference_shuffled_cost_matrix(market, seed)
    # full lists hold no inf, so the table keeps the ranks' int16; partial
    # lists need inf, and float32 holds it and every int16 cost exactly
    assert market.rank_table.dtype == np.int16
    assert table.dtype == (np.int16 if market.has_full_lists else np.float32)
    assert table.flags.c_contiguous
    assert np.array_equal(row_perm, expected_perm)
    assert np.array_equal(seats, schools)
    assert np.array_equal(table[:, columns], expected)
    # each new class is one past the highest column seen before it
    assert np.array_equal(np.unique(np.maximum.accumulate(columns)), np.arange(table.shape[1]))
    return table, columns


@pytest.mark.parametrize(
    "build",
    [
        # 63, 64 and 65 rows end inside, at and one past a 64-row block
        *(lambda n=n: generate_uniform_market(n, 66 + n) for n in (1, 63, 64, 65)),
        lambda: generate_uniform_market(200, 66),
        lambda: partial_market(300, 75, 4, 8, 67),
    ],
    ids=["uniform-n1", "uniform-n63", "uniform-n64", "uniform-n65", "uniform-n200",
         "partial-300x75x4"],
)
def test_shuffled_rank_matrices(build):
    market = build()
    for seed in (68, 69, 70):
        assert check_same_result(*assert_same_shuffled_costs(market, seed))


def test_unit_seat_table_is_the_seat_matrix():
    # unit capacities and full lists: each class is one seat, so the
    # table is the seat matrix and its columns are read in order
    table, columns = assert_same_shuffled_costs(generate_uniform_market(65, 78), 79)
    assert table.shape == (65, 65) and np.array_equal(columns, np.arange(65))


def test_shuffled_rank_matrices_whole_input_space():
    # full, partial and empty lists, capacities 1-3, unbalanced both
    # ways, and the same markets with a school cut to zero seats
    rng = np.random.default_rng(74)
    for _ in range(200):
        caps, prefs, prios = random_market_lists(rng, max_students=80, max_schools=12)
        seed = int(rng.integers(0, 2**32))
        assert_same_shuffled_costs(Market(capacities=caps, prefs=prefs, priorities=prios), seed)
        caps[int(rng.integers(0, len(caps)))] = 0
        assert_same_shuffled_costs(Market(capacities=caps, prefs=prefs, priorities=prios), seed)


def test_float32_table_solved_as_its_float64_copy():
    # a float32 or int16 table is read in place and every read widened
    # to float64, so the solver picks the matching and refusal that the
    # reference picks on the table's float64 copy: on RM's tables, and
    # on tie-heavy fractions that float32 has rounded, where arithmetic
    # rounded to float32 (a 64-row block subtracted in place) would
    # break or make ties and pick other optima
    rng = np.random.default_rng(80)
    for _ in range(200):
        caps, prefs, prios = random_market_lists(rng, max_students=40, max_schools=10)
        market = Market(capacities=caps, prefs=prefs, priorities=prios)
        table, columns, _, _ = _shuffled_rank_costs(market, int(rng.integers(0, 2**32)))
        assert table.dtype == (np.int16 if market.has_full_lists else np.float32)
        check_same_result(table, columns)
    for _ in range(300):
        nr = int(rng.integers(1, 40))
        nc = nr + int(rng.integers(0, 10))
        cost = (rng.integers(0, 12, size=(nr, nc)) / rng.choice([3.0, 7.0, 10.0])).astype(np.float32)
        cost[rng.random((nr, nc)) < 0.2] = np.inf
        check_same_result(cost)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint16, np.bool_,
                                   np.float16, np.float32, np.float64])
def test_real_table_solved_as_its_float64_copy(dtype):
    # every real type is read in place and each read widened to float64,
    # so tie-heavy small integers (and signed ones below 0, refused) give
    # the matching or refusal the reference gives on the float64 copy
    rng = np.random.default_rng(86)
    high = 2 if dtype is np.bool_ else 5
    signed = np.dtype(dtype).kind in "if"
    solved = 0
    for _ in range(150):
        nr = int(rng.integers(1, 12))
        nc = max(1, nr + int(rng.integers(-1, 5)))
        cost = rng.integers(0, high, size=(nr, nc)).astype(dtype)
        if signed and rng.random() < 0.1:
            cost[int(rng.integers(0, nr)), int(rng.integers(0, nc))] = -1
        columns = None if rng.random() < 0.5 else rng.integers(0, nc, size=nr + 2)
        solved += check_same_result(cost, columns)
    assert 100 < solved < 150


def test_int32_tables_on_full_lists_past_int16():
    # 32,770 schools put the unranked sentinel m + 2 past int16, so the
    # rank table is int32; on full lists no cost is inf, so RM's table
    # is int32 too, not float64, and picks the reference's allocation
    m = 32_770
    rng = np.random.default_rng(87)
    prefs = [[0] + (rng.permutation(m - 1) + 1).tolist() for _ in range(3)]  # all want 0 first
    market = Market(capacities=[1] * m, prefs=prefs, priorities=[[0, 1, 2]] * m)
    assert market.has_full_lists and market.rank_table.dtype == np.int32
    for seed in (88, 89, 90):
        table, _, _, _ = _shuffled_rank_costs(market, seed)
        assert table.dtype == np.int32 and table.shape == (3, m)
        assert rank_minimizing(market, seed) == reference_rank_minimizing(market, seed)


def test_int32_rank_table_gets_a_float64_table():
    # 32,770 schools put the unranked sentinel m + 2 past int16, so the
    # rank table is int32; partial lists need inf, and an int32 table's
    # ranks and k + 1 can pass 2**24, where float32 rounds, so RM's
    # table is float64 there
    m = 32_770
    rng = np.random.default_rng(82)
    prefs = [rng.choice(m, size=3, replace=False).tolist() for _ in range(2)]
    prefs[1][0] = prefs[0][0]  # both students want one school first
    market = Market(capacities=[1] * m, prefs=prefs, priorities=[[]] * m)
    assert market.rank_table.dtype == np.int32
    for seed in (83, 84, 85):
        table, _, _, _ = _shuffled_rank_costs(market, seed)
        assert table.dtype == np.float64 and table.shape == (2, m + 1)
        assert rank_minimizing(market, seed) == reference_rank_minimizing(market, seed)


def test_rank_minimizing_same_allocation():
    # full, partial and empty lists, capacities 1-3, unbalanced sizes
    rng = np.random.default_rng(71)
    for _ in range(300):
        caps, prefs, prios = random_market_lists(rng, max_students=30, max_schools=10)
        market = Market(capacities=caps, prefs=prefs, priorities=prios)
        seed = int(rng.integers(0, 2**32))
        assert rank_minimizing(market, seed) == reference_rank_minimizing(market, seed)


def test_rank_minimizing_many_seat_schools():
    # 5-12 seats a school, some cut to zero, short lists in half the
    # markets, sizes unbalanced both ways: many seats share each column
    rng = np.random.default_rng(76)
    for trial in range(40):
        _, prefs, prios = random_market_lists(rng, max_students=120, max_schools=12)
        caps = rng.integers(5, 13, size=len(prios))
        caps[rng.random(len(caps)) < 0.2] = 0
        if trial % 2:
            prefs = [p[:3] for p in prefs]
        market = Market(capacities=caps.tolist(), prefs=prefs, priorities=prios)
        seed = int(rng.integers(0, 2**32))
        assert rank_minimizing(market, seed) == reference_rank_minimizing(market, seed)


def correlated_market(rng, n, capacities, list_length, beta):
    """Che-Tercieux lists of ``list_length`` schools (see
    ``oracles.correlated_lists``) and uniform random priorities."""
    lists = correlated_lists(rng, n, len(capacities), list_length, beta)
    priorities = [rng.permutation(n).tolist() for _ in capacities]
    return Market(capacities=capacities, prefs=lists.tolist(), priorities=priorities)


def many_seat_markets(seed, count):
    # a few hundred students, 3-8 schools of 25-100 seats, 2-4 school
    # lists, a common school quality of weight 0.3-0.9: popular schools
    # fill, and RM's searches run through full classes of many seats
    rng = np.random.default_rng(seed)
    for _ in range(count):
        capacities = rng.integers(25, 101, size=int(rng.integers(3, 9))).tolist()
        yield correlated_market(rng, int(rng.integers(200, 401)), capacities,
                                int(rng.integers(2, 5)), float(rng.uniform(0.3, 0.9)))


def test_many_seat_rank_tables():
    # RM's class tables against the reference solver on the seat matrix
    for market in many_seat_markets(80, 6):
        for seed in (81, 82):
            table, columns, _, _ = _shuffled_rank_costs(market, seed)
            assert np.bincount(columns).min() >= 25
            assert check_same_result(table, columns)


@pytest.mark.parametrize("step", [0.25, 0.0], ids=["quarters", "continuous"])
def test_many_seat_utility_tables(step):
    # costs 1 - utility on each listed school and 1 for "stay unassigned",
    # the copies of every class named in a shuffled order
    rng = np.random.default_rng(83)
    for _ in range(4):
        n, m = int(rng.integers(200, 401)), int(rng.integers(3, 9))
        utility = 0.6 * rng.random(m) + 0.4 * rng.random((n, m))
        table = np.hstack([1 - utility, np.ones((n, 1))])
        if step:
            table = np.round(table / step) * step
        table[:, :m][rng.random((n, m)) < 0.5] = np.inf
        copies = np.repeat(np.arange(m + 1), [*rng.integers(25, 101, size=m), n])
        assert check_same_result(table, rng.permutation(copies))


def test_rank_minimizing_many_seat_correlated():
    for market in many_seat_markets(84, 6):
        for seed in (85, 86):
            assert rank_minimizing(market, seed) == reference_rank_minimizing(market, seed)
