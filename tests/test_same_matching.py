"""The solver and RM against their earlier forms, kept in ``oracles``.

The 64-row-block cost matrix and the NaN-masked layer loop, which traces
predecessors back from each layer's stored distances, must give the
same matching as the two-step matrix build and the ``done``-mask loop
with its ``pred_row`` array on every input, not only the same cost:
RM's CSV depends on which optimum the solver picks among ties.
"""

import re

import numpy as np
import pytest

from schoolmatch.assignment import InfeasibleAssignmentError, min_cost_assignment
from schoolmatch.market import Market
from schoolmatch.mechanisms import _shuffled_rank_costs, rank_minimizing
from schoolmatch.simulate import generate_uniform_market

from oracles import (
    random_market_lists,
    reference_min_cost_assignment,
    reference_rank_minimizing,
    reference_shuffled_cost_matrix,
)
from test_solver_vs_scipy import partial_market


def check_same_result(cost):
    """Equal matchings and totals of equal type, or the same refusal;
    True when the matrix has a finite-cost matching."""
    try:
        expected = reference_min_cost_assignment(cost)
    except InfeasibleAssignmentError as exc:
        with pytest.raises(InfeasibleAssignmentError, match=f"^{re.escape(str(exc))}$"):
            min_cost_assignment(cost)
        return False
    result = min_cost_assignment(cost)
    assert result == expected
    assert type(result.total_cost) is type(expected.total_cost)
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
        assert isinstance(min_cost_assignment(cost).total_cost, float)


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
        assert isinstance(min_cost_assignment(cost).total_cost, float)


def assert_same_shuffled_costs(market, seed):
    """RM's block-built matrix, the school of each column and the row
    permutation equal the full matrix's ``np.ix_`` copy, entry for entry."""
    cost, seats, row_perm = _shuffled_rank_costs(market, seed)
    expected, schools, expected_perm = reference_shuffled_cost_matrix(market, seed)
    assert cost.dtype == np.float64 and cost.flags.c_contiguous
    assert np.array_equal(row_perm, expected_perm)
    assert np.array_equal(seats, schools)
    assert np.array_equal(cost, expected)
    return cost


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
        assert check_same_result(assert_same_shuffled_costs(market, seed))


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


def test_rank_minimizing_same_allocation():
    # full, partial and empty lists, capacities 1-3, unbalanced sizes
    rng = np.random.default_rng(71)
    for _ in range(300):
        caps, prefs, prios = random_market_lists(rng, max_students=30, max_schools=10)
        market = Market(capacities=caps, prefs=prefs, priorities=prios)
        seed = int(rng.integers(0, 2**32))
        assert rank_minimizing(market, seed) == reference_rank_minimizing(market, seed)
