"""The in-house RM solver against scipy's ``linear_sum_assignment``.

scipy is a test-only oracle here: the library never imports it.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from schoolmatch.assignment import InfeasibleAssignmentError, min_cost_assignment
from schoolmatch.market import Market
from schoolmatch.simulate import generate_uniform_market

from oracles import reference_rank_cost_matrix


def scipy_total(cost):
    """scipy's optimum, or None when no finite-cost matching exists."""
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError:
        return None
    return cost[rows, cols].sum()


def assert_matches_scipy(cost):
    result = min_cost_assignment(cost)
    assert result.total_cost == scipy_total(cost)
    cols = np.asarray(result.col_of_row)
    assert len(set(result.col_of_row)) == cost.shape[0]
    assert cost[np.arange(cost.shape[0]), cols].sum() == result.total_cost


def partial_market(n: int, n_schools: int, seats: int, list_len: int, seed: int) -> Market:
    rng = np.random.default_rng(seed)
    prefs = tuple(tuple(int(s) for s in rng.permutation(n_schools)[:list_len]) for _ in range(n))
    priorities = tuple(tuple(int(t) for t in rng.permutation(n)) for _ in range(n_schools))
    return Market(capacities=(seats,) * n_schools, prefs=prefs, priorities=priorities)


@pytest.mark.parametrize(
    "build",
    [
        lambda: generate_uniform_market(500, 61),
        lambda: partial_market(300, 75, 4, 8, 62),
    ],
    ids=["uniform-n500", "partial-300x75x4"],
)
def test_rank_cost_matrices_match_scipy(build):
    cost, _ = reference_rank_cost_matrix(build())
    assert_matches_scipy(cost)
    # the row and column shuffle rank_minimizing applies moves every tie
    rng = np.random.default_rng(63)
    assert_matches_scipy(cost[np.ix_(rng.permutation(cost.shape[0]), rng.permutation(cost.shape[1]))])


def test_tie_heavy_small_matrices_match_scipy():
    rng = np.random.default_rng(64)
    infeasible = 0
    for _ in range(600):
        nr = int(rng.integers(1, 9))
        nc = nr + int(rng.integers(0, 4))
        cost = rng.integers(0, 3, size=(nr, nc)).astype(float)
        cost[rng.random((nr, nc)) < 0.5] = np.inf
        for i in range(nr):
            if not np.isfinite(cost[i]).any():
                cost[i, int(rng.integers(0, nc))] = 1.0
        if scipy_total(cost) is None:
            infeasible += 1
            with pytest.raises(InfeasibleAssignmentError, match="no augmenting path"):
                min_cost_assignment(cost)
        else:
            assert_matches_scipy(cost)
    assert infeasible > 0
