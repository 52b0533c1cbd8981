"""The in-house RM solver against scipy's ``linear_sum_assignment``,
and, on markets too large for scipy's per-seat matrix, against the
improving-cycle certificate in ``oracles``.

scipy is a test-only oracle here: the library never imports it.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from schoolmatch.assignment import InfeasibleAssignmentError, min_cost_assignment
from schoolmatch.market import Market, load_market
from schoolmatch.mechanisms import MECHANISMS, run_mechanism
from schoolmatch.simulate import (
    _TAG_MARKET,
    ExperimentConfig,
    derive_seed,
    generate_uniform_market,
    run_experiment,
)

from oracles import (
    _injections,
    improving_cycle_exists,
    random_market_lists,
    rank_minimizing_max_range,
    ranks_by_definition,
    reference_rank_cost_matrix,
    write_city_market,
)


def scipy_total(cost):
    """scipy's optimum, or None when no finite-cost matching exists."""
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError:
        return None
    return cost[rows, cols].sum()


def assert_matches_scipy(cost):
    cols = min_cost_assignment(cost)
    assert len(set(cols.tolist())) == cost.shape[0]
    assert cost[np.arange(cost.shape[0]), cols].sum() == scipy_total(cost)


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


def test_improving_cycle_check_agrees_with_scipy():
    # every mechanism on small markets, over- and undersupplied, with
    # partial and empty lists: the allocation is improvable exactly when
    # its rank sum is above scipy's optimum
    rng = np.random.default_rng(65)
    improvable = 0
    for r in range(300):
        market = Market(*random_market_lists(rng))
        best = scipy_total(reference_rank_cost_matrix(market)[0])
        for name in sorted(MECHANISMS):
            allocation = run_mechanism(name, market, r)
            above = sum(ranks_by_definition(market, allocation)) > best
            assert improving_cycle_exists(market, allocation) == above, (r, name)
            improvable += above
    assert 300 < improvable < 900  # 482 of the 1,200 allocations


@pytest.mark.parametrize("schools", [50, 60], ids=["5000x50", "surplus-5000x60"])
def test_rm_certified_where_scipy_cannot_reach(tmp_path, schools):
    # 5,000 students with 12-school lists at 100-seat schools: scipy would
    # need a 5,000 x (seats + 5,000) float64 matrix of 400-440 MB; with 60
    # schools, 1,000 seats stay free.  RM admits no improving cycle, while
    # TTC and DA leave one
    path = tmp_path / "city.txt"
    write_city_market(path, 5000, schools, 100, 12, 1, beta=0.3)
    market = load_market(path)
    verdicts = {name: improving_cycle_exists(market, run_mechanism(name, market, 3))
                for name in ("RM", "TTC", "DA")}
    assert verdicts == {"RM": False, "TTC": True, "DA": True}


def uniform_max_ranges(config, reps):
    """``rank_minimizing_max_range`` of each of the first ``reps`` markets
    of a uniform ``run_experiment(config)``, redrawn from its seed: one
    row (least rank sum, least and greatest maximum rank) each."""
    return np.array([rank_minimizing_max_range(generate_uniform_market(
        config.n, derive_seed(config.master_seed, r, _TAG_MARKET))) for r in range(reps)])


def test_max_range_oracle_by_enumeration():
    # every row-to-seat injection of small markets, partial lists and
    # short supply included: the least rank sum, and the least and
    # greatest maximum rank among the injections that attain it
    rng = np.random.default_rng(66)
    checked = spread = 0
    while checked < 300:
        market = Market(*random_market_lists(rng, max_students=6, max_schools=4))
        cost, _ = reference_rank_cost_matrix(market)
        if cost.shape[1] > 10:
            continue
        ranks = cost[np.arange(cost.shape[0]), _injections(*cost.shape[::-1])]
        sums = ranks.sum(axis=1)
        maxes = ranks[sums == sums.min()].max(axis=1)
        expected = (sums.min(), maxes.min(), maxes.max())
        assert rank_minimizing_max_range(market) == expected
        checked += 1
        spread += expected[1] < expected[2]
    assert spread > 0


def test_rm_max_within_range_of_optima():
    # RM's tie rule picks one optimum: its rank sum is the least, and its
    # maximum lies between the least and greatest over optima (4.825,
    # 5.050 and 5.175 on average here; the range is open on 12 of 40)
    config = ExperimentConfig(n=30, replications=40, master_seed=30, mechanisms=("RM",))
    rm = run_experiment(config).summaries["RM"]
    optimum, least, greatest = uniform_max_ranges(config, 40).T
    assert np.array_equal(optimum, np.round(rm.per_rep_mean * config.n))
    assert (least <= rm.per_rep_max).all() and (rm.per_rep_max <= greatest).all()
    assert (least < greatest).any()
