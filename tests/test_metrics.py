import math

import numpy as np
import pytest

from schoolmatch.market import UNASSIGNED, Allocation, Market
from schoolmatch.mechanisms import deferred_acceptance, top_trading_cycles
from schoolmatch.metrics import (
    is_pareto_optimal,
    justified_envy,
    rank_stats,
    threshold_shares,
)
from schoolmatch.simulate import generate_uniform_market

from oracles import (
    dominates,
    envious_by_definition,
    pareto_optimal_by_enumeration,
    random_market_lists,
    ranks_by_definition,
)


def market_3x3():
    return Market(
        capacities=(1, 1, 1),
        prefs=((1, 0, 2), (0, 1, 2), (0, 1, 2)),
        priorities=((0, 2, 1), (1, 0, 2), (0, 1, 2)),
    )


class TestRankStats:
    def test_everyone_first_choice(self):
        m = Market(
            capacities=(1, 1),
            prefs=((0, 1), (1, 0)),
            priorities=((0, 1), (0, 1)),
        )
        stats = rank_stats(m, Allocation((0, 1)))
        assert stats.mean == 1.0
        assert stats.max == 1
        assert stats.variance == 0.0
        assert stats.histogram == {1: 2}
        assert stats.unassigned_count == 0

    def test_three_by_three_da(self):
        m = market_3x3()
        stats = rank_stats(m, deferred_acceptance(m))
        assert stats.mean == pytest.approx(7 / 3)
        assert stats.max == 3
        assert stats.histogram == {2: 2, 3: 1}

    def test_partial_lists_mean_over_assigned_only(self):
        # student 0 ranks one school and stays unassigned (effective rank 2)
        m = Market(capacities=(1, 1), prefs=((0,), (0, 1)), priorities=((1, 0), (0, 1)))
        stats = rank_stats(m, Allocation((UNASSIGNED, 0)))
        assert stats.mean == 1.0  # only the assigned student counts
        assert stats.max == 2  # the k+1 entry still shows up in max and histogram
        assert stats.histogram == {1: 1, 2: 1}
        assert stats.unassigned_count == 1

    def test_histogram_mass_conservation(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(1, 25))
            m = generate_uniform_market(n, int(rng.integers(0, 2**32)))
            stats = rank_stats(m, top_trading_cycles(m))
            assert sum(stats.histogram.values()) == n

    def test_sample_variance(self):
        m = market_3x3()
        stats = rank_stats(m, deferred_acceptance(m))
        assert stats.variance == pytest.approx(np.var([2, 2, 3], ddof=1))


class TestJustifiedEnvy:
    def test_da_generates_none(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            m = generate_uniform_market(n, int(rng.integers(0, 2**32)))
            assert justified_envy(m, deferred_acceptance(m)) == set()

    def test_ttc_three_by_three(self):
        m = market_3x3()
        assert justified_envy(m, top_trading_cycles(m)) == {2}

    def test_single_student(self):
        m = Market(capacities=(1,), prefs=((0,),), priorities=((0,),))
        assert justified_envy(m, Allocation((0,))) == set()

    def test_matches_definition_on_random_allocations(self):
        rng = np.random.default_rng(33)
        for _ in range(150):
            n = int(rng.integers(2, 8))
            m = generate_uniform_market(n, int(rng.integers(0, 2**32)))
            alloc = Allocation(tuple(int(s) for s in rng.permutation(n)))
            assert justified_envy(m, alloc) == envious_by_definition(m, alloc)

    def test_matches_definition_on_random_partial_markets(self):
        # partial and empty lists, capacities above 1, unbalanced sizes,
        # and feasible allocations that leave students unassigned
        rng = np.random.default_rng(34)
        envious = unassigned = crowded = 0
        for _ in range(300):
            caps, prefs, prios = random_market_lists(rng)
            m = Market(capacities=caps, prefs=prefs, priorities=prios)
            seats = list(caps)
            assignment = [UNASSIGNED] * len(prefs)
            for t in rng.permutation(len(prefs)).tolist():
                open_ = [s for s in prefs[t] if seats[s] > 0]
                if open_ and rng.random() < 0.8:
                    assignment[t] = int(rng.choice(open_))
                    seats[assignment[t]] -= 1
            alloc = Allocation(assignment)
            expected = envious_by_definition(m, alloc)
            assert justified_envy(m, alloc) == expected
            envious += bool(expected)
            unassigned += UNASSIGNED in assignment
            crowded += any(assignment.count(s) > 1 for s in range(len(caps)))
        assert min(envious, unassigned, crowded) > 50, (envious, unassigned, crowded)

    def test_seat_at_unranked_school_leaves_every_listed_school_above(self):
        # student 0 holds school 1, which they never ranked, and outranks
        # the holder of school 0, the one school they do rank
        m = Market(capacities=(1, 1), prefs=((0,), (0, 1)), priorities=((0, 1), (0, 1)))
        assert justified_envy(m, Allocation((1, 0))) == {0}

    def test_capacity_envy_compares_worst_admitted(self):
        # school 0 (2 seats) admits students 1,2; student 0 prefers it and
        # outranks the worst admitted student
        m = Market(
            capacities=(2, 1),
            prefs=((0, 1), (0, 1), (0, 1)),
            priorities=((1, 0, 2), (0, 1, 2)),
        )
        alloc = Allocation((1, 0, 0))
        assert justified_envy(m, alloc) == {0}

    def test_vacant_seat_counts_when_ranked(self):
        m = Market(capacities=(1, 1), prefs=((0, 1), (0, 1)), priorities=((0, 1), (0, 1)))
        # student 1 sits at their second choice while school 0 is empty
        alloc = Allocation((UNASSIGNED, 1))
        envy = justified_envy(m, alloc)
        assert 1 in envy

    def test_unranked_student_cannot_envy(self):
        # school 0 never ranks student 1
        m = Market(capacities=(1, 1), prefs=((0, 1), (0, 1)), priorities=((0,), (0, 1)))
        alloc = Allocation((0, 1))
        assert justified_envy(m, alloc) == set()

    def test_partial_list_unassigned_envies_everything_ranked(self):
        m = Market(capacities=(1,), prefs=((0,), (0,)), priorities=((1, 0),))
        alloc = Allocation((0, UNASSIGNED))
        # student 1 is unassigned, prefers school 0, and outranks student 0 there
        assert justified_envy(m, alloc) == {1}


def test_envy_separates_mechanisms():
    # RM and TTC each produce envy on a decent fraction of random
    # instances; DA never does
    from schoolmatch.mechanisms import rank_minimizing

    rng = np.random.default_rng(36)
    rm_hits = ttc_hits = 0
    for i in range(50):
        m = generate_uniform_market(20, int(rng.integers(0, 2**32)))
        rm_hits += bool(justified_envy(m, rank_minimizing(m, i)))
        ttc_hits += bool(justified_envy(m, top_trading_cycles(m)))
        assert justified_envy(m, deferred_acceptance(m)) == set()
    assert rm_hits > 10
    assert ttc_hits > 10


class TestParetoCheck:
    def test_da_output_dominated(self):
        m = market_3x3()
        check = is_pareto_optimal(m, deferred_acceptance(m))
        assert not check
        assert check.witness is not None
        assert dominates(m, check.witness, deferred_acceptance(m))
        assert ranks_by_definition(m, check.witness) == [1, 1, 3]

    def test_ttc_output_optimal(self):
        m = market_3x3()
        assert is_pareto_optimal(m, top_trading_cycles(m))

    def test_everyone_first_cannot_improve(self):
        m = Market(
            capacities=(1, 1),
            prefs=((0, 1), (1, 0)),
            priorities=((0, 1), (0, 1)),
        )
        assert is_pareto_optimal(m, Allocation((0, 1)))

    def test_partial_lists_rejected(self):
        m = Market(capacities=(1, 1), prefs=((0,), (0, 1)), priorities=((0, 1), (0, 1)))
        with pytest.raises(ValueError, match="full lists"):
            is_pareto_optimal(m, Allocation((0, 1)))

    def test_unbalanced_rejected(self):
        m = Market(capacities=(2, 1), prefs=((0, 1), (0, 1)), priorities=((0, 1), (0, 1)))
        with pytest.raises(ValueError, match="balanced"):
            is_pareto_optimal(m, Allocation((0, 1)))

    def test_agrees_with_enumeration(self):
        rng = np.random.default_rng(34)
        for _ in range(150):
            n = int(rng.integers(2, 7))
            m = generate_uniform_market(n, int(rng.integers(0, 2**32)))
            alloc = Allocation(tuple(int(s) for s in rng.permutation(n)))
            check = is_pareto_optimal(m, alloc)
            assert bool(check) == pareto_optimal_by_enumeration(m, alloc)
            if not check:
                assert dominates(m, check.witness, alloc)

    def test_capacity_two_balanced(self):
        rng = np.random.default_rng(35)
        for _ in range(60):
            caps = (2, 1, 1)
            n = 4
            prefs = tuple(tuple(int(s) for s in rng.permutation(3)) for _ in range(n))
            prios = tuple(tuple(int(t) for t in rng.permutation(n)) for _ in range(3))
            m = Market(capacities=caps, prefs=prefs, priorities=prios)
            seats = [0, 0, 1, 2]
            rng.shuffle(seats)
            alloc = Allocation(tuple(seats))
            check = is_pareto_optimal(m, alloc)
            assert bool(check) == pareto_optimal_by_enumeration(m, alloc)
            if not check:
                assert dominates(m, check.witness, alloc)


class TestThresholdShares:
    def test_all_first_choice(self):
        m = Market(capacities=(1,), prefs=((0,),), priorities=((0,),))
        stats = rank_stats(m, Allocation((0,)))
        assert threshold_shares(stats, [1]) == [0.0]

    def test_direct_count(self):
        m = Market(
            capacities=(1, 1, 1, 1),
            prefs=(
                (0, 1, 2, 3),
                (0, 1, 2, 3),
                (0, 1, 2, 3),
                (0, 1, 2, 3),
            ),
            priorities=((0, 1, 2, 3),) * 4,
        )
        stats = rank_stats(m, Allocation((0, 1, 2, 3)))  # ranks 1,2,3,4
        assert threshold_shares(stats, [2]) == [0.5]
        assert threshold_shares(stats, [1, 2, 3, 4]) == [0.75, 0.5, 0.25, 0.0]

    def test_fractional_cutoffs(self):
        m = market_3x3()
        stats = rank_stats(m, deferred_acceptance(m))  # ranks 2,2,3
        assert threshold_shares(stats, [math.log(3)]) == [1.0]
        assert threshold_shares(stats, [2.5]) == [pytest.approx(1 / 3)]
