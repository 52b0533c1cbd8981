from pathlib import Path

import numpy as np
import pytest

from schoolmatch import market as market_module
from schoolmatch.market import UNASSIGNED, Allocation, Market, load_market
from schoolmatch.mechanisms import (
    _RM_MEMO,
    _memoized_rm,
    deferred_acceptance,
    random_serial_dictatorship,
    rank_minimizing,
    run_mechanism,
    serial_dictatorship,
    top_trading_cycles,
)
from schoolmatch.market import effective_ranks, validate_allocation, validate_market
from schoolmatch.metrics import is_pareto_optimal, rank_stats
from schoolmatch.simulate import _TAG_MARKET, derive_seed, generate_uniform_market

from oracles import (
    brute_force_assignment,
    counted_solves,
    deferred_acceptance_by_proposals,
    dominates,
    matched_total,
    pareto_optimal_by_enumeration,
    random_market_lists,
    ranks_by_definition,
    reference_rank_cost_matrix,
    stable_matchings,
)


def market_3x3():
    # student 0: s1>s0>s2; students 1,2: s0>s1>s2
    # priorities s0: 0>2>1, s1: 1>0>2
    return Market(
        capacities=(1, 1, 1),
        prefs=((1, 0, 2), (0, 1, 2), (0, 1, 2)),
        priorities=((0, 2, 1), (1, 0, 2), (0, 1, 2)),
    )


class TestDeferredAcceptance:
    def test_contested_school_unique_stable_outcome(self):
        # both want s0; s0 prioritizes student 1
        m = Market(capacities=(1, 1), prefs=((0, 1), (0, 1)), priorities=((1, 0), (0, 1)))
        alloc = deferred_acceptance(m)
        assert alloc == Allocation((1, 0))
        assert ranks_by_definition(m, alloc) == [2, 1]
        stables = stable_matchings(m)
        assert len(stables) == 1 and stables[0] == alloc

    def test_disjoint_tops_all_first_choice(self):
        m = Market(
            capacities=(1, 1, 1),
            prefs=((0, 1, 2), (1, 2, 0), (2, 0, 1)),
            priorities=((0, 1, 2),) * 3,
        )
        assert ranks_by_definition(m, deferred_acceptance(m)) == [1, 1, 1]

    def test_three_by_three_trace(self):
        m = market_3x3()
        alloc = deferred_acceptance(m)
        assert ranks_by_definition(m, alloc) == [2, 2, 3]

    def test_student_optimal_among_stable(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            n = int(rng.integers(2, 7))
            m = generate_uniform_market(n, int(rng.integers(0, 2**32)))
            alloc = deferred_acceptance(m)
            stables = stable_matchings(m)
            assert alloc in stables
            ranks = ranks_by_definition(m, alloc)
            for t in range(n):
                assert ranks[t] == min(ranks_by_definition(m, s)[t] for s in stables)

    def test_partial_lists_leave_rejected_unassigned(self):
        # both students only rank s0, capacity 1
        m = Market(capacities=(1, 1), prefs=((0,), (0,)), priorities=((1, 0), (0, 1)))
        alloc = deferred_acceptance(m)
        assert alloc == Allocation((UNASSIGNED, 0))

    def test_unranked_applicant_rejected_outright(self):
        # s0 does not rank student 0 at all
        m = Market(capacities=(1, 1), prefs=((0, 1), (0, 1)), priorities=((1,), (0, 1)))
        alloc = deferred_acceptance(m)
        assert alloc == Allocation((1, 0))

    def test_capacity_two_waiting_list(self):
        m = Market(
            capacities=(2, 1),
            prefs=((0, 1), (0, 1), (0, 1)),
            priorities=((2, 0, 1), (1, 0, 2)),
        )
        alloc = deferred_acceptance(m)
        assert alloc == Allocation((0, 1, 0))

    def test_matches_textbook_da_on_acceptance_markets(self):
        # the first 200 markets of the n=100 acceptance table, whose DA
        # first-choice share reads 79.2 against the source table's 96
        for r in range(200):
            m = generate_uniform_market(100, derive_seed(20251, r, _TAG_MARKET))
            assert deferred_acceptance(m) == deferred_acceptance_by_proposals(m), r

    def test_matches_textbook_da_on_random_partial_markets(self):
        rng = np.random.default_rng(62)
        for _ in range(300):
            capacities, prefs, priorities = random_market_lists(rng)
            capacities[0] = 0  # a school without seats rejects everyone
            m = Market(capacities, prefs, priorities)
            assert deferred_acceptance(m) == deferred_acceptance_by_proposals(m)


class TestTopTradingCycles:
    def test_self_resolving_cycles(self):
        m = Market(
            capacities=(1, 1, 1),
            prefs=((0, 1, 2), (1, 2, 0), (2, 0, 1)),
            priorities=((0, 1, 2), (1, 2, 0), (2, 0, 1)),
        )
        assert ranks_by_definition(m, top_trading_cycles(m)) == [1, 1, 1]

    def test_three_by_three_dominates_da(self):
        m = market_3x3()
        alloc = top_trading_cycles(m)
        assert alloc == Allocation((1, 0, 2))
        assert ranks_by_definition(m, alloc) == [1, 1, 3]

    def test_one_by_one(self):
        m = Market(capacities=(1,), prefs=((0,),), priorities=((0,),))
        assert top_trading_cycles(m) == Allocation((0,))

    def test_capacity_counters(self):
        # one school with two seats pointed at by two students in turn
        m = Market(
            capacities=(2, 1),
            prefs=((0, 1), (0, 1), (1, 0)),
            priorities=((0, 1, 2), (2, 0, 1)),
        )
        alloc = top_trading_cycles(m)
        assert alloc == Allocation((0, 0, 1))

    def test_partial_lists_exhausted_student_unassigned(self):
        m = Market(capacities=(1, 1), prefs=((0,), (0,)), priorities=((0, 1), (1, 0)))
        alloc = top_trading_cycles(m)
        assert alloc == Allocation((0, UNASSIGNED))

    def test_never_assigns_unranked_student(self):
        # school 0 ranks nobody: nobody can trade into it
        m = Market(capacities=(1, 1), prefs=((0, 1), (0, 1)), priorities=((), (0, 1)))
        alloc = top_trading_cycles(m)
        assert alloc == Allocation((1, UNASSIGNED))

    def test_full_market_perfect_matching(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m = generate_uniform_market(n, int(rng.integers(0, 2**32)))
            alloc = top_trading_cycles(m)
            assert sorted(alloc.assignment) == list(range(n))


class TestSerialDictatorship:
    def test_single_student(self):
        m = Market(capacities=(1,), prefs=((0,),), priorities=((0,),))
        assert random_serial_dictatorship(m, 123) == Allocation((0,))

    def test_identical_lists_give_rank_k_to_dictator_k(self):
        n = 6
        m = Market(
            capacities=(1,) * n,
            prefs=(tuple(range(n)),) * n,
            priorities=(tuple(range(n)),) * n,
        )
        order = [3, 0, 5, 1, 4, 2]
        alloc = serial_dictatorship(m, order)
        ranks = ranks_by_definition(m, alloc)
        for k, t in enumerate(order):
            assert ranks[t] == k + 1

    def test_exhausted_list_unassigned(self):
        m = Market(capacities=(1, 1), prefs=((0,), (0,)), priorities=((0, 1), (0, 1)))
        alloc = serial_dictatorship(m, [0, 1])
        assert alloc == Allocation((0, UNASSIGNED))

    def test_order_must_be_permutation(self):
        m = generate_uniform_market(3, 0)
        with pytest.raises(ValueError):
            serial_dictatorship(m, [0, 0, 1])

    def test_order_entries_must_be_exact(self):
        # 1.5 is refused, not truncated into student 1; a whole float is kept
        m = generate_uniform_market(2, 0)
        with pytest.raises(ValueError, match="order position 1: student id 1.5 does not convert"):
            serial_dictatorship(m, [0, 1.5])
        assert serial_dictatorship(m, [1.0, 0.0]) == serial_dictatorship(m, [1, 0])

    def test_seed_determinism(self):
        m = generate_uniform_market(20, 77)
        assert random_serial_dictatorship(m, 5) == random_serial_dictatorship(m, 5)
        assert random_serial_dictatorship(m, 5) != random_serial_dictatorship(m, 6)


class TestRankMinimizing:
    def test_diagonal_preferences_sum_n(self):
        n = 5
        prefs = tuple(tuple((t + k) % n for k in range(n)) for t in range(n))
        m = Market(capacities=(1,) * n, prefs=prefs, priorities=(tuple(range(n)),) * n)
        alloc = rank_minimizing(m, 0)
        assert effective_ranks(m, alloc).sum() == n

    def test_two_by_two_identical_prefs(self):
        m = Market(capacities=(1, 1), prefs=((0, 1), (0, 1)), priorities=((0, 1), (0, 1)))
        hits = 0
        for seed in range(400):
            alloc = rank_minimizing(m, seed)
            assert effective_ranks(m, alloc).sum() == 3
            hits += alloc.assignment[0] == 0
        # two symmetric optima; permutation tie-break picks each about half the time
        assert 0.40 <= hits / 400 <= 0.60

    def test_matches_brute_force_on_small_markets(self):
        rng = np.random.default_rng(23)
        for _ in range(120):
            n = int(rng.integers(1, 8))
            m = generate_uniform_market(n, int(rng.integers(0, 2**32)))
            alloc = rank_minimizing(m, int(rng.integers(0, 2**32)))
            cost, _ = reference_rank_cost_matrix(m)
            assert effective_ranks(m, alloc).sum() == matched_total(cost, brute_force_assignment(cost))

    def test_partial_lists_use_k_plus_one(self):
        # two students, one seat: someone stays unassigned at cost 2
        m = Market(capacities=(1,), prefs=((0,), (0,)), priorities=((0, 1),))
        alloc = rank_minimizing(m, 1)
        assert sorted(alloc.assignment) == [UNASSIGNED, 0]
        assert effective_ranks(m, alloc).sum() == 3

    def test_never_assigns_unranked_school(self):
        m = Market(capacities=(1, 1), prefs=((0,), (0,)), priorities=((0, 1), (0, 1)))
        for seed in range(20):
            alloc = rank_minimizing(m, seed)
            assert 1 not in alloc.assignment

    def test_ignores_priorities(self):
        m1 = market_3x3()
        m2 = Market(
            capacities=m1.capacities,
            prefs=m1.pref_array,
            priorities=((2, 1, 0), (0, 2, 1), (1, 0, 2)),
        )
        for seed in range(10):
            assert rank_minimizing(m1, seed) == rank_minimizing(m2, seed)


class TestRankMinimizingMemo:
    def test_solves_every_call_outside_a_memo(self, monkeypatch):
        solves = counted_solves(monkeypatch)
        m = market_3x3()
        assert rank_minimizing(m, 4) == rank_minimizing(m, 4)
        assert len(solves) == 2
        assert _RM_MEMO.get() is None

    def test_memo_answers_a_repeat_only(self, monkeypatch):
        m = generate_uniform_market(9, 5)
        more_seats = Market((2, *m.capacities[1:]), m.pref_array, m.priority_array)
        fresh = [rank_minimizing(m, 1), rank_minimizing(m, 2), rank_minimizing(more_seats, 1)]
        solves = counted_solves(monkeypatch)
        with _memoized_rm():
            first = rank_minimizing(m, 1)
            # a market drawn again is a new object with the same arrays
            assert rank_minimizing(generate_uniform_market(9, 5), 1) is first
            assert len(solves) == 1
            assert [first, rank_minimizing(m, 2), rank_minimizing(more_seats, 1)] == fresh
            assert len(solves) == 3
        assert _RM_MEMO.get() is None

    def test_memo_reads_list_lengths(self):
        prios = ((0, 1), (0, 1))
        short = Market(capacities=(1, 1), prefs=((0, 1), (0,)), priorities=prios)
        flawed = Market(capacities=(1, 1), prefs=np.array([[0, 1], [0, -1]]), priorities=prios)
        assert flawed.pref_array.dtype == short.pref_array.dtype
        assert np.array_equal(flawed.pref_array, short.pref_array)
        fresh = rank_minimizing(short, 0)
        with _memoized_rm():
            assert rank_minimizing(short, 0) == fresh
            with pytest.raises(ValueError, match="student 1: unknown school id -1"):
                rank_minimizing(flawed, 0)


class TestCrossMechanismProperties:
    def test_rm_rank_sum_is_minimal(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            m = generate_uniform_market(n, int(rng.integers(0, 2**32)))
            seed = int(rng.integers(0, 2**32))
            rm = effective_ranks(m, rank_minimizing(m, seed)).sum()
            assert rm <= effective_ranks(m, deferred_acceptance(m)).sum()
            assert rm <= effective_ranks(m, top_trading_cycles(m)).sum()
            assert rm <= effective_ranks(m, random_serial_dictatorship(m, seed)).sum()

    def test_ttc_and_rm_pareto_optimal_small(self):
        rng = np.random.default_rng(25)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            m = generate_uniform_market(n, int(rng.integers(0, 2**32)))
            assert pareto_optimal_by_enumeration(m, top_trading_cycles(m))
            assert pareto_optimal_by_enumeration(m, rank_minimizing(m, int(rng.integers(0, 2**32))))

    def test_rsd_rm_and_full_priority_ttc_pareto_optimal(self):
        # partial and empty lists, capacities 1-3, unbalanced sizes.  TTC
        # never seats a student at a school that does not rank them, so
        # only with full priority lists is it Pareto optimal.
        rng = np.random.default_rng(27)
        ttc_dominated = 0
        for i in range(400):
            caps, prefs, prios = random_market_lists(rng)
            m = Market(capacities=caps, prefs=prefs, priorities=prios)
            assert is_pareto_optimal(m, random_serial_dictatorship(m, i))
            assert is_pareto_optimal(m, rank_minimizing(m, i))
            ttc = top_trading_cycles(m)
            check = is_pareto_optimal(m, ttc)
            if not check:
                ttc_dominated += 1
                assert validate_allocation(m, check.witness) == []
                assert dominates(m, check.witness, ttc)
            full = Market(capacities=caps, prefs=prefs,
                          priorities=[rng.permutation(len(prefs)) for _ in caps])
            assert is_pareto_optimal(full, top_trading_cycles(full))
        assert ttc_dominated > 100

    def test_ttc_dominated_when_a_school_ranks_nobody(self):
        m = Market(capacities=(1,), prefs=((0,),), priorities=((),))
        check = is_pareto_optimal(m, top_trading_cycles(m))
        assert top_trading_cycles(m) == Allocation((UNASSIGNED,))
        assert not check and check.witness == Allocation((0,))

    def test_best_off_student_has_rank_one(self):
        # in any Pareto optimal allocation someone gets their top choice
        rng = np.random.default_rng(26)
        for _ in range(60):
            n = int(rng.integers(2, 20))
            m = generate_uniform_market(n, int(rng.integers(0, 2**32)))
            for alloc in (top_trading_cycles(m), rank_minimizing(m, 7)):
                assert min(ranks_by_definition(m, alloc)) == 1

    def test_identical_inputs_identical_allocations(self):
        m = generate_uniform_market(30, 1234)
        for name in ("DA", "TTC", "RSD", "RM"):
            a = run_mechanism(name, m, 99)
            b = run_mechanism(name, m, 99)
            assert a == b

    def test_zero_seat_school_rejects_its_applicants(self):
        m = Market(capacities=(0, 2), prefs=((0, 1), (0, 1)), priorities=((0, 1), (0, 1)))
        for name in ("DA", "TTC", "RSD", "RM"):
            assert run_mechanism(name, m, 3) == Allocation((1, 1)), name
        # a market with no students seats nobody, but its capacities are
        # still screened
        empty = Market(capacities=(1,), prefs=(), priorities=((),))
        negative = Market(capacities=(-1,), prefs=(), priorities=((),))
        for name in ("DA", "TTC", "RSD", "RM"):
            assert run_mechanism(name, empty, 3) == Allocation(()), name
            with pytest.raises(ValueError, match="school 0: negative capacity -1"):
                run_mechanism(name, negative, 3)

    # A repeated id is refused too: the scatter into the rank table would
    # keep its last position, rank 2 for student 0's first choice.
    @pytest.mark.parametrize("prefs", [((-1,), (0, 1)), ((0, 2), (0, 1)), ((0, 0), (0, 1))])
    def test_out_of_range_school_id_refused(self, prefs):
        # -1 would otherwise read as the last school, and as UNASSIGNED in RSD
        m = Market(capacities=(1, 1), prefs=prefs, priorities=((0, 1), (0, 1)))
        bad = prefs[0][-1]
        message = (f"student 0: duplicate school {bad} in preference list" if bad in prefs[0][:-1]
                   else f"student 0: unknown school id {bad}")
        assert message in validate_market(m)
        for name in ("DA", "TTC", "RSD", "RM"):
            with pytest.raises(ValueError, match=message):
                run_mechanism(name, m, 3)

    @pytest.mark.parametrize("priorities",
                             [((0, -1), (0, 1)), ((0, 2), (0, 1)), ((0, 0), (0, 1))])
    def test_out_of_range_student_id_refused(self, priorities):
        m = Market(capacities=(1, 1), prefs=((0, 1), (0, 1)), priorities=priorities)
        bad = priorities[0][-1]
        message = (f"school 0: duplicate student {bad} in priority list" if bad in priorities[0][:-1]
                   else f"school 0: unknown student id {bad}")
        assert message in validate_market(m)
        for name in ("DA", "TTC"):  # RSD and RM never read priorities
            with pytest.raises(ValueError, match=message):
                run_mechanism(name, m, 3)

    def test_negative_capacity_refused(self):
        m = Market(capacities=(-1, 2), prefs=((0, 1), (0, 1)), priorities=((0, 1), (0, 1)))
        assert validate_market(m) == ["school 0: negative capacity -1"]
        for name in ("DA", "TTC", "RSD", "RM"):
            with pytest.raises(ValueError, match="school 0: negative capacity -1"):
                run_mechanism(name, m, 3)

    @pytest.mark.parametrize("schools", [1, 3], ids=["m-1", "m+1"])
    def test_wrong_priority_count_refused(self, schools):
        m = Market(capacities=(1, 1), prefs=((0, 1), (0, 1)), priorities=((0, 1),) * schools)
        message = f"priorities cover {schools} schools, expected 2"
        assert validate_market(m)[0] == message
        for name in ("DA", "TTC"):
            with pytest.raises(ValueError, match=message):
                run_mechanism(name, m, 3)
        with pytest.raises(ValueError, match=message):
            rank_stats(m, Allocation((0, 1)))

    def test_loaded_market_screens_each_list_once(self, monkeypatch):
        # load_market's validation builds the tables every mechanism reads
        lists = []
        screen = market_module._screen
        monkeypatch.setattr(market_module, "_screen",
                            lambda *args: lists.append(args[-1]) or screen(*args))
        m = load_market(Path(__file__).parent / "data" / "small_market.txt")
        for name in ("DA", "TTC", "RSD", "RM"):
            run_mechanism(name, m, 3)
        assert lists == ["preference list", "priority list"]

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            run_mechanism("BOSTON", generate_uniform_market(2, 0), 0)
