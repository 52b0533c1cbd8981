import copy
import pickle

import numpy as np
import pytest

from schoolmatch.market import (
    UNASSIGNED,
    Allocation,
    Market,
    MarketFormatError,
    UndersuppliedMarketError,
    UnrankedSchoolError,
    balance_capacities,
    effective_ranks,
    load_market,
    rank_of,
    save_market,
    validate_allocation,
    validate_market,
)
from schoolmatch.simulate import generate_uniform_market

from oracles import position_table_by_definition, random_market_lists, validate_market_by_loops


def market_2x2():
    return Market(
        capacities=(1, 1),
        prefs=((0, 1), (0, 1)),
        priorities=((1, 0), (0, 1)),
    )


class TestRankOf:
    def test_positional(self):
        # list s3,s1,s2 -> indices (2, 0, 1); school s1 is index 0
        m = Market(capacities=(1, 1, 1), prefs=((2, 0, 1),) * 3, priorities=((0, 1, 2),) * 3)
        assert rank_of(m, 0, 0) == 2
        assert rank_of(m, 0, 2) == 1
        assert rank_of(m, 0, 1) == 3

    def test_unassigned_is_len_plus_one(self):
        m = Market(capacities=(1, 1, 1), prefs=((2, 0, 1),) * 3, priorities=((0, 1, 2),) * 3)
        assert rank_of(m, 0, UNASSIGNED) == 4

    def test_singleton_list(self):
        m = Market(capacities=(1,) * 5, prefs=((4,),), priorities=((0,),) * 5)
        assert rank_of(m, 0, 4) == 1
        assert rank_of(m, 0, UNASSIGNED) == 2

    def test_unranked_school_raises(self):
        m = Market(capacities=(1, 1), prefs=((0,), (0, 1)), priorities=((0, 1), (0, 1)))
        with pytest.raises(UnrankedSchoolError):
            rank_of(m, 0, 1)

    def test_bijection_onto_1_to_k(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            m = generate_uniform_market(n, int(rng.integers(0, 2**32)))
            for t in range(n):
                ranks = sorted(rank_of(m, t, s) for s in m.prefs[t])
                assert ranks == list(range(1, len(m.prefs[t]) + 1))


class TestValidateMarket:
    def test_well_formed(self):
        assert validate_market(market_2x2()) == []

    def test_duplicate_pref(self):
        m = Market(capacities=(1, 1), prefs=((0, 0), (0, 1)), priorities=((0, 1), (0, 1)))
        problems = validate_market(m)
        assert any("duplicate school 0" in p and "student 0" in p for p in problems)

    def test_unknown_student_in_priorities(self):
        m = Market(capacities=(1, 1), prefs=((0, 1), (0, 1)), priorities=((9,), (0, 1)))
        problems = validate_market(m)
        assert any("unknown student id 9" in p for p in problems)

    def test_zero_capacity(self):
        m = Market(capacities=(0, 1), prefs=((0, 1),), priorities=((0,), (0,)))
        assert any("capacity" in p for p in validate_market(m))

    def test_unknown_school_in_prefs(self):
        m = Market(capacities=(1,), prefs=((0, 3),), priorities=((0,),))
        assert any("unknown school id 3" in p for p in validate_market(m))


class TestValidateAllocation:
    def test_ok(self):
        m = market_2x2()
        assert validate_allocation(m, Allocation((0, 1))) == []
        assert validate_allocation(m, Allocation((UNASSIGNED, 1))) == []

    def test_over_capacity(self):
        m = market_2x2()
        problems = validate_allocation(m, Allocation((0, 0)))
        assert any("capacity" in p for p in problems)

    def test_unranked_assignment(self):
        m = Market(capacities=(1, 1), prefs=((0,), (0, 1)), priorities=((0, 1), (0, 1)))
        problems = validate_allocation(m, Allocation((1, 0)))
        assert any("never ranked" in p for p in problems)


class TestBalanceCapacities:
    def test_largest_first(self):
        m = Market(
            capacities=(3, 3),
            prefs=((0, 1),) * 4,
            priorities=((0, 1, 2, 3), (0, 1, 2, 3)),
        )
        assert balance_capacities(m).capacities == (2, 2)

    def test_already_balanced(self):
        m = market_2x2()
        assert balance_capacities(m) is m

    def test_undersupply(self):
        m = Market(capacities=(1,), prefs=((0,), (0,)), priorities=((0, 1),))
        with pytest.raises(UndersuppliedMarketError):
            balance_capacities(m)

    def test_forced_below_one(self):
        # three unit schools, two students: one school must lose its seat
        m = Market(capacities=(1, 1, 1), prefs=((0, 1, 2),) * 2, priorities=((0, 1),) * 3)
        assert balance_capacities(m).capacities == (0, 1, 1)

    def test_ties_broken_by_lowest_id(self):
        m = Market(capacities=(2, 2, 1), prefs=((0, 1, 2),) * 4, priorities=((0, 1, 2, 3),) * 3)
        assert balance_capacities(m).capacities == (1, 2, 1)

    def test_idempotent_and_preference_preserving(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            m_schools = int(rng.integers(1, 6))
            caps = tuple(int(c) for c in rng.integers(1, 5, size=m_schools))
            if sum(caps) < n:
                caps = caps[:-1] + (caps[-1] + n - sum(caps),)
            prefs = tuple(
                tuple(int(s) for s in rng.permutation(m_schools)) for _ in range(n)
            )
            prios = tuple(tuple(int(t) for t in rng.permutation(n)) for _ in range(m_schools))
            m = Market(capacities=caps, prefs=prefs, priorities=prios)
            b = balance_capacities(m)
            assert b.total_seats == n
            assert b.prefs == m.prefs
            assert b.priorities == m.priorities
            assert balance_capacities(b) is b


SAMPLE = """\
[schools]
0,1
1,1
[students]
0,0;1
1,0;1
[priorities]
0,1;0
1,0;1
"""


class TestMarketFiles:
    def test_sample_round_trip(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(SAMPLE)
        m = load_market(path)
        assert m.capacities == (1, 1)
        assert m.prefs == ((0, 1), (0, 1))
        assert m.priorities == ((1, 0), (0, 1))

    def test_header_only(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("[schools]\n0,1\n")
        with pytest.raises(MarketFormatError, match="no students"):
            load_market(path)

    def test_duplicate_student_row(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("[schools]\n0,1\n[students]\n0,0\n0,0\n")
        with pytest.raises(MarketFormatError, match="line 5"):
            load_market(path)

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("[schools]\n0,x\n")
        with pytest.raises(MarketFormatError, match="line 2"):
            load_market(path)

    def test_content_before_section(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0,1\n")
        with pytest.raises(MarketFormatError, match="line 1"):
            load_market(path)

    def test_unknown_school_in_student_row(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("[schools]\n0,1\n[students]\n0,0;7\n")
        with pytest.raises(MarketFormatError, match="unknown school id 7"):
            load_market(path)

    def test_priorities_section_optional(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("[schools]\n0,1\n[students]\n0,0\n")
        m = load_market(path)
        assert m.priorities == ((),)

    def test_byte_order_mark_tolerated(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes("﻿".encode("utf-8") + SAMPLE.encode("utf-8"))
        assert load_market(path).prefs == ((0, 1), (0, 1))

    def test_arbitrary_ids_sorted_ascending(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(
            "[schools]\n20,1\n10,2\n[students]\n7,20;10\n3,10\n[priorities]\n10,7;3\n"
        )
        m = load_market(path)
        assert m.school_ids == (10, 20)
        assert m.student_ids == (3, 7)
        assert m.capacities == (2, 1)
        # student 7 (index 1) listed school 20 (index 1) first
        assert m.prefs == ((0,), (1, 0))
        assert m.priorities == ((1, 0), ())

    def test_load_save_identity(self, tmp_path):
        rng = np.random.default_rng(5)
        for i in range(20):
            n = int(rng.integers(1, 8))
            m = generate_uniform_market(n, int(rng.integers(0, 2**32)))
            # randomly truncate some lists to cover the partial case
            prefs = tuple(p[: int(rng.integers(0, len(p))) + 1] for p in m.prefs)
            m = Market(capacities=m.capacities, prefs=prefs, priorities=m.priorities)
            path = tmp_path / f"m{i}.txt"
            save_market(m, path)
            assert load_market(path) == m


class TestEffectiveRanks:
    def test_partial_list_unassigned(self):
        m = Market(capacities=(1, 1), prefs=((0,), (0, 1)), priorities=((0, 1), (0, 1)))
        ranks = effective_ranks(m, Allocation((UNASSIGNED, 0)))
        assert ranks.tolist() == [2, 1]

    def test_matches_rank_of(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            m = generate_uniform_market(n, int(rng.integers(0, 2**32)))
            alloc = Allocation(tuple(int(s) for s in rng.permutation(n)))
            ranks = effective_ranks(m, alloc)
            for t in range(n):
                assert ranks[t] == rank_of(m, t, alloc.assignment[t])


class TestArrayStorage:
    def random_markets(self, seed, count=100):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            yield random_market_lists(rng)

    def test_tuple_views_equal_nested_input(self):
        for caps, prefs, prios in self.random_markets(31):
            m = Market(capacities=caps, prefs=prefs, priorities=prios)
            assert m.prefs == tuple(map(tuple, prefs))
            assert m.priorities == tuple(map(tuple, prios))
            assert m.capacities == tuple(caps)
            assert m.list_lengths.tolist() == [len(p) for p in prefs]
            assert m.priority_lengths.tolist() == [len(p) for p in prios]
            assert m.pref_array.dtype == m.priority_array.dtype == np.int64

    def test_array_input_equals_nested_input(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n, m_schools = (int(x) for x in rng.integers(1, 9, size=2))
            prefs = np.array([rng.permutation(m_schools) for _ in range(n)], dtype=np.int32)
            prios = np.array([rng.permutation(n) for _ in range(m_schools)])
            caps = rng.integers(1, 4, size=m_schools)
            from_arrays = Market(capacities=caps, prefs=prefs, priorities=prios)
            nested = Market(capacities=caps.tolist(), prefs=prefs.tolist(), priorities=prios.tolist())
            assert from_arrays == nested
            assert hash(from_arrays) == hash(nested)
            # the market keeps its own copy of the caller's arrays
            prefs[0] = prefs[0][::-1]
            assert from_arrays.prefs == nested.prefs
        assert Market(capacities=(1, 1), prefs=((0, 1),), priorities=((0,), (0,))) != Market(
            capacities=(1, 1), prefs=((1, 0),), priorities=((0,), (0,))
        )

    def test_tables_match_definition(self):
        for caps, prefs, prios in self.random_markets(33):
            m = Market(capacities=caps, prefs=prefs, priorities=prios)
            assert np.array_equal(m.rank_table, position_table_by_definition(prefs, len(caps)))
            assert np.array_equal(
                m.priority_table, position_table_by_definition(prios, len(prefs))
            )

    def test_stored_arrays_are_read_only(self):
        caps, prefs, prios = random_market_lists(np.random.default_rng(34))
        original = Market(capacities=caps, prefs=prefs, priorities=prios)
        for m in (original, pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
            assert m == original
            for name in ("pref_array", "list_lengths", "priority_array", "priority_lengths",
                         "rank_table", "priority_table"):
                arr = getattr(m, name)
                with pytest.raises(ValueError, match="read-only"):
                    arr[(0,) * arr.ndim] = 1
                with pytest.raises(AttributeError):
                    setattr(m, name, arr.copy())
            with pytest.raises(AttributeError):
                m.capacities = ()

    def test_save_load_round_trip(self, tmp_path):
        for i, (caps, prefs, prios) in enumerate(self.random_markets(35, count=40)):
            m = Market(capacities=caps, prefs=prefs, priorities=prios)
            path = tmp_path / f"m{i}.txt"
            save_market(m, path)
            assert load_market(path) == m

    def test_validate_matches_loops(self):
        rng = np.random.default_rng(36)
        for caps, prefs, prios in self.random_markets(36):
            # plant unknown and repeated ids at random places
            for lists, bound in ((prefs, len(caps)), (prios, len(prefs))):
                for _ in range(int(rng.integers(0, 4))):
                    row = lists[int(rng.integers(len(lists)))]
                    bad = int(rng.choice([-1, bound, bound + 5, *row])) if row else -1
                    row.insert(int(rng.integers(len(row) + 1)), bad)
            if rng.random() < 0.2:
                caps[0] = 0
            m = Market(capacities=caps, prefs=prefs, priorities=prios)
            assert validate_market(m) == validate_market_by_loops(m)
