import copy
import pickle
from pathlib import Path

import numpy as np
import pytest

from schoolmatch.market import (
    UNASSIGNED,
    Allocation,
    Market,
    MarketFormatError,
    _BLOCK_CHARS,
    _int_type,
    _list_type,
    effective_ranks,
    load_market,
    save_market,
    validate_allocation,
    validate_market,
)
from schoolmatch.metrics import justified_envy, rank_stats
from schoolmatch.simulate import generate_uniform_market

from oracles import (
    lists_of,
    load_market_by_loops,
    peak_of,
    position_table_by_definition,
    random_market_lists,
    ranks_by_definition,
    validate_allocation_by_loops,
    validate_market_by_loops,
    write_city_market,
)


def market_2x2():
    return Market(
        capacities=(1, 1),
        prefs=((0, 1), (0, 1)),
        priorities=((1, 0), (0, 1)),
    )


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
        # zero seats are valid, as for every mechanism; fewer are not
        m = Market(capacities=(0, 1), prefs=((0, 1),), priorities=((0,), (0,)))
        assert validate_market(m) == []
        m = Market(capacities=(1, -1), prefs=((0, 1),), priorities=((0,), (0,)))
        assert validate_market(m) == ["school 1: negative capacity -1"]

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
    def test_zero_seat_market_is_valid_and_saves(self, tmp_path):
        m = Market(capacities=(0, 1), prefs=((0, 1),), priorities=((0,), (0,)))
        assert validate_market(m) == []
        save_market(m, tmp_path / "m.txt")
        assert (tmp_path / "m.txt").read_text().startswith("[schools]\n0,0\n1,1\n")
        assert load_market(tmp_path / "m.txt") == m

    def test_sample_round_trip(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(SAMPLE)
        m = load_market(path)
        assert m.capacities == (1, 1)
        assert lists_of(m) == (((0, 1), (0, 1)), ((1, 0), (0, 1)))

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
        assert lists_of(m)[1] == ((),)

    def test_byte_order_mark_tolerated(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes("﻿".encode("utf-8") + SAMPLE.encode("utf-8"))
        assert lists_of(load_market(path))[0] == ((0, 1), (0, 1))

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
        assert lists_of(m) == (((0,), (1, 0)), ((1, 0), ()))

    def test_load_save_identity(self, tmp_path):
        rng = np.random.default_rng(5)
        for i in range(20):
            n = int(rng.integers(1, 8))
            m = generate_uniform_market(n, int(rng.integers(0, 2**32)))
            # randomly truncate some lists to cover the partial case
            prefs = tuple(p[: int(rng.integers(0, len(p))) + 1] for p in lists_of(m)[0])
            m = Market(capacities=m.capacities, prefs=prefs, priorities=m.priority_array)
            path = tmp_path / f"m{i}.txt"
            save_market(m, path)
            assert load_market(path) == m

    @pytest.mark.parametrize("fields, message", [
        pytest.param(dict(capacities=(1, 1), student_ids=(7, 3)),
                     "student_ids must be strictly increasing", id="unsorted_ids"),
        pytest.param(dict(capacities=(-1, 2)),
                     "school 0: negative capacity -1", id="negative_capacity"),
    ])
    def test_save_refuses_invalid_market(self, tmp_path, fields, message):
        # such a file would load back reordered, or not load at all
        m = Market(prefs=((0, 1), (1, 0)), priorities=((0, 1), (1, 0)), **fields)
        assert validate_market(m) == [message]
        path = tmp_path / "m.txt"
        with pytest.raises(ValueError, match=rf"^cannot save an invalid market: {message}$"):
            save_market(m, path)
        assert not path.exists()

    @pytest.mark.parametrize("ragged", [False, True])
    def test_load_save_identity_at_scale(self, tmp_path, ragged):
        # 600 students ranking 8 of 150 four-seat schools, every school
        # ranking every student; the ragged variant cuts each list short
        rng = np.random.default_rng(600 + ragged)
        prefs = list(np.argsort(rng.random((600, 150)), axis=1)[:, :8])
        prios = list(rng.permuted(np.tile(np.arange(600), (150, 1)), axis=1))
        if ragged:
            prefs = [p[: rng.integers(0, 9)] for p in prefs]
            prios = [p[: rng.integers(0, 601)] for p in prios]
        m = Market(capacities=[4] * 150, prefs=prefs, priorities=prios,
                   student_ids=range(10, 1810, 3), school_ids=range(1000, 2050, 7))
        path = tmp_path / "m.txt"
        save_market(m, path)
        loaded = load_market(path)
        assert loaded == m
        for lists in (loaded.pref_array, loaded.priority_array):
            assert lists.dtype == np.int16 and not lists.flags.writeable

    @pytest.mark.parametrize("row, prefs", [
        ("0,0; ;1", (0, 1)),
        ("0,0;1;", (0, 1)),
        ("0,", ()),
        ("0,+1;0", (1, 0)),
        ("0, 1 ;\t0", (1, 0)),
        ("0,\u0660;1", (0, 1)),
        ("0,00;1", (0, 1)),
    ])
    def test_list_token_syntax(self, tmp_path, row, prefs):
        path = tmp_path / "m.txt"
        path.write_text(f"[schools]\n0,1\n1,1\n[students]\n{row}\n", encoding="utf-8")
        assert load_market(path) == Market((1, 1), [prefs], [(), ()])

    @pytest.mark.parametrize("text, message", [
        ("[students]\n0,0;- 1\n",
         "line 5: invalid literal for int() with base 10: '- 1'"),
        ("[students]\n0,1_0\n", "student 0: unknown school id 10"),
        ("[students]\n0,99999999999999999999\n",
         "student 0: unknown school id 99999999999999999999"),
        ("[students]\n0,0;-1\n", "student 0: unknown school id -1"),
        ("[students]\n0,0;x\n1,0\n1,1\n",
         "line 5: invalid literal for int() with base 10: 'x'"),
        ("[students]\n0,0\n0,1\n1,0;x\n", "line 6: duplicate student row 0"),
        ("[students]\n5,8;0\n2,0;9;7\n", "student 2: unknown school id 9"),
        ("[priorities]\n0,9\n[students]\n0,0;7\n", "student 0: unknown school id 7"),
        ("[students]\n0,0\n[priorities]\n1,0\n0,0;3\n", "school 0: unknown student id 3"),
        ("[students]\n0,0;0\n",
         "invalid market: student 0: duplicate school 0 in preference list"),
    ])
    def test_first_error_in_file_order(self, tmp_path, text, message):
        path = tmp_path / "m.txt"
        path.write_text("[schools]\n0,1\n1,1\n" + text, encoding="utf-8")
        with pytest.raises(MarketFormatError) as excinfo:
            load_market(path)
        assert str(excinfo.value) == message

    def test_load_matches_loop_loader(self, tmp_path):
        # market files with a scattering of odd tokens, ids and lines:
        # the same market, or the same message, as the token-by-token loop
        rng = np.random.default_rng(41)
        odd = ["", " ", " 2", "+1", "-1", "01", "1_0", "\u0661", "x", "- 1", "1.0",
               "99999999999999999999", "1000000000000000000", "999999999999999999"]

        def ids(count):
            if rng.random() < 0.2:
                spread = [-3, 0, 1, 2, 5, 10**12, 10**18, 99999999999999999999]
                return rng.choice(spread, size=count).tolist()
            return list(range(count))

        def row(owner, items):
            picks = rng.permutation(items)[: rng.integers(0, len(items) + 1)].tolist()
            if rng.random() < 0.3:
                picks = [rng.choice(odd) if rng.random() < 0.3 else x for x in picks]
            text = ";".join(map(str, picks))
            return f"{owner},{text}" + (";" if rng.random() < 0.05 else "")

        outcomes = set()
        for i in range(300):
            sids, tids = ids(int(rng.integers(0, 5))), ids(int(rng.integers(0, 6)))
            lines = ["[schools]", *(f"{s},{rng.choice([1, 1, 2, 0])}" for s in sids),
                     "[students]", *(row(t, sids) for t in tids),
                     "[priorities]", *(row(s, tids) for s in sids if rng.random() < 0.8)]
            if rng.random() < 0.1:
                lines.insert(int(rng.integers(0, len(lines) + 1)),
                             str(rng.choice(["junk", "3", "a,1", lines[-1]])))
            path = tmp_path / f"m{i}.txt"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                expected = load_market_by_loops(path)
            except MarketFormatError as exc:
                with pytest.raises(MarketFormatError) as excinfo:
                    load_market(path)
                assert str(excinfo.value) == str(exc)
                outcomes.add(str(exc).split(" ", 1)[0])
            else:
                assert load_market(path) == expected
                outcomes.add("loaded")
        assert {"loaded", "line", "student", "school", "invalid"} <= outcomes

    def test_load_matches_loop_loader_across_blocks(self, tmp_path):
        # files of several parse blocks, rows out of id order, with a few
        # defects each in rows late in the file, which sort before rows
        # of earlier blocks: the same market, or the same message, as the
        # token-by-token loop
        rng = np.random.default_rng(47)
        tids, sids = list(range(10, 3010, 3)), list(range(1000, 1140, 7))
        huge = 10**20 + 1
        kinds = ["bad", "unknown", "huge", "empty", "duplicate", "break", "orphan",
                 "huge student", "junk", "no students", "no schools"]

        def write(path, students, schools, junk=None, school_rows=True):
            lines = ["[schools]", *(f"{s},100" for s in sids if school_rows),
                     "[students]", *(f"{r[0]}," + ";".join(r[1:]) for r in students),
                     "[priorities]", *(f"{r[0]}," + ";".join(r[1:]) for r in schools)]
            if junk is not None:
                lines.insert(junk, "junk")
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return lines

        def outcome(path):
            try:
                expected = load_market_by_loops(path)
            except MarketFormatError as exc:
                with pytest.raises(MarketFormatError) as excinfo:
                    load_market(path)
                assert str(excinfo.value) == str(exc)
                return str(exc)
            assert load_market(path) == expected
            return "loaded"

        def draw():
            students = [[str(t), *map(str, rng.choice(sids, 12, replace=False).tolist())]
                        for t in tids]
            schools = [[str(s), *map(str, rng.permutation(tids).tolist())] for s in sids]
            rng.shuffle(students)
            rng.shuffle(schools)
            return students, schools

        outcomes = set()
        for i in range(30):
            students, schools = draw()
            junk, school_rows = None, True
            for kind in rng.choice(kinds, size=int(rng.integers(0, 4))).tolist():
                rows = students if rng.random() < 0.5 else schools
                row = rows[int(rng.integers(len(rows) // 2, len(rows)))] if rows else ["0"]
                j = int(rng.integers(1, len(row))) if len(row) > 1 else None
                if kind == "bad" and j:
                    row[j] = str(rng.choice(["x", "- 1", "1.0"]))
                elif kind == "unknown" and j:
                    row[j] = "7"
                elif kind == "huge" and j:
                    row[j] = "-99999999999999999999"
                elif kind == "empty":
                    del row[1:]
                elif kind == "duplicate" and j:
                    row.append(row[j])
                elif kind == "break" and j:
                    row[j] += str(rng.choice(["\f", "\v", "\x1c", "\x85", "\u2028"])) + row[j]
                elif kind == "orphan":
                    schools.insert(int(rng.integers(0, len(schools) + 1)), ["5", str(tids[0])])
                elif kind == "huge student":
                    students.append([str(huge), str(sids[0])])
                    for row in schools[-3:]:
                        row.append(str(huge))
                elif kind == "junk":
                    junk = int(rng.integers(1, 2 * len(tids)))
                elif kind == "no students":
                    students.clear()
                elif kind == "no schools":
                    school_rows = False
            write(tmp_path / f"m{i}.txt", students, schools, junk, school_rows)
            if students:
                assert (tmp_path / f"m{i}.txt").stat().st_size > 3 * _BLOCK_CHARS
            outcomes.add(outcome(tmp_path / f"m{i}.txt").split(" ", 1)[0])
        assert outcomes == {"loaded", "line", "student", "school", "invalid", "priorities", "no"}

        # the bad token on the lowest line wins, though its row sorts last;
        # then the unknown id of the student that sorts first, though its
        # row comes last in the file; a form feed splits a row in two
        students, schools = draw()
        students.sort(key=lambda r: -int(r[0]))
        students[0][3], students[-1][3] = "x", "y"
        lines = write(tmp_path / "bad.txt", students, schools)
        assert outcome(tmp_path / "bad.txt") == (
            f"line {lines.index('[students]') + 2}: invalid literal for int() with base 10: 'x'")
        students[0][3], students[-1][3], students[1][5] = "7", "8", "9"
        write(tmp_path / "unknown.txt", students, schools)
        assert outcome(tmp_path / "unknown.txt") == f"student {tids[0]}: unknown school id 8"
        students[0][3], students[-1][3], students[1][5] = map(str, sids[:3])
        students[-1][2] += "\f" + students[-1][2]
        lines = write(tmp_path / "form_feed.txt", students, schools)
        assert outcome(tmp_path / "form_feed.txt") == (
            f"line {len(lines) - len(schools)}: expected 'id,...', got "
            f"{';'.join([students[-1][2].split(chr(12))[1], *students[-1][3:]])!r}")

    def test_ids_beyond_int64_load(self, tmp_path):
        big = 99999999999999999999
        path = tmp_path / "m.txt"
        path.write_text(f"[schools]\n0,1\n{big},1\n[students]\n-{big},{big};0\n"
                        f"[priorities]\n{big},-{big}\n")
        m = load_market(path)
        assert m == Market((1, 1), [(1, 0)], [(), (0,)], student_ids=[-big], school_ids=[0, big])
        save_market(m, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_text() == (f"[schools]\n0,1\n{big},1\n[students]\n"
                                                        f"-{big},{big};0\n[priorities]\n0,\n"
                                                        f"{big},-{big}\n")

    def test_load_peak_is_a_small_multiple_of_the_file(self, tmp_path):
        # the loader drops each whole-file copy once it is read and parses
        # the lists in blocks: its traced peak stays under 4 times the
        # file's size (a whole-file parse peaked at about 10 times)
        path = tmp_path / "city.txt"
        write_city_market(path, 3000, 30, 100, 12, 5)
        assert peak_of(load_market, path) < 4 * path.stat().st_size

    def test_save_leaves_the_market_as_it_found_it(self, tmp_path):
        # save_market writes from the stored arrays: it caches nothing on
        # the market but the list screens its validation reads
        m = generate_uniform_market(50, 3)
        stored = set(vars(m))
        save_market(m, tmp_path / "m.txt")
        assert set(vars(m)) == stored | {"_pref_screen", "_priority_screen"}
        assert load_market(tmp_path / "m.txt") == m

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"[schools]\r\n0,1\r\n[students]\r\n0,0;\xff\r\n")
        with pytest.raises(MarketFormatError, match=r"^line 4: not UTF-8 text"):
            load_market(path)

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("### Market files", 1)[1].split("```\n")[1]
        path = tmp_path / "m.txt"
        path.write_text(example, encoding="utf-8")
        assert load_market(path) == Market((1, 1), [(0, 1), (0,)], [(1, 0), (0, 1)])


class TestEffectiveRanks:
    def test_positional(self):
        # list s3,s1,s2 -> indices (2, 0, 1); school s1 is index 0
        m = Market(capacities=(1, 1, 1), prefs=((2, 0, 1),) * 3, priorities=((0, 1, 2),) * 3)
        assert m.rank_table[0].tolist() == [2, 3, 1]
        assert effective_ranks(m, Allocation((0, 1, 2))).tolist() == [2, 3, 1]

    def test_unassigned_is_len_plus_one(self):
        m = Market(capacities=(1, 1, 1), prefs=((2, 0, 1),) * 3, priorities=((0, 1, 2),) * 3)
        assert effective_ranks(m, Allocation((UNASSIGNED, 0, 1))).tolist() == [4, 2, 3]

    def test_singleton_list(self):
        m = Market(capacities=(1,) * 5, prefs=((4,),), priorities=((0,),) * 5)
        assert effective_ranks(m, Allocation((4,))).tolist() == [1]
        assert effective_ranks(m, Allocation((UNASSIGNED,))).tolist() == [2]

    def test_unranked_school_flagged(self):
        # student 0 lists only school 0; school 1 gets the sentinel m + 2,
        # above the worst effective rank k + 1, and the allocation is refused
        m = Market(capacities=(1, 1), prefs=((0,), (0, 1)), priorities=((0, 1), (0, 1)))
        assert m.rank_table[0].tolist() == [1, 4]
        assert effective_ranks(m, Allocation((1, 0))).tolist() == [4, 1]
        problems = validate_allocation(m, Allocation((1, 0)))
        assert problems == ["student 0: assigned school 1 they never ranked"]

    def test_partial_list_unassigned(self):
        m = Market(capacities=(1, 1), prefs=((0,), (0, 1)), priorities=((0, 1), (0, 1)))
        ranks = effective_ranks(m, Allocation((UNASSIGNED, 0)))
        assert ranks.tolist() == [2, 1]

    def test_ranks_fill_1_to_k(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            m = generate_uniform_market(n, int(rng.integers(0, 2**32)))
            for t, plist in enumerate(lists_of(m)[0]):
                ranks = sorted(m.rank_table[t, list(plist)].tolist())
                assert ranks == list(range(1, len(plist) + 1))

    @pytest.mark.parametrize("school", [5, 2, -2])
    def test_unknown_school_id_refused(self, school):
        # 5 and 2 lie past the last school; -2 is neither a school nor UNASSIGNED
        m = market_2x2()
        message = f"student 0: unknown school id {school}"
        assert validate_allocation(m, Allocation((school, 0))) == [message]
        for score in (effective_ranks, rank_stats, justified_envy):
            with pytest.raises(ValueError, match=f"^{message}$"):
                score(m, Allocation((school, 0)))

    @pytest.mark.parametrize("size", [1, 3])
    def test_wrong_size_refused(self, size):
        message = f"allocation covers {size} students, market has 2"
        assert validate_allocation(market_2x2(), Allocation((0,) * size)) == [message]
        with pytest.raises(ValueError, match=f"^{message}$"):
            effective_ranks(market_2x2(), Allocation((0,) * size))

    def test_matches_definition(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            m = generate_uniform_market(n, int(rng.integers(0, 2**32)))
            alloc = Allocation(tuple(int(s) for s in rng.permutation(n)))
            assert effective_ranks(m, alloc).tolist() == ranks_by_definition(m, alloc)


class TestArrayStorage:
    def random_markets(self, seed, count=100, **sizes):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            yield random_market_lists(rng, **sizes)

    def test_stored_lists_equal_nested_input(self):
        for caps, prefs, prios in self.random_markets(31):
            m = Market(capacities=caps, prefs=prefs, priorities=prios)
            assert lists_of(m) == (tuple(map(tuple, prefs)), tuple(map(tuple, prios)))
            assert m.capacities == tuple(caps)
            assert m.list_lengths.tolist() == [len(p) for p in prefs]
            assert m.priority_lengths.tolist() == [len(p) for p in prios]
            assert m.pref_array.dtype == m.priority_array.dtype == np.int16
            assert m.list_lengths.dtype == m.priority_lengths.dtype == np.int64

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
            assert lists_of(from_arrays) == lists_of(nested)
        assert Market(capacities=(1, 1), prefs=((0, 1),), priorities=((0,), (0,))) != Market(
            capacities=(1, 1), prefs=((1, 0),), priorities=((0,), (0,))
        )

    def test_equality_matches_lists(self):
        # (market, its fields as tuples built from the inputs, not from the market)
        cases = []
        for caps, prefs, prios in self.random_markets(35, count=40, max_students=4,
                                                      max_schools=3):
            as_tuples = [tuple(caps), tuple(map(tuple, prefs)), tuple(map(tuple, prios)),
                         tuple(range(len(prefs))), tuple(range(len(caps)))]
            m = Market(capacities=caps, prefs=prefs, priorities=prios)
            cases.append((m, as_tuples))
            # the same lists stored as int32, padded two columns wider
            wider = {name: np.pad(getattr(m, name).astype(np.int32), ((0, 0), (0, 2)),
                                  constant_values=-1) for name in ("pref_array", "priority_array")}
            cases.append((m._replace(**wider), as_tuples))
            # one list a school shorter, one more seat, other school ids
            if prefs[0]:
                short = [prefs[0][:-1], *prefs[1:]]
                cases.append((Market(caps, short, prios),
                              [as_tuples[0], tuple(map(tuple, short)), *as_tuples[2:]]))
            cases.append((Market([caps[0] + 1, *caps[1:]], prefs, prios),
                          [(caps[0] + 1, *caps[1:]), *as_tuples[1:]]))
            school_ids = range(5, 5 + len(caps))
            cases.append((Market(caps, prefs, prios, school_ids=school_ids),
                          [*as_tuples[:4], tuple(school_ids)]))
        empty = [(), (), (), (), ()]
        cases += [(Market((), np.empty((0, 3), dtype=np.int64), ()), empty),
                  (Market((), (), ()), empty)]
        equal_pairs = 0
        for a, a_tuples in cases:
            for b, b_tuples in cases:
                assert (a == b) == (a_tuples == b_tuples)
                if a == b:
                    equal_pairs += a is not b
                    assert hash(a) == hash(b)
        assert equal_pairs > 2 * 40 + 2  # each wider copy and the empty pair, both ways

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

    def test_pickle_carries_the_stored_arrays(self):
        # a pickle or deep copy ships the stored arrays as they are, not
        # lists rebuilt from them: the payload is the arrays' bytes plus a
        # few kilobytes of capacities, ids and framing
        m = generate_uniform_market(300, 3)
        names = ("pref_array", "list_lengths", "priority_array", "priority_lengths")
        stored = sum(getattr(m, name).nbytes for name in names)
        assert len(pickle.dumps(m)) <= stored + 8 * 1024
        for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert copied == m
            assert copied.pref_array.dtype == copied.priority_array.dtype == np.int16
            for name in names:
                assert getattr(copied, name).dtype == getattr(m, name).dtype
                assert not getattr(copied, name).flags.writeable, name

    def test_read_only_int32_array_stored_without_copy(self):
        # a read-only array already in the type its entries need is
        # adopted: int32 for an entry past int16, as the unknown id 40000
        rng = np.random.default_rng(40)
        read_only = np.array([rng.permutation(3) for _ in range(4)], dtype=np.int16)
        read_only.setflags(write=False)
        writable = np.array([rng.permutation(4) for _ in range(3)], dtype=np.int16)
        m = Market(capacities=(2, 1, 1), prefs=read_only, priorities=writable)
        assert np.shares_memory(m.pref_array, read_only)
        assert not np.shares_memory(m.priority_array, writable)
        kept = m.priority_array.copy()
        writable[0] = writable[0][::-1]
        assert np.array_equal(m.priority_array, kept)
        past_int16 = np.array([[0, 1, 40000]], dtype=np.int32)
        past_int16.setflags(write=False)
        m = Market(capacities=(1, 1, 1), prefs=past_int16, priorities=())
        assert np.shares_memory(m.pref_array, past_int16)
        # a read-only array of another dtype, int32 and int64 included,
        # is converted to the narrowest type, so copied
        for wide in (read_only.astype(np.int32), read_only.astype(np.int64)):
            wide.setflags(write=False)
            m = Market(capacities=(2, 1, 1), prefs=wide, priorities=kept)
            assert not np.shares_memory(m.pref_array, wide)
            assert m.pref_array.dtype == np.int16 and np.array_equal(m.pref_array, wide)
        # so is a read-only view of an array the caller can still write
        view = writable[:]
        view.setflags(write=False)
        m = Market(capacities=(2, 1, 1), prefs=read_only, priorities=view)
        assert not np.shares_memory(m.priority_array, writable)
        # a generated market stores both halves of its one draw
        generated = generate_uniform_market(5, 1)
        assert generated.pref_array.base is generated.priority_array.base is not None

    def test_int_type_boundary(self):
        # int16 holds -2**15..2**15 - 1, so the draw's and the tables'
        # int32 branch starts at a largest value of 2**15
        assert _int_type(0) is _int_type(2**15 - 1) is np.int16
        assert _int_type(2**15) is _int_type(2**31 - 1) is np.int32
        # a list is narrowed by its entries, negative ones included
        for entries, dtype in (([], np.int16), ([-2**15, 2**15 - 1], np.int16),
                               ([-2**15 - 1], np.int32), ([2**15], np.int32)):
            assert _list_type(np.array(entries, dtype=np.int32)) is dtype
            m = Market((1,), [entries], [()])
            assert m.pref_array.dtype == dtype and lists_of(m)[0] == (tuple(entries),)

    @pytest.mark.parametrize("m_schools, dtype", [(2**15 - 3, np.int16), (2**15 - 2, np.int32)])
    def test_rank_table_sentinel_reads_back(self, m_schools, dtype):
        # one student ranking school 0 of m: the sentinel m + 2 is the
        # table's largest value, and 32 768 does not fit int16
        m = Market(capacities=(1,) * m_schools, prefs=[[0]], priorities=[(0,)] * m_schools)
        assert m.rank_table.dtype == dtype and m.priority_table.dtype == np.int16
        assert m.rank_table[0, 0] == 1 and (m.rank_table[0, 1:] == m_schools + 2).all()
        assert not validate_market(m)

    def test_padding_screened_past_the_unsigned_range(self):
        # int16 lists among 2**16 + 1 schools: the -1 padding, read as
        # the unsigned 65 535, is still a school index, and must spill
        width = 2**16 + 1
        prefs = [[0, 1], [5], []]
        m = Market(capacities=(1,) * width, prefs=prefs, priorities=[()] * width)
        assert m.pref_array.dtype == np.int16 and m.rank_table.dtype == np.int32
        assert np.array_equal(m.rank_table, position_table_by_definition(prefs, width))
        m = Market(capacities=(1,) * width, prefs=[[0, -2], [5]], priorities=[()] * width)
        assert validate_market(m) == ["student 0: unknown school id -2"]

    def test_id_past_int16_is_stored_and_reported(self):
        # construction stores the id exactly; the screen reports it
        m = Market(capacities=(1, 1, 1), prefs=[[0, 40000], [1]], priorities=[(0, 1)] * 3)
        assert m.pref_array.dtype == np.int32 and lists_of(m)[0] == ((0, 40000), (1,))
        assert validate_market(m) == ["student 0: unknown school id 40000"]
        with pytest.raises(ValueError, match="^student 0: unknown school id 40000$"):
            m.rank_table

    def test_loaded_market_is_int16(self):
        m = load_market(Path(__file__).parent / "data" / "small_market.txt")
        for name in ("pref_array", "priority_array", "rank_table", "priority_table"):
            assert getattr(m, name).dtype == np.int16, name

    def test_nested_entries_must_be_exact_ids(self):
        # a fraction is refused, not truncated into a valid id
        with pytest.raises(ValueError, match="student 0: school id 0.7 does not convert exactly"):
            Market((1, 1), [[0.7, 1.2], [1.9, 0.1]], [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="school 1: student id 4294967297 does not"):
            Market((1, 1), [[0, 1], [1, 0]], [[0, 1], [1, 2**32 + 1]])
        # a whole float converts exactly and is kept
        m = Market((1, 1), [[0.0, 1.0], [1, 0]], [[0, 1], [1, 0]])
        assert lists_of(m)[0] == ((0, 1), (1, 0)) and not validate_market(m)

    def test_array_entries_must_be_exact_ids(self):
        # int64 2**32 + 1 would wrap to the valid id 1 in int32
        prefs = np.array([[0, 1], [2**32 + 1, 0]])
        with pytest.raises(ValueError, match="student 1: school id 4294967297 does not"):
            Market((1, 1), prefs, [[0, 1], [1, 0]])
        prios = np.array([[0.0, 1.0], [1.0, np.nan]])
        with pytest.raises(ValueError, match="school 1: student id nan does not"):
            Market((1, 1), [[0, 1], [1, 0]], prios)

    @pytest.mark.parametrize("fields, message", [
        (dict(capacities=(1.7, 0.9)), "school 0: capacity 1.7 does not convert exactly to int"),
        (dict(capacities=(1, float("nan"))), "school 1: capacity nan does not convert exactly"),
        (dict(capacities=(1, 1), student_ids=(3.9,)), "student 0: id 3.9 does not convert"),
        (dict(capacities=(1, 1), school_ids=(2, float("inf"))), "school 1: id inf does not"),
    ], ids=["fractional_capacity", "nan_capacity", "fractional_id", "inf_id"])
    def test_capacities_and_ids_must_be_exact(self, fields, message):
        # a fraction is refused, not truncated into a valid count or id
        with pytest.raises(ValueError, match=message):
            Market(prefs=((0, 1),), priorities=((0,), (0,)), **fields)
        m = Market(capacities=(1.0, np.int64(2)), prefs=((0, 1),), priorities=((0,), (0,)),
                   student_ids=(np.int32(3),), school_ids=(2**70, 2.0**71))
        assert m.capacities == (1, 2) and m.student_ids == (3,)
        assert m.school_ids == (2**70, 2**71) and not validate_market(m)

    def test_ids_may_be_arrays(self):
        # an id array is read like any sequence; an empty one means the default ids
        m = Market((1, 2), ((0, 1), (1,)), ((0, 1), (1, 0)),
                   student_ids=np.array([3, 5]), school_ids=np.array([10.0, 20.0]))
        assert m.student_ids == (3, 5) and m.school_ids == (10, 20)
        assert all(type(i) is int for i in m.student_ids + m.school_ids)
        assert not validate_market(m)
        m = Market((1, 2), ((0, 1), (1,)), ((0, 1), (1, 0)),
                   student_ids=np.array([], dtype=int), school_ids=np.empty(0))
        assert m.student_ids == (0, 1) and m.school_ids == (0, 1)
        with pytest.raises(ValueError, match="student 1: id 5.5 does not convert exactly"):
            Market((1,), ((0,), (0,)), ((0, 1),), student_ids=np.array([3, 5.5]))

    def test_allocation_entries_must_be_exact_ids(self):
        with pytest.raises(ValueError, match="student 0: school id 0.7 does not convert exactly"):
            Allocation([0.7, 1.2])
        with pytest.raises(ValueError, match="student 1: school id inf does not"):
            Allocation(np.array([1.0, np.inf]))
        assert Allocation([1.0, -1.0]).assignment == (1, UNASSIGNED)

    def test_save_load_round_trip(self, tmp_path):
        for i, (caps, prefs, prios) in enumerate(self.random_markets(35, count=40)):
            m = Market(capacities=caps, prefs=prefs, priorities=prios)
            path = tmp_path / f"m{i}.txt"
            save_market(m, path)
            assert load_market(path) == m

    def test_validate_matches_loops(self):
        rng = np.random.default_rng(36)
        markets = [*self.random_markets(36),
                   *self.random_markets(37, max_students=40, max_schools=15)]
        flawed = 0
        for i, (caps, prefs, prios) in enumerate(markets):
            # plant unknown and repeated ids at random places; in the
            # wider markets a row can take several, so ids repeat more
            # than once and rows hold both kinds
            for lists, bound in ((prefs, len(caps)), (prios, len(prefs))):
                for _ in range(int(rng.integers(0, 4 if i < 100 else 13))):
                    row = lists[int(rng.integers(len(lists)))]
                    bad = int(rng.choice([-1, bound, bound + 5, *row])) if row else -1
                    row.insert(int(rng.integers(len(row) + 1)), bad)
            if rng.random() < 0.2:
                caps[0] = 0
            m = Market(capacities=caps, prefs=prefs, priorities=prios)
            assert validate_market(m) == validate_market_by_loops(m)
            flawed += bool(validate_market(m))
        assert 100 < flawed < 200  # clean markets are screened too
        # full-length 2-D arrays with in-range ids only take the screen's
        # path without a spill column: repeated ids, and lists longer
        # than the ids they draw from
        flawed = 0
        for i in range(60):
            n, m_schools = (int(x) for x in rng.integers(1, 9, size=2))
            prefs = np.array([rng.permutation(m_schools) for _ in range(n)])
            prios = np.array([rng.permutation(n) for _ in range(m_schools)])
            if i % 3 == 1:
                prefs[rng.integers(n), rng.integers(m_schools)] = rng.integers(m_schools)
            elif i % 3 == 2:
                prios = rng.integers(0, n, size=(m_schools, n + 1))
            m = Market(capacities=[1] * m_schools, prefs=prefs, priorities=prios)
            assert validate_market(m) == validate_market_by_loops(m)
            flawed += bool(validate_market(m))
        assert 20 < flawed < 40

    def test_allocation_storage(self):
        rng = np.random.default_rng(38)
        for _ in range(50):
            given = rng.integers(-1, 6, size=int(rng.integers(1, 10)))
            expected = tuple(given.tolist())
            for source in (expected, list(expected), given, given.astype(np.int32)):
                original = Allocation(source)
                # the allocation keeps its own copy of the caller's array
                given[0] += 1
                assert original.assignment == expected
                given[0] -= 1
                for alloc in (original, pickle.loads(pickle.dumps(original)),
                              copy.deepcopy(original)):
                    arr = alloc.assignment_array
                    assert arr.dtype == np.int64 and arr.tolist() == list(expected)
                    with pytest.raises(ValueError, match="read-only"):
                        arr[0] = 1
                    with pytest.raises(AttributeError):
                        alloc.assignment_array = arr.copy()
                    assert alloc.assignment == expected
                    assert all(type(s) is int for s in alloc.assignment)
                    assert alloc == Allocation(expected) and hash(alloc) == hash(expected)
                    assert alloc.n_students == len(expected)
            assert Allocation(expected) != Allocation((*expected, UNASSIGNED))
            assert Allocation(expected) != expected

    def test_validate_allocation_matches_loop(self):
        rng = np.random.default_rng(39)
        kinds = dict.fromkeys(
            ("unknown school id", "never ranked", "students assigned", "allocation covers"), 0
        )
        for caps, prefs, prios in self.random_markets(39, count=300):
            m = Market(capacities=caps, prefs=prefs, priorities=prios)
            # listed schools, crowded onto few seats, with planted unknown
            # ids, unranked schools and unassigned students between them
            assignment = [
                int(rng.choice(p)) if p and rng.random() < 0.7
                else int(rng.integers(-3, len(caps) + 3))
                for p in prefs
            ]
            for alloc in (Allocation(assignment), Allocation(assignment[1:])):
                problems = validate_allocation(m, alloc)
                assert problems == validate_allocation_by_loops(m, alloc)
                for kind in kinds:
                    kinds[kind] += any(kind in p for p in problems)
        assert all(count > 10 for count in kinds.values()), kinds
