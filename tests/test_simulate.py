import math

import numpy as np
import pytest

from schoolmatch import simulate
from schoolmatch.market import Allocation, Market, save_market, validate_allocation
from schoolmatch.assignment import min_cost_assignment
from schoolmatch.mechanisms import _shuffled_rank_costs, rank_minimizing
from schoolmatch.metrics import rank_stats
from schoolmatch.simulate import (
    CSV_HEADER,
    MANIPULATION_KINDS,
    ExperimentConfig,
    ExperimentError,
    Manipulation,
    _DRAW_ROWS,
    apply_manipulation,
    derive_seed,
    generate_uniform_market,
    run_experiment,
)

from oracles import lists_of, manipulated_prefs_by_tuples, peak_of, random_market_lists
from test_solver_vs_scipy import partial_market


class TestDeriveSeed:
    def test_splitmix64_known_outputs(self):
        # reference outputs of the splitmix64 stream seeded with 0
        assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
        assert derive_seed(0, 1) == 0x6E789E6AA1B965F4
        assert derive_seed(0, 2) == 0x06C45D188009454F

    def test_nested_indices_differ(self):
        seeds = {derive_seed(42, r, tag) for r in range(50) for tag in range(4)}
        assert len(seeds) == 200

    def test_stays_in_64_bits(self):
        for r in range(100):
            assert 0 <= derive_seed(2**64 - 1, r) < 2**64
        # the largest seed is accepted, and a bare seed comes back as it is
        assert derive_seed(2**64 - 1) == 2**64 - 1
        assert ExperimentConfig(n=5, replications=1, master_seed=2**64 - 1).master_seed == 2**64 - 1

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_refuses_seed_outside_64_bits(self, seed):
        # 2**64 + 5 would alias seed 5
        message = rf"seed must lie in \[0, 2\*\*64\), got {seed}$"
        for indices in ((), (0,), (3, 1)):
            with pytest.raises(ValueError, match=message):
                derive_seed(seed, *indices)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(n=5, replications=1, master_seed=seed)


class TestGenerateUniformMarket:
    def test_one_by_one(self):
        m = generate_uniform_market(1, 0)
        assert m.capacities == (1,)
        assert lists_of(m) == (((0,),), ((0,),))

    def test_deterministic(self):
        assert generate_uniform_market(8, 99) == generate_uniform_market(8, 99)
        assert generate_uniform_market(8, 99) != generate_uniform_market(8, 100)

    def test_lists_are_permutations(self):
        m = generate_uniform_market(12, 5)
        prefs, priorities = lists_of(m)
        for p in prefs + priorities:
            assert sorted(p) == list(range(12))

    def test_first_position_uniform(self):
        # each school should open a student's list with frequency 1/n
        n, draws = 5, 100_000
        counts = np.zeros(n)
        for d in range(draws):
            m = generate_uniform_market(n, derive_seed(7, d))
            counts[m.pref_array[0, 0]] += 1
        freq = counts / draws
        se = (0.2 * 0.8 / draws) ** 0.5
        assert np.all(np.abs(freq - 0.2) <= 3 * se)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            generate_uniform_market(0, 1)

    @pytest.mark.parametrize("n", [3.5, "3", None, math.nan, math.inf])
    def test_non_integral_n_refused(self, n):
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            generate_uniform_market(n, 1)

    def test_integral_n_draws_the_int_market(self):
        # the rule ExperimentConfig applies to its n
        expected = generate_uniform_market(3, 1)
        for n in (3.0, np.int64(3), np.float64(3)):
            m = generate_uniform_market(n, 1)
            assert m == expected and m.n_students == 3
            assert np.array_equal(m.pref_array, expected.pref_array)
            assert m.pref_array.dtype == expected.pref_array.dtype

    # 2n below, on and just past the draw's block of rows, then many blocks
    @pytest.mark.parametrize("n", [1, 2, 7, _DRAW_ROWS // 2 - 1, _DRAW_ROWS // 2,
                                   _DRAW_ROWS // 2 + 1, 200])
    def test_same_draws_as_two_shuffles(self, n):
        # shuffling preferences and then priorities as two (n, n) tiles
        for seed in (0, 3, 2**64 - 1):
            rng = np.random.default_rng(seed)
            base = np.tile(np.arange(n), (n, 1))
            prefs, priorities = rng.permuted(base, axis=1), rng.permuted(base, axis=1)
            m = generate_uniform_market(n, seed)
            assert m.pref_array.dtype == m.priority_array.dtype == np.int16
            assert np.array_equal(m.pref_array, prefs)
            assert np.array_equal(m.priority_array, priorities)


class TestApplyManipulation:
    def market(self):
        return Market(
            capacities=(1, 1, 1),
            prefs=((0, 1, 2), (0, 1, 2), (0, 1, 2)),
            priorities=((0, 1, 2),) * 3,
        )

    def test_share_zero_returns_market_unchanged(self):
        m = self.market()
        baseline = rank_minimizing(m, 3)
        assert apply_manipulation(m, baseline, "drop_assigned", 0.0, 1) is m

    def test_drop_assigned_moves_assigned_school_to_end(self):
        # student assigned their middle choice b: [a,b,c] -> [a,c,b]
        m = self.market()
        baseline = Allocation((1, 0, 2))
        out = apply_manipulation(m, baseline, "drop_assigned", 1.0, 0)
        assert lists_of(out)[0][0] == (0, 2, 1)

    def test_drop_first_rotates_top_choice_to_end(self):
        # student assigned c (rank 3): [a,b,c] -> [b,c,a]
        m = self.market()
        baseline = Allocation((2, 0, 1))
        out = apply_manipulation(m, baseline, "drop_first", 1.0, 0)
        assert lists_of(out)[0][0] == (1, 2, 0)

    def test_share_bounds(self):
        m = self.market()
        baseline = rank_minimizing(m, 3)
        with pytest.raises(ValueError):
            apply_manipulation(m, baseline, "drop_assigned", 1.5, 0)
        with pytest.raises(ValueError):
            apply_manipulation(m, baseline, "nonsense", 0.5, 0)

    @pytest.mark.parametrize("share", ["0.5", None, math.nan, 1.5, -0.1])
    def test_share_that_is_not_a_number_in_range_refused(self, share):
        with pytest.raises(ValueError, match=r"^share must lie in \[0, 1\], got "):
            Manipulation("drop_first", share)

    def test_eligibility_rules(self):
        m = self.market()
        # ranks realized: student 0 -> 1, student 1 -> 2, student 2 -> 3
        baseline = Allocation((0, 1, 2))
        prefs, _ = lists_of(apply_manipulation(m, baseline, "drop_assigned", 1.0, 0))
        assert prefs[0] == (0, 1, 2)  # first-choice student untouched
        assert prefs[1] == (0, 2, 1)
        assert prefs[2] == (0, 1, 2)[:2] + (2,)  # assigned last stays last
        prefs, _ = lists_of(apply_manipulation(m, baseline, "drop_first", 1.0, 0))
        assert prefs[0] == (0, 1, 2)  # rank 1: not eligible
        assert prefs[1] == (0, 1, 2)  # rank 2: not eligible
        assert prefs[2] == (1, 2, 0)

    def test_unassigned_eligible_but_unchanged_for_drop_assigned(self):
        m = Market(capacities=(1,), prefs=((0,), (0,)), priorities=((0, 1),))
        baseline = Allocation((0, -1))
        out = apply_manipulation(m, baseline, "drop_assigned", 1.0, 0)
        assert lists_of(out) == lists_of(m)

    def test_matches_tuple_version(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            caps, prefs, prios = random_market_lists(rng)
            m = Market(capacities=caps, prefs=prefs, priorities=prios)
            baseline = rank_minimizing(m, int(rng.integers(2**32)))
            for kind in MANIPULATION_KINDS:
                for share in (0.3, 0.5, 1.0):
                    seed = int(rng.integers(2**32))
                    out = apply_manipulation(m, baseline, kind, share, seed)
                    prefs, priorities = lists_of(out)
                    assert prefs == manipulated_prefs_by_tuples(m, baseline, kind, share, seed)
                    assert priorities == lists_of(m)[1]
                    assert out.capacities == m.capacities

    def test_subset_size_rounds(self):
        m = generate_uniform_market(10, 3)
        baseline = rank_minimizing(m, 3)
        prefs, _ = lists_of(m)
        eligible = [t for t, s in enumerate(baseline.assignment) if prefs[t].index(s) > 0]
        out = apply_manipulation(m, baseline, "drop_assigned", 0.5, 9)
        changed = sum(a != b for a, b in zip(lists_of(out)[0], prefs))
        assert changed == int(np.floor(0.5 * len(eligible) + 0.5))

    def test_deterministic_in_seed(self):
        m = generate_uniform_market(20, 4)
        baseline = rank_minimizing(m, 5)
        a = apply_manipulation(m, baseline, "drop_first", 0.4, 11)
        b = apply_manipulation(m, baseline, "drop_first", 0.4, 11)
        assert a == b


class TestRunExperiment:
    @pytest.mark.parametrize("thresholds", [(1.0,), ()], ids=["one_cutoff", "no_cutoffs"])
    def test_report_structure(self, thresholds):
        config = ExperimentConfig(
            n=10, replications=15, master_seed=1, mechanisms=("RM", "DA"), thresholds=thresholds
        )
        report = run_experiment(config)
        assert set(report.summaries) == {"RM", "DA"}
        for s in report.summaries.values():
            assert s.se_mean >= 0.0
            assert isinstance(s.threshold_share, tuple)
            assert len(s.threshold_share) == len(thresholds)
            for values in (s.per_rep_mean, s.per_rep_max, s.per_rep_variance,
                           s.per_rep_envy_share, s.per_rep_unassigned):
                assert values.dtype == np.float64
                assert values.flags.c_contiguous
                assert values.shape == (15,)

    def test_csv_shape_and_header(self):
        config = ExperimentConfig(
            n=6, replications=3, master_seed=5, mechanisms=("RM",), thresholds=(1.0, 2.0)
        )
        text = run_experiment(config).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2  # one row per threshold
        assert lines[1].startswith("RM,6,3,")

    @pytest.mark.parametrize("n, later", [(2, (0.2, 0.5)), (4, (0.4,)), (8, (0.8, 4.0)),
                                          (10, (2.5, 5.0)), (20, (5.0, 10.0)),
                                          (12, (1.2, 3.0, 6.0))])
    def test_default_cutoffs_once_each(self, n, later):
        # an n/10, n/4 or n/2 cutoff equal to an earlier one is dropped,
        # and so is its CSV row; the order is kept
        config = ExperimentConfig(n=n, replications=2, master_seed=1, mechanisms=("DA",),
                                  thresholds=None)
        report = run_experiment(config)
        assert report.config.thresholds == pytest.approx((1.0, 2.0, math.log(n), *later))
        rows = report.to_csv().strip().split("\n")[1:]
        assert [row.split(",")[10] for row in rows] == [format(c, ".10g")
                                                        for c in report.config.thresholds]

    def test_reproducible_csv(self):
        config = ExperimentConfig(n=12, replications=10, master_seed=123)
        assert run_experiment(config).to_csv() == run_experiment(config).to_csv()

    def test_manipulation_share_zero_identical_to_truthful(self):
        config = ExperimentConfig(
            n=12,
            replications=10,
            master_seed=3,
            mechanisms=("RM",),
            manipulation=Manipulation("drop_assigned", 0.0),
        )
        report = run_experiment(config)
        truthful = report.summaries["RM"]
        manipulated = report.summaries["RM[drop_assigned=0]"]
        assert np.array_equal(truthful.per_rep_mean, manipulated.per_rep_mean)
        assert np.array_equal(truthful.per_rep_max, manipulated.per_rep_max)

    def test_manipulated_stats_use_true_preferences(self):
        config = ExperimentConfig(
            n=10,
            replications=5,
            master_seed=8,
            mechanisms=(),
            manipulation=Manipulation("drop_first", 0.8),
        )
        report = run_experiment(config)
        (summary,) = report.summaries.values()
        # true-preference accounting keeps the mean near the truthful one,
        # and certainly within the feasible rank range
        assert 1.0 <= summary.mean <= 10.0

    def test_fixed_market_file(self, tmp_path):
        m = generate_uniform_market(6, 44)
        path = tmp_path / "fixed.txt"
        save_market(m, path)
        config = ExperimentConfig(
            n=999,  # ignored for sizing when a file is given
            replications=4,
            master_seed=0,
            mechanisms=("DA",),
            thresholds=None,  # the default cutoffs, for the file's n
            market_path=str(path),
        )
        report = run_experiment(config)
        assert report.config.n == 6
        # the report's config records the cutoffs used: those of 6 students
        assert report.config.thresholds == pytest.approx((1, 2, math.log(6), 0.6, 1.5, 3))
        # DA deterministic: identical stats in every replication
        assert np.ptp(report.summaries["DA"].per_rep_mean) == 0.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=0, replications=1, master_seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, replications=0, master_seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, replications=1, master_seed=0, mechanisms=("XX",))
        # a repeated name would pool two runs under one label
        with pytest.raises(ValueError, match=r"repeated mechanisms \['DA'\]"):
            ExperimentConfig(n=5, replications=1, master_seed=0, mechanisms=("DA", "RM", "DA"))

    @pytest.mark.parametrize("field, value", [
        ("n", 3.5), ("replications", 2.5), ("master_seed", 1.5),
        ("n", "3"), ("replications", None), ("master_seed", math.inf), ("n", math.nan),
    ])
    def test_non_integral_counts_and_seed_refused(self, field, value):
        # each used to fail only once the run started, and not as ValueError
        fields = {"n": 3, "replications": 2, "master_seed": 1} | {field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            ExperimentConfig(**fields)

    def test_integral_counts_and_seed_stored_as_int(self):
        base = ExperimentConfig(n=3, replications=2, master_seed=1, mechanisms=("DA", "RSD"))
        for fields in ({"n": 3.0}, {"replications": np.int64(2)}, {"master_seed": 1.0},
                       {"n": np.float64(3), "replications": 2.0, "master_seed": np.uint64(1)}):
            config = ExperimentConfig(**{"n": 3, "replications": 2, "master_seed": 1} | fields,
                                      mechanisms=("DA", "RSD"))
            assert config == base
            assert {type(v) for v in (config.n, config.replications, config.master_seed)} == {int}
            assert run_experiment(config).to_csv() == run_experiment(base).to_csv()

    def test_nan_threshold_refused_infinite_kept(self):
        # a NaN cutoff would write a row with threshold nan and share 0
        with pytest.raises(ValueError, match="got nan"):
            ExperimentConfig(n=5, replications=1, master_seed=0, thresholds=(1.0, math.nan))
        config = ExperimentConfig(n=5, replications=2, master_seed=0, mechanisms=("DA",),
                                  thresholds=(math.inf, -math.inf))
        assert run_experiment(config).summaries["DA"].threshold_share == (0.0, 1.0)

    def test_replication_index_attached_to_errors(self, tmp_path):
        # a market whose DA run works but whose file disappears mid-way is
        # hard to fake; instead force a failure through an undersized brute
        # config: unknown mechanism slips past frozen config via object.__setattr__
        config = ExperimentConfig(n=4, replications=2, master_seed=0, mechanisms=("DA",))
        object.__setattr__(config, "mechanisms", ("DA", "BAD"))
        with pytest.raises(ExperimentError, match="replication 0"):
            run_experiment(config)
        # a failed draw is named too
        object.__setattr__(config, "n", 0)
        with pytest.raises(ExperimentError, match="replication 0: n must be at least 1"):
            run_experiment(config)

    @pytest.mark.parametrize("from_file", [False, True], ids=["uniform", "file"])
    @pytest.mark.parametrize("manipulation", [None, Manipulation("drop_first", 0.5)],
                             ids=["truthful", "manipulated"])
    def test_errors_name_the_replication_seeds(self, monkeypatch, tmp_path, from_file,
                                               manipulation):
        # replication 2 fails; its message names the seeds that replay it,
        # leaving out the market seed of a file run and an unused manipulation's
        replicate = simulate._replicate

        def failing(config, fixed, r):
            if r == 2:
                raise ValueError("boom")
            return replicate(config, fixed, r)

        monkeypatch.setattr(simulate, "_replicate", failing)
        path = tmp_path / "m.txt"
        save_market(generate_uniform_market(6, 1), path)
        master = 2**64 - 5
        config = ExperimentConfig(n=6, replications=4, master_seed=master,
                                  manipulation=manipulation,
                                  market_path=str(path) if from_file else None)
        with pytest.raises(ExperimentError) as info:
            run_experiment(config)
        tags = {"market": 0, "RSD": 1, "RM": 2, "manipulation": 3}
        if from_file:
            del tags["market"]
        if manipulation is None:
            del tags["manipulation"]
        seeds = ", ".join(f"{name} {derive_seed(master, 2, tag)}" for name, tag in tags.items())
        assert str(info.value) == f"replication 2: boom (seeds: {seeds})"

    def test_replication_holds_one_market(self):
        # each replication frees its market before the next one is drawn,
        # and stores its (2n, n) draw without a copy: the peak is that
        # draw and the market's two (n, n) tables, 4 n^2 int16 cells or
        # n^2 * 8 bytes
        n = 400
        config = ExperimentConfig(n=n, replications=3, master_seed=1,
                                  mechanisms=("DA", "TTC", "RSD"))
        assert peak_of(run_experiment, config) < 1.5 * n * n * 8

    def test_rm_holds_one_cost_matrix(self):
        # on full lists RM builds its shuffled (n, n) cost matrix in the
        # int16 rank table's own type, 64 rows at a time, with no n-row
        # float table or row-permuted copy beside it, and the solver
        # reads it in place: the peak is the market's n^2 * 8 bytes and
        # that matrix's n^2 * 2, about 1.37 n^2 * 8 in all (a float64
        # matrix would make it 2 n^2 * 8)
        n = 400
        config = ExperimentConfig(n=n, replications=3, master_seed=1,
                                  mechanisms=("RM", "TTC", "DA"))
        assert peak_of(run_experiment, config) < 1.6 * n * n * 8

    def test_solver_reads_an_int16_table_in_place(self):
        # a float64 copy of the n = 400 unit table alone would trace
        # n^2 * 8 bytes; the solve holds only 64-row blocks and arrays
        # over the classes (about 0.35 n^2 * 8)
        n = 400
        table, capacities, _, _ = _shuffled_rank_costs(generate_uniform_market(n, 81), 1)
        assert table.dtype == np.int16 and table.shape == (n, n)
        assert peak_of(min_cost_assignment, table, capacities) < n * n * 8

    def test_rm_holds_one_column_per_seat_class(self):
        # on a partial-list market of 4-seat schools RM's table holds one
        # column per school and one for "stay unassigned": n * (m + 1)
        # cells, where a matrix over seats holds n * (4m + n), 8 times as
        # many here.  RM peaks at about 1.6 times the table: the table,
        # and the solve's arrays over the 4m + n seats and 64-row blocks
        # over the m + 1 classes
        n, m = 400, 100
        market = partial_market(n, m, 4, 8, 77)
        assert peak_of(rank_minimizing, market, 1) < 2.5 * n * (m + 1) * 8

    def test_rm_reduces_wide_layers_64_rows_at_a_time(self):
        # 1000 students at 10 schools of 100 seats: RM's searches scan
        # layers of up to 300 rows and reduce them 64 rows at a time, so
        # no layer is ever held whole
        n, m = 1000, 10
        market = partial_market(n, m, 100, 8, 5)
        assert peak_of(rank_minimizing, market, 1) < 2 * 64 * (n + m + 1) * 8

    def test_rm_solve_is_as_wide_as_the_seat_classes(self):
        # the same market: the solve holds a few arrays over the 2,000
        # seats (16 KB each) and 64-row blocks over the 11 classes (6 KB),
        # about 1.7 times the 88 KB the table would take in float64 (it
        # is int16, the rank table's type, and read in place).  A solver with
        # a slot per matched seat reduces 64-row blocks over up to
        # n + m + 1 slots (518 KB) and peaks at about 8.6 times that 88 KB
        n, m = 1000, 10
        table, capacities, _, _ = _shuffled_rank_costs(partial_market(n, m, 100, 8, 5), 1)
        assert table.shape == (n, m + 1)
        assert peak_of(min_cost_assignment, table, capacities) < 3 * n * (m + 1) * 8


class TestPartialListPipeline:
    """End-to-end accounting on a synthetic partial-list market with
    surplus seats, run as it stands: the k+1 rank rule, unassigned
    bookkeeping, and no school over capacity."""

    def build(self):
        # 6 students, 3 schools with surplus seats, short ragged lists
        return Market(
            capacities=(3, 3, 2),
            prefs=(
                (0, 1),
                (0,),
                (1, 0, 2),
                (1,),
                (2, 1),
                (0, 2),
            ),
            priorities=(
                (0, 1, 2, 3, 4, 5),
                (2, 3, 0, 5, 4, 1),
                (4, 5, 0, 1, 2, 3),
            ),
        )

    def test_balanced_then_all_mechanisms_account_for_unassigned(self):
        m = self.build()
        assert m.total_seats == 8
        from schoolmatch.mechanisms import MECHANISMS

        for name, mech in MECHANISMS.items():
            alloc = mech(m, 17)
            assert validate_allocation(m, alloc) == []
            stats = rank_stats(m, alloc)
            assert sum(stats.histogram.values()) == 6
            n_assigned = 6 - stats.unassigned_count
            if n_assigned:
                # mean excludes the k+1 effective ranks of unassigned students
                from schoolmatch.market import effective_ranks

                eff = effective_ranks(m, alloc)
                manual = eff[alloc.assignment >= 0].mean()
                assert stats.mean == pytest.approx(manual)
