"""Acceptance suite: every gate criterion with its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and
asserts all of its sub-checks.  The heavy replication experiments run
once per module and are shared.

Two sub-checks are expected to fail and are left failing on purpose;
they transcribe reference-table values that the mechanisms, as defined,
cannot produce (the enumeration-verified implementations here and the
rest of the same tables agree closely).  See the failure messages.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from schoolmatch.assignment import min_cost_assignment
from schoolmatch.market import Market, effective_ranks
from schoolmatch.mechanisms import (
    deferred_acceptance,
    rank_minimizing,
    serial_dictatorship,
    top_trading_cycles,
)
from schoolmatch.metrics import justified_envy, rank_stats
from schoolmatch.simulate import (
    ExperimentConfig,
    _replicate,
    apply_manipulation,
    derive_seed,
    generate_uniform_market,
    run_experiment,
)
from schoolmatch.theory import rsd_no_envy_fraction, rsd_rank_probability

from oracles import (
    brute_force_assignment,
    harmonic_number,
    matched_total,
    pareto_optimal_by_enumeration,
    uniform_ttc_mean_rank,
    uniform_ttc_share_above,
)
from test_solver_vs_scipy import uniform_max_ranges

DATA = Path(__file__).parent / "data"


def _criterion(name: str, checks: list[tuple[str, bool, str]]) -> None:
    failed = [(label, detail) for label, ok, detail in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[{status}] {name}")
    for label, detail in failed:
        print(f"       failed: {label} ({detail})")
    assert not failed, f"{name}: " + "; ".join(
        f"{label} ({detail})" for label, detail in failed
    )


def _within(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol


@pytest.fixture(scope="module")
def table_n100():
    config = ExperimentConfig(
        n=100,
        replications=1000,
        master_seed=20251,
        mechanisms=("RM", "TTC", "DA"),
        thresholds=(1.0, 2.0, math.log(100), 10.0, 25.0, 50.0),
    )
    start = time.perf_counter()
    report = run_experiment(config)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def table_n500():
    config = ExperimentConfig(
        n=500,
        replications=1000,
        master_seed=20252,
        mechanisms=("RM", "TTC", "DA"),
        thresholds=(1.0, 2.0),
    )
    start = time.perf_counter()
    report = run_experiment(config)
    return report, time.perf_counter() - start


def test_solver_exactness_vs_oracle():
    rng = np.random.default_rng(20250)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        nr = int(rng.integers(1, 8))
        nc = int(rng.integers(nr, nr + 3))
        c = rng.integers(0, 100, size=(nr, nc))
        if matched_total(c, min_cost_assignment(c)) != matched_total(c, brute_force_assignment(c)):
            mismatches += 1
    elapsed = time.perf_counter() - start
    _criterion(
        "solver exactness: 1000 random matrices (n<=7) vs brute force, <5s",
        [
            ("exact totals on all 1000", mismatches == 0, f"{mismatches} mismatches"),
            ("runtime < 5 s", elapsed < 5.0, f"{elapsed:.2f}s"),
        ],
    )


def test_random_market_table_n100(table_n100):
    report, elapsed = table_n100
    rm, ttc, da = (report.summaries[k] for k in ("RM", "TTC", "DA"))
    _criterion(
        "random-market table n=100, 1000 reps (means/maxes/variances)",
        [
            ("RM mean 1.8±0.1", _within(rm.mean, 1.8, 0.1), f"{rm.mean:.3f}"),
            ("TTC mean 4.3±0.2", _within(ttc.mean, 4.3, 0.2), f"{ttc.mean:.3f}"),
            ("DA mean 5.0±0.2", _within(da.mean, 5.0, 0.2), f"{da.mean:.3f}"),
            ("RM max 6±1", _within(rm.max_mean, 6.0, 1.0), f"{rm.max_mean:.2f}"),
            ("TTC max 64±6", _within(ttc.max_mean, 64.0, 6.0), f"{ttc.max_mean:.1f}"),
            ("DA max 23.2±2", _within(da.max_mean, 23.2, 2.0), f"{da.max_mean:.2f}"),
            ("RM variance 1.3±0.2", _within(rm.variance, 1.3, 0.2), f"{rm.variance:.2f}"),
            ("TTC variance 73.3±10", _within(ttc.variance, 73.3, 10.0), f"{ttc.variance:.1f}"),
            ("DA variance 18.5±3", _within(da.variance, 18.5, 3.0), f"{da.variance:.1f}"),
            ("runtime < 2 min", elapsed < 120.0, f"{elapsed:.0f}s"),
        ],
    )


def test_random_market_table_n500(table_n500):
    report, elapsed = table_n500
    rm, ttc, da = (report.summaries[k] for k in ("RM", "TTC", "DA"))
    _criterion(
        "random-market table n=500, 1000 reps",
        [
            ("RM mean 1.8±0.1", _within(rm.mean, 1.8, 0.1), f"{rm.mean:.3f}"),
            ("TTC mean 5.8±0.2", _within(ttc.mean, 5.8, 0.2), f"{ttc.mean:.3f}"),
            ("DA mean 6.7±0.2", _within(da.mean, 6.7, 0.2), f"{da.mean:.3f}"),
            ("TTC max 315±25", _within(ttc.max_mean, 315.0, 25.0), f"{ttc.max_mean:.1f}"),
            ("runtime < 20 min", elapsed < 1200.0, f"{elapsed:.0f}s"),
        ],
    )


def _csv_matches_golden(report, name: str) -> tuple[str, bool, str]:
    golden = (DATA / name).read_bytes()
    produced = report.to_csv().encode()
    return (f"to_csv() equals tests/data/{name} byte for byte", produced == golden,
            f"{len(produced)} bytes vs {len(golden)}")


def test_table_n100_csv_golden(table_n100):
    report, _ = table_n100
    _criterion("random-market table n=100: CSV golden",
               [_csv_matches_golden(report, "acceptance_n100.csv")])


def test_table_n500_csv_golden(table_n500):
    report, _ = table_n500
    _criterion("random-market table n=500: CSV golden",
               [_csv_matches_golden(report, "acceptance_n500.csv")])


def test_threshold_shares_n100(table_n100):
    report, _ = table_n100
    rm, ttc, da = (report.summaries[k] for k in ("RM", "TTC", "DA"))
    pct = lambda s, i: 100.0 * s.threshold_share[i]  # noqa: E731
    # thresholds fixture order: 1, 2, log n, 10, 25, 50
    _criterion(
        "threshold shares n=100 (percent of students with rank > m)",
        [
            ("RM >1: 46±2", _within(pct(rm, 0), 46.0, 2.0), f"{pct(rm, 0):.1f}"),
            ("TTC >1: 50±2", _within(pct(ttc, 0), 50.0, 2.0), f"{pct(ttc, 0):.1f}"),
            # Irreproducible source value: student-optimal DA (verified by
            # stable-matching enumeration) gives ~79 here; 96 contradicts
            # the mechanism's own mean/max/tail in the same table.
            ("DA >1: 96±1", _within(pct(da, 0), 96.0, 1.0), f"{pct(da, 0):.1f}"),
            ("TTC >0.5n: 1±0.5", _within(pct(ttc, 5), 1.0, 0.5), f"{pct(ttc, 5):.2f}"),
            ("RM >0.5n: 0 (rounds to 0)", pct(rm, 5) < 0.5, f"{pct(rm, 5):.2f}"),
            ("DA >0.5n: 0 (rounds to 0)", pct(da, 5) < 0.5, f"{pct(da, 5):.2f}"),
        ],
    )


def test_envy_limits_n500(table_n500):
    report, _ = table_n500
    rm, ttc, da = (report.summaries[k] for k in ("RM", "TTC", "DA"))
    _criterion(
        "envy-share limits at n=500 (1000 reps)",
        [
            # Irreproducible at n=500: the asymptotic envy share is 1/3, but
            # the realized rank pmf still has ~53.4% first choices at n=500
            # (as in the source's own threshold table), which pins the envy
            # share near 0.30 by the limit argument's own arithmetic.
            ("RM envy 0.333±0.02", _within(rm.envy_share, 0.333, 0.02), f"{rm.envy_share:.4f}"),
            ("TTC envy 0.386±0.02", _within(ttc.envy_share, 0.386, 0.02), f"{ttc.envy_share:.4f}"),
            (
                "DA envy 0 on every replication",
                bool((da.per_rep_envy_share == 0.0).all()),
                f"max {da.per_rep_envy_share.max():.4f}",
            ),
        ],
    )


def test_ttc_and_da_means_against_exact_laws(table_n100, table_n500):
    # TTC has RSD's law on these markets (Pathak & Sethuraman), so its
    # expected mean is Knuth's ((n+1)H_n - n)/n; DA's expected mean is at
    # most H_n (Wilson 1972), a one-sided bound
    checks = []
    for (report, _), n in ((table_n100, 100), (table_n500, 500)):
        ttc, da = report.summaries["TTC"], report.summaries["DA"]
        knuth, h = float(uniform_ttc_mean_rank(n)), float(harmonic_number(n))
        checks += [
            (f"TTC mean within 4 se of Knuth's {knuth:.5f} at n={n}",
             abs(ttc.mean - knuth) <= 4 * ttc.se_mean, f"{ttc.mean:.5f} (se {ttc.se_mean:.4f})"),
            (f"DA mean - 4 se <= H_{n} = {h:.5f}",
             da.mean - 4 * da.se_mean <= h, f"{da.mean:.5f} (se {da.se_mean:.4f})"),
        ]
    _criterion("TTC's exact mean and DA's bound at n=100 and n=500", checks)


def test_ttc_threshold_shares_exact_n100(table_n100):
    # the fixture's TTC rows again, one per replication from the same
    # market seeds (the summary keeps no per-replication shares); each
    # mean share lies within 4 se of (n+1)/n (1/(floor(m)+1) - 1/(n+1))
    report, _ = table_n100
    config = replace(report.config, mechanisms=("TTC",))
    rows = np.array([_replicate(config, None, r)["TTC"] for r in range(config.replications)])
    shares = rows[:, 5:]
    means = shares.mean(axis=0)
    se = shares.std(axis=0, ddof=1) / math.sqrt(len(shares))
    checks = [("the same replications as the fixture",
               tuple(float(x) for x in means) == report.summaries["TTC"].threshold_share,
               f"{means.round(5).tolist()}")]
    for m, mean, err in zip(config.thresholds, means, se):
        exact = float(uniform_ttc_share_above(config.n, m))
        checks.append((f"TTC >{m:.3g}: within 4 se of {exact:.5f}",
                       abs(mean - exact) <= 4 * err, f"{mean:.5f} (se {err:.5f})"))
    _criterion("TTC threshold shares n=100 against the exact law", checks)


def test_rm_max_within_range_of_optima_n100(table_n100):
    # RM's max depends on which optimum its tie rule picks; on the
    # fixture's first 200 markets, redrawn from their seeds, its rank sum
    # is the least and its max lies between the least and greatest max
    # over rank-minimizing allocations
    report, _ = table_n100
    rm, reps = report.summaries["RM"], 200
    optimum, least, greatest = uniform_max_ranges(report.config, reps).T
    sums, maxes = np.round(rm.per_rep_mean[:reps] * report.config.n), rm.per_rep_max[:reps]
    outside = int(((maxes < least) | (maxes > greatest)).sum())
    _criterion(
        "RM's max among optima at n=100 (first 200 replications)",
        [
            ("rank sum is scipy's optimum on every replication",
             np.array_equal(sums, optimum), f"{int((sums != optimum).sum())} differ"),
            ("max within [least, greatest] over optima", outside == 0,
             f"{outside} outside; least {least.mean():.3f}, RM {maxes.mean():.3f}, "
             f"greatest {greatest.mean():.3f}"),
        ],
    )


def test_rsd_against_exact_laws_n100():
    # RSD has the same law as TTC on these markets (rank share j is
    # (n+1)/(n j (j+1)) at every n): its mean and six threshold shares
    # within 4 se of the exact values, per replication from _replicate,
    # and its envy share within 4 se of 1 - rsd_no_envy_fraction(n)
    config = ExperimentConfig(n=100, replications=1000, master_seed=20256, mechanisms=("RSD",),
                              thresholds=(1.0, 2.0, math.log(100), 10.0, 25.0, 50.0))
    rsd = run_experiment(config).summaries["RSD"]
    rows = np.array([_replicate(config, None, r)["RSD"] for r in range(config.replications)])
    shares = rows[:, 5:]
    means = shares.mean(axis=0)
    se = shares.std(axis=0, ddof=1) / math.sqrt(len(shares))
    knuth = float(uniform_ttc_mean_rank(config.n))
    envy = 1.0 - rsd_no_envy_fraction(config.n)
    envy_se = rsd.per_rep_envy_share.std(ddof=1) / math.sqrt(config.replications)
    checks = [
        ("the same replications as the run",
         tuple(float(x) for x in means) == rsd.threshold_share, f"{means.round(5).tolist()}"),
        (f"RSD mean within 4 se of Knuth's {knuth:.5f}",
         abs(rsd.mean - knuth) <= 4 * rsd.se_mean, f"{rsd.mean:.5f} (se {rsd.se_mean:.4f})"),
        (f"RSD envy share within 4 se of {envy:.5f}",
         abs(rsd.envy_share - envy) <= 4 * envy_se, f"{rsd.envy_share:.5f} (se {envy_se:.5f})"),
    ]
    for m, mean, err in zip(config.thresholds, means, se):
        exact = float(uniform_ttc_share_above(config.n, m))
        checks.append((f"RSD >{m:.3g}: within 4 se of {exact:.5f}",
                       abs(mean - exact) <= 4 * err, f"{mean:.5f} (se {err:.5f})"))
    _criterion("RSD at n=100 against the exact laws", checks)


def test_rsd_theory_oracles():
    checks = []
    value = rsd_no_envy_fraction(10_000)
    checks.append(("no-envy fraction at n=10^4 = 0.6137±0.001", _within(value, 0.6137, 1e-3), f"{value:.5f}"))

    n = 200
    worst = max(
        abs(sum(rsd_rank_probability(k, j, n) for j in range(1, k + 1)) - 1.0)
        for k in range(1, n + 1)
    )
    checks.append(("placement pmf rows sum to 1 (1e-12, n=200)", worst < 1e-12, f"worst {worst:.2e}"))

    # Monte Carlo: the artifact's serial dictatorship vs the closed form.
    n, draws = 6, 100_000
    rng = np.random.default_rng(derive_seed(2024, 6))
    counts = np.zeros((n, n))
    for d in range(draws):
        market = generate_uniform_market(n, derive_seed(2024, 0, d))
        order = rng.permutation(n)
        alloc = serial_dictatorship(market, order)
        for k, t in enumerate(order):
            counts[k, market.rank_table[t, alloc.assignment[t]] - 1] += 1
    freq = counts / draws
    bad_cells = []
    for k in range(n):
        for j in range(n):
            p = rsd_rank_probability(k + 1, j + 1, n)
            se = math.sqrt(p * (1 - p) / draws)
            if se == 0.0:
                ok = freq[k, j] == p
            else:
                ok = abs(freq[k, j] - p) <= 3 * se
            if not ok:
                bad_cells.append((k + 1, j + 1))
    checks.append(
        ("MC placement frequencies within 3 s.e. (n=6, 10^5 draws)", not bad_cells, f"cells {bad_cells}")
    )
    _criterion("serial-dictatorship theory oracles", checks)


def test_growth_trend_checks(table_n100, table_n500):
    report100, _ = table_n100
    report500, _ = table_n500
    config = ExperimentConfig(n=2000, replications=15, master_seed=20253, mechanisms=("DA",))
    da2000 = run_experiment(config).summaries["DA"]

    checks = []
    for n, da_mean in (
        (100, report100.summaries["DA"].mean),
        (500, report500.summaries["DA"].mean),
        (2000, da2000.mean),
    ):
        ratio = da_mean / math.log(n)
        checks.append(
            (f"DA mean/ln(n) in [0.85,1.25] at n={n}", 0.85 <= ratio <= 1.25, f"{ratio:.3f}")
        )
    for n, rm_max in (
        (100, report100.summaries["RM"].max_mean),
        (500, report500.summaries["RM"].max_mean),
    ):
        ratio = rm_max / math.log2(n)
        checks.append(
            (f"RM max/log2(n) in [0.8,1.3] at n={n}", 0.8 <= ratio <= 1.3, f"{ratio:.3f}")
        )
    for n, ttc_max in (
        (100, report100.summaries["TTC"].max_mean),
        (500, report500.summaries["TTC"].max_mean),
    ):
        checks.append(
            (f"TTC max/n >= 0.5 at n={n}", ttc_max / n >= 0.5, f"{ttc_max / n:.3f}")
        )
    _criterion("growth trends (averages ~ log n, maxima per mechanism)", checks)


def test_property_suite():
    rng = np.random.default_rng(20254)
    rm_dominated = 0
    da_envy = 0
    start = time.perf_counter()
    for i in range(10_000):
        n = int(rng.integers(5, 51))
        market = generate_uniform_market(n, derive_seed(20254, i, 0))
        seed = derive_seed(20254, i, 2)
        rm_sum = int(effective_ranks(market, rank_minimizing(market, seed)).sum())
        da = deferred_acceptance(market)
        if rm_sum > effective_ranks(market, da).sum():
            rm_dominated += 1
        if rm_sum > effective_ranks(market, top_trading_cycles(market)).sum():
            rm_dominated += 1
        if justified_envy(market, da):
            da_envy += 1
    elapsed = time.perf_counter() - start

    pareto_bad = 0
    for i in range(400):
        n = int(rng.integers(2, 7))
        market = generate_uniform_market(n, derive_seed(20254, i, 5))
        if not pareto_optimal_by_enumeration(market, top_trading_cycles(market)):
            pareto_bad += 1
        if not pareto_optimal_by_enumeration(
            market, rank_minimizing(market, derive_seed(20254, i, 6))
        ):
            pareto_bad += 1

    config = ExperimentConfig(n=30, replications=50, master_seed=4242, thresholds=(1.0, 2.0))
    reproducible = run_experiment(config).to_csv() == run_experiment(config).to_csv()

    _criterion(
        "property suite: 10^4 instances, Pareto oracle, reproducibility",
        [
            ("RM rank-sum <= DA and TTC on 10^4 instances", rm_dominated == 0, f"{rm_dominated} violations"),
            ("DA envy-free on all 10^4 instances", da_envy == 0, f"{da_envy} violations"),
            ("TTC/RM Pareto optimal vs exhaustive oracle (n<=6)", pareto_bad == 0, f"{pareto_bad} violations"),
            ("same seed -> byte-identical CSV", reproducible, "mismatch"),
            ("10^4-instance sweep elapsed (informational, <10 min)", elapsed < 600.0, f"{elapsed:.0f}s"),
        ],
    )


def _short_list_market(n: int, seed: int) -> Market:
    """Synthetic stand-in for a reported-preferences market: uniform
    draws truncated to short ragged lists (3..7 of n schools), so some
    students end up unassigned and the k+1 accounting is exercised."""
    full = generate_uniform_market(n, seed)
    rng = np.random.default_rng(derive_seed(seed, 99))
    lengths = rng.integers(3, 8, size=n)
    prefs = [p[:k] for p, k in zip(full.pref_array.tolist(), lengths.tolist())]
    return Market(capacities=full.capacities, prefs=prefs, priorities=full.priority_array)


def test_manipulation_desk_scale():
    # Desk-scale substitute for the reported-preferences manipulation
    # table: short-list markets, statistics against TRUE preferences.
    n, reps = 100, 100
    checks = []
    for kind in ("drop_assigned", "drop_first"):
        for share in (0.0, 0.2, 0.4, 0.6, 0.8):
            truthful_means = np.empty(reps)
            manip_means = np.empty(reps)
            da_means = np.empty(reps)
            ttc_means = np.empty(reps)
            for r in range(reps):
                market = _short_list_market(n, derive_seed(20255, r, 0))
                rm_seed = derive_seed(20255, r, 2)
                truthful = rank_minimizing(market, rm_seed)
                manipulated = apply_manipulation(
                    market, truthful, kind, share, derive_seed(20255, r, 3)
                )
                re_run = rank_minimizing(manipulated, rm_seed)
                truthful_means[r] = rank_stats(market, truthful).mean
                manip_means[r] = rank_stats(market, re_run).mean
                da_means[r] = rank_stats(market, deferred_acceptance(market)).mean
                ttc_means[r] = rank_stats(market, top_trading_cycles(market)).mean
            drift = abs(manip_means.mean() - truthful_means.mean())
            checks.append(
                (
                    f"{kind} share {share:.1f}: RM mean drift < 0.2",
                    drift < 0.2,
                    f"{manip_means.mean():.3f} vs truthful {truthful_means.mean():.3f}",
                )
            )
            checks.append(
                (
                    f"{kind} share {share:.1f}: manipulated RM below DA and TTC",
                    manip_means.mean() < da_means.mean()
                    and manip_means.mean() < ttc_means.mean(),
                    f"RM {manip_means.mean():.3f}, TTC {ttc_means.mean():.3f}, "
                    f"DA {da_means.mean():.3f}",
                )
            )
    _criterion("strategic reporting at desk scale (n=100, both manipulations)", checks)
