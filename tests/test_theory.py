import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from schoolmatch.mechanisms import run_mechanism
from schoolmatch.metrics import rank_stats
from schoolmatch.simulate import _TAG_MARKET, _TAG_RM, _TAG_RSD, derive_seed, generate_uniform_market
from schoolmatch.theory import (
    RSD_NO_ENVY_LIMIT,
    TTC_MAX_RANK_LOWER_FRACTION,
    expected_envy_share,
    reference_curves,
    rm_envy_limit,
    rm_rank_pmf,
    rsd_no_envy_fraction,
    rsd_rank_probability,
    ttc_expected_avg_rank,
)

from oracles import (
    harmonic_number,
    peak_of,
    rsd_no_envy_closed_form,
    rsd_rank_probability_by_counting,
    uniform_ttc_mean_rank,
    uniform_ttc_rank_shares,
    uniform_ttc_share_above,
)


class TestExpectedEnvyShare:
    def test_small_cases(self):
        assert expected_envy_share([1.0]) == 0.0
        assert expected_envy_share([]) == 1.0
        # half at rank 1 never envy; half at rank 2 envy with probability 1/2
        assert expected_envy_share([0.5, 0.5]) == 0.25
        assert expected_envy_share(iter([0.0, 0.0, 1.0])) == 0.75


# The identity on simulated markets.  RM and RSD never read priorities,
# so each replication's envy share minus the identity on its own rank
# shares averages to 0; this checks metrics._envious at sizes no
# enumeration reaches.  TTC reads priorities and misses at n=100.
# Markets and seeds are the acceptance tables' (master seeds 20251 and
# 20252), with 300 and 40 of their 1000 replications.
_REPLICATIONS = {100: (20251, 300), 500: (20252, 40)}


def _envy_minus_identity(n: int, mech: str) -> tuple[float, float]:
    """Mean and standard error over replications of envy share minus identity."""
    master, reps = _REPLICATIONS[n]
    diffs = []
    for r in range(reps):
        market = generate_uniform_market(n, derive_seed(master, r, _TAG_MARKET))
        seed = derive_seed(master, r, _TAG_RM if mech == "RM" else _TAG_RSD)
        stats = rank_stats(market, run_mechanism(mech, market, seed))
        shares = [stats.histogram.get(rank, 0) / n for rank in range(1, max(stats.histogram) + 1)]
        diffs.append(stats.envy_share - expected_envy_share(shares))
    return float(np.mean(diffs)), float(np.std(diffs, ddof=1) / math.sqrt(reps))


@pytest.mark.parametrize("n", sorted(_REPLICATIONS))
@pytest.mark.parametrize("mech", ["RM", "RSD"])
def test_identity_matches_priority_blind_mechanisms(mech, n):
    mean, se = _envy_minus_identity(n, mech)
    assert abs(mean) < 3 * se, (mean, se)


def test_identity_misses_ttc_at_n100():
    mean, se = _envy_minus_identity(100, "TTC")
    assert mean < -3 * se, (mean, se)


class TestRsdRankProbability:
    def test_first_dictator_always_first_choice(self):
        for n in (1, 5, 50, 200):
            assert rsd_rank_probability(1, 1, n) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 10, 47])
    def test_top_choice_probability(self, n):
        for k in range(1, n + 1):
            assert rsd_rank_probability(k, 1, n) == pytest.approx(
                (n + 1 - k) / n, abs=1e-12
            )

    def test_zero_beyond_dictator_index(self):
        assert rsd_rank_probability(2, 3, 5) == 0.0
        assert rsd_rank_probability(1, 2, 5) == 0.0

    def test_rows_sum_to_one(self):
        n = 200
        for k in range(1, n + 1):
            total = sum(rsd_rank_probability(k, j, n) for j in range(1, k + 1))
            assert abs(total - 1.0) < 1e-12

    def test_exact_on_grid(self):
        # within 1e-15 relative of the counted probability; values below
        # the smallest normal float have no relative precision to check
        for n in (1, 2, 3, 9, 60, 313, 2000):
            for k in sorted({1, 2, n // 3, n // 2, n - 1, n} & set(range(1, n + 1))):
                for j in sorted({1, 2, 3, k // 2, k - 1, k} & set(range(1, k + 1))):
                    exact = rsd_rank_probability_by_counting(k, j, n)
                    if exact >= sys.float_info.min:
                        error = abs(Fraction(rsd_rank_probability(k, j, n)) - exact) / exact
                        assert error <= 1e-15, (k, j, n)

    def test_column_sums(self):
        # summed over dictators k, rank j holds (n+1)/(j(j+1)) students
        for n in (1, 7, 60):
            for j in range(1, n + 1):
                total = sum(rsd_rank_probability(k, j, n) for k in range(j, n + 1))
                assert total == pytest.approx((n + 1) / (j * (j + 1)), rel=1e-13)

    def test_uniform_ttc_oracles_agree_with_counting(self):
        # the acceptance suite's exact TTC law: each rank share is the
        # counted probability averaged over the n dictators, the shares
        # sum to 1, the mean is Knuth's and the tails telescope
        for n in (1, 2, 5, 12):
            shares = uniform_ttc_rank_shares(n)
            assert shares == [sum(rsd_rank_probability_by_counting(k, j, n)
                                  for k in range(1, n + 1)) / n for j in range(1, n + 1)]
            assert sum(shares) == 1
            assert uniform_ttc_mean_rank(n) == ((n + 1) * harmonic_number(n) - n) / n
            for cutoff in (0, n / 3, n - 1, n):  # the law holds for 0 <= cutoff <= n
                assert uniform_ttc_share_above(n, cutoff) == Fraction(n + 1, n) * (
                    Fraction(1, math.floor(cutoff) + 1) - Fraction(1, n + 1))

    def test_index_errors(self):
        with pytest.raises(ValueError):
            rsd_rank_probability(0, 1, 5)
        with pytest.raises(ValueError):
            rsd_rank_probability(6, 1, 5)
        with pytest.raises(ValueError):
            rsd_rank_probability(3, 0, 5)
        with pytest.raises(ValueError):
            rsd_rank_probability(3, 6, 5)


class TestRsdNoEnvyFraction:
    def test_single_dictator_never_envies(self):
        assert rsd_no_envy_fraction(1) == pytest.approx(1.0)

    # the reduced form in exact rationals, rounded once
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 12, 50, 100, 500, 1000, 10_000, 100_000])
    def test_matches_independent_reduced_form(self, n):
        assert rsd_no_envy_fraction(n) == pytest.approx(
            rsd_no_envy_closed_form(n), rel=1e-15, abs=0
        )

    @pytest.mark.parametrize("n", [1, 2, 6, 25, 60])
    def test_matches_definition(self, n):
        # (1/n) sum_k sum_j p(k, j) 2^(1-j): a rank-j student outranks the
        # holders of the j-1 schools they prefer with probability 2^(1-j)
        by_definition = sum(
            rsd_rank_probability(k, j, n) * 2.0 ** (1 - j)
            for k in range(1, n + 1) for j in range(1, k + 1)
        ) / n
        assert rsd_no_envy_fraction(n) == pytest.approx(by_definition, rel=1e-13)

    def test_limit(self):
        # sum_j 2^(1-j)/(j(j+1)) = 2 - 2 ln 2, and the (n+1)/n factor
        # puts the value RSD_NO_ENVY_LIMIT/n above it
        assert RSD_NO_ENVY_LIMIT == pytest.approx(2 - 2 * math.log(2), rel=1e-15)
        assert rsd_no_envy_fraction(10**15) == pytest.approx(RSD_NO_ENVY_LIMIT, rel=1e-14)
        excess = 10**6 * (rsd_no_envy_fraction(10**6) - RSD_NO_ENVY_LIMIT)
        assert excess == pytest.approx(RSD_NO_ENVY_LIMIT, rel=1e-6)

    def test_monotone_convergence_to_limit(self):
        gaps = [abs(rsd_no_envy_fraction(n) - RSD_NO_ENVY_LIMIT) for n in (10, 100, 1000, 10_000)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_large_n_value(self):
        assert rsd_no_envy_fraction(10_000) == pytest.approx(0.6137, abs=1e-3)


class TestRmRankPmf:
    def test_first_two_masses(self):
        assert rm_rank_pmf(1) == 0.5
        assert rm_rank_pmf(2) == 0.25

    def test_sums_to_one(self):
        assert sum(rm_rank_pmf(i) for i in range(1, 60)) == pytest.approx(1.0)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            rm_rank_pmf(0)


class TestRmEnvyLimit:
    def test_exact_third(self):
        assert rm_envy_limit() == 1 / 3

    @staticmethod
    def truncated(terms):
        """The envy share of the rank pmf stopped at i = ``terms``."""
        return expected_envy_share(rm_rank_pmf(i) for i in range(1, terms + 1))

    def test_partial_sums(self):
        assert self.truncated(1) == 0.5
        assert abs(self.truncated(10) - 1 / 3) < 1e-5

    def test_identity_on_the_rank_pmf(self):
        assert self.truncated(0) == 1.0
        for terms in (2, 5, 30):
            assert self.truncated(terms) == pytest.approx((1 + 2 * 4.0**-terms) / 3, rel=1e-15)
        assert self.truncated(600) == pytest.approx(rm_envy_limit(), rel=1e-15)


class TestTtcExpectedAvgRank:
    def test_boundary(self):
        assert ttc_expected_avg_rank(1) == pytest.approx(1.0)

    def test_n_two(self):
        assert ttc_expected_avg_rank(2) == pytest.approx(1.25)

    def test_n_hundred(self):
        # exact rational value of ((n+1) H_n - n)/n at n=100
        assert ttc_expected_avg_rank(100) == pytest.approx(4.239251292816016, abs=1e-9)
        assert abs(ttc_expected_avg_rank(100) - 4.3) < 0.3

    def test_grows_like_log(self):
        n = 100_000
        assert abs(ttc_expected_avg_rank(n) / math.log(n) - 1.0) < 0.05

    def test_bounded_memory(self):
        # two n-element float64 arrays would trace 32 MB at this n
        assert peak_of(ttc_expected_avg_rank, 2_000_000) < 2 * 2**20


class TestReferenceCurves:
    def test_n_hundred_values(self):
        curves = reference_curves(100)
        assert curves["RM"][1].value == pytest.approx(math.log2(100))
        assert curves["RM"][1].value == pytest.approx(6.64, abs=0.01)
        assert curves["DA"][1].value == pytest.approx(math.log(100) ** 2)
        assert curves["DA"][1].value == pytest.approx(21.2, abs=0.1)
        assert curves["RM"][0].value == 2.0
        assert curves["TTC"][1].value == pytest.approx(63.0)

    def test_boundary_n_two(self):
        assert reference_curves(2)["RM"][1].value == 1.0

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            reference_curves(1)

    def test_sources_nonempty(self):
        for avg, mx in reference_curves(50).values():
            assert avg.source and mx.source
            assert np.isfinite(avg.value) and np.isfinite(mx.value)

    def test_proven_ttc_bound_below_observed(self):
        assert TTC_MAX_RANK_LOWER_FRACTION == 0.5
        curves = reference_curves(1000)
        assert curves["TTC"][1].value > TTC_MAX_RANK_LOWER_FRACTION * 1000
