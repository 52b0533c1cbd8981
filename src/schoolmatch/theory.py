"""Closed-form reference values for uniform random markets.

These are the analytic counterparts of the Monte Carlo experiments:
serial-dictatorship placement probabilities, RM's geometric rank pmf,
the harmonic-number formula for TTC's average rank, and asymptotic
average/maximum-rank curves per mechanism.  RSD's no-envy fraction and
RM's envy limit are one identity, ``expected_envy_share``, applied to
each mechanism's rank shares.  Everything here is pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TheoryValue",
    "RM_AVG_RANK_UPPER",
    "RM_AVG_RANK_LOWER",
    "TTC_MAX_RANK_LOWER_FRACTION",
    "TTC_MAX_RANK_OBSERVED_FRACTION",
    "RSD_NO_ENVY_LIMIT",
    "expected_envy_share",
    "rsd_rank_probability",
    "rsd_no_envy_fraction",
    "rm_rank_pmf",
    "rm_envy_limit",
    "ttc_expected_avg_rank",
    "reference_curves",
]

#: Asymptotic bounds on the expected average rank of rank-minimizing
#: assignment with iid uniform preferences (Parviainen 2004, Thm 2.1).
RM_AVG_RANK_UPPER = 2.0
RM_AVG_RANK_LOWER = math.pi**2 / 6

#: Proven lower bound on expected max rank in top trading cycles, as a
#: fraction of n (Knuth 1996); simulations converge to about 0.63 n.
TTC_MAX_RANK_LOWER_FRACTION = 0.5
TTC_MAX_RANK_OBSERVED_FRACTION = 0.63

#: Limit of the no-envy fraction in random serial dictatorship:
#: 2 + 2 ln(1/2) = 0.61370...; the envious fraction tends to 0.3863.
RSD_NO_ENVY_LIMIT = 2.0 + 2.0 * math.log(0.5)


@dataclass(frozen=True)
class TheoryValue:
    """A closed-form quantity together with where it comes from."""

    value: float
    source: str


def expected_envy_share(rank_shares) -> float:
    """Expected share of students with justified envy, 1 - sum_r s_r 2^(1-r),
    given the share s_r of students seated at their r-th choice
    (``rank_shares[r - 1]``).

    Holds when priority lists are iid uniform and full, every school has
    one seat and fills it, and the mechanism never reads priorities: the
    r - 1 schools a rank-r student prefers are all held, and the student
    outranks each holder with probability 1/2, independently of the
    allocation and across schools.
    """
    return 1.0 - math.fsum(s * 2.0 ** (1 - r) for r, s in enumerate(rank_shares, start=1))


def rsd_rank_probability(k: int, j: int, n: int) -> float:
    """P(the k-th dictator is assigned their j-th most preferred school).

    Equals ((n+1-k)/k) * C(k,j) / C(n,j) in exact integers, rounded
    once; C(k,j) = 0 when j > k, as at most k-1 schools are gone when
    the k-th dictator picks.  The binomials have up to n bits, so a call
    at n = 20,000 takes milliseconds.
    """
    if not (1 <= k <= n and 1 <= j <= n):
        raise ValueError(f"dictator index k={k} or rank j={j} out of range 1..{n}")
    return (n + 1 - k) * math.comb(k, j) / (k * math.comb(n, j))


def rsd_no_envy_fraction(n: int) -> float:
    """Expected fraction of students without justified envy under RSD:
    (n+1)/n * sum_j 2^(1-j)/(j(j+1)), one minus ``expected_envy_share``
    of the rank shares (n+1)/(n j (j+1)) that ``rsd_rank_probability``
    sums to over dictators (hockey-stick identity).  Converges to
    RSD_NO_ENVY_LIMIT = 0.6137 from above.  Ranks past 1080, where
    2^(1-j) underflows, are left out.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    shares = ((n + 1) / (n * j * (j + 1)) for j in range(1, min(n, 1080) + 1))
    return 1.0 - expected_envy_share(shares)


def rm_rank_pmf(i: int) -> float:
    """Asymptotic P(a student gets their i-th choice) under rank
    minimization: 2^-i (Parviainen 2004, Thm 1.3)."""
    if i < 1:
        raise ValueError("rank index must be at least 1")
    return 2.0 ** (-i)


def rm_envy_limit() -> float:
    """Limit fraction of students with justified envy under rank
    minimization: ``expected_envy_share`` of the rank pmf 2^-i, which
    is 1 - sum over i of 2^(1-2i) = 1/3."""
    return 1.0 / 3.0


def ttc_expected_avg_rank(n: int) -> float:
    """Expected average rank under top trading cycles with iid uniform
    preferences and priorities: ((n+1) H_n - n) / n, with H_n the n-th
    harmonic number (Knuth 1996), summed 65,536 terms at a time so that
    memory stays bounded.  Grows like log n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    h_n = math.fsum(float(np.sum(1.0 / np.arange(k, min(k + 65536, n + 1), dtype=np.float64)))
                    for k in range(1, n + 1, 65536))
    return ((n + 1) * h_n - n) / n


def reference_curves(n: int) -> dict[str, tuple[TheoryValue, TheoryValue]]:
    """Per mechanism, (average rank, maximum rank) reference values at n.

    These are asymptotic results quoted at finite n, hence "reference"
    rather than "prediction": RM averages below 2 with maximum near
    log2(n); TTC and DA average log(n); TTC's maximum scales with n
    itself (0.63 n observed, > 0.5 n proven) while DA's grows like
    log^2(n).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    log_n = math.log(n)
    return {
        "RM": (
            TheoryValue(RM_AVG_RANK_UPPER, "Parviainen (2004) Thm 2.1 upper bound"),
            TheoryValue(math.log2(n), "longest-run heuristic via 2^-i rank pmf"),
        ),
        "TTC": (
            TheoryValue(log_n, "Knuth (1996): ((n+1)H_n - n)/n ~ log n"),
            TheoryValue(
                TTC_MAX_RANK_OBSERVED_FRACTION * n,
                "simulation constant 0.63 n (proven > 0.5 n)",
            ),
        ),
        "DA": (
            TheoryValue(log_n, "Pittel (1989): proposer average ~ log n"),
            TheoryValue(log_n**2, "Pittel (1992): proposer maximum ~ log^2 n"),
        ),
    }
