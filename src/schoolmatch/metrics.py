"""Rank statistics, justified envy and Pareto checks over allocations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from schoolmatch.market import UNASSIGNED, Allocation, Market, effective_ranks, validate_allocation

__all__ = [
    "RankStats",
    "ParetoCheck",
    "rank_stats",
    "justified_envy",
    "is_pareto_optimal",
    "threshold_shares",
]


@dataclass(frozen=True)
class RankStats:
    """Distribution summary of one allocation's effective ranks.

    The histogram covers every student (unassigned ones contribute
    k+1), so its counts always sum to n.  mean and variance are taken
    over assigned students only, which matters once lists are partial
    and some students end up unassigned; variance is the sample
    variance (ddof=1).  envy_share is the fraction of students with
    justified envy.
    """

    mean: float
    max: int
    variance: float
    histogram: dict[int, int]
    unassigned_count: int
    envy_share: float

    @property
    def n_students(self) -> int:
        return sum(self.histogram.values())


def rank_stats(market: Market, allocation: Allocation) -> RankStats:
    """Compute the RankStats of ``allocation`` under ``market``."""
    eff = effective_ranks(market, allocation)
    a = allocation.assignment
    assigned = eff[a >= 0]
    values, counts = np.unique(eff, return_counts=True)
    histogram = {int(r): int(c) for r, c in zip(values, counts)}
    mean = variance = float("nan")
    if assigned.size:
        mean = float(assigned.mean())
        variance = float(assigned.var(ddof=1)) if assigned.size > 1 else 0.0
    n = market.n_students
    envy_share = float(np.count_nonzero(_envious(market, a, eff)) / n) if n else 0.0
    return RankStats(
        mean=mean,
        max=int(eff.max()) if eff.size else 0,
        variance=variance,
        histogram=histogram,
        unassigned_count=int((a == UNASSIGNED).sum()),
        envy_share=envy_share,
    )


def justified_envy(market: Market, allocation: Allocation) -> set[int]:
    """Students t for which some school s satisfies both envy conditions:
    t strictly prefers s to their assignment, and s would take t — t
    outranks the lowest-priority student admitted to s, or s has a free
    seat and ranks t.  Students a school does not rank can never have
    justified envy toward it.
    """
    envious = _envious(market, allocation.assignment, effective_ranks(market, allocation))
    return set(np.flatnonzero(envious).tolist())


def _envious(market: Market, a: np.ndarray, eff: np.ndarray) -> np.ndarray:
    """(n,) mask of the students with justified envy, given the
    assignment array ``a`` and its effective ranks ``eff``: the
    ``_preferred`` pairs whose school would take the student."""
    n, m = market.n_students, market.n_schools
    prio = market.priority_table
    assigned_students = np.nonzero(a >= 0)[0]
    assigned_schools = a[assigned_students]
    # Priority position a challenger must strictly beat, per school:
    # the worst admitted position, or n+1 when a seat is still free
    # (unranked students carry the sentinel n+2 and never qualify).
    cutoff = np.zeros(m, dtype=prio.dtype)
    np.maximum.at(cutoff, assigned_schools, prio[assigned_schools, assigned_students])
    filled = np.bincount(assigned_schools, minlength=m)
    cutoff = np.where(filled < np.asarray(market.capacities), n + 1, cutoff)

    students, schools = _preferred(market, eff)
    envious = np.zeros(n, dtype=bool)
    envious[students[prio[schools, students] < cutoff[schools]]] = True
    return envious


def _preferred(market: Market, eff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (student, school) pairs ``pref_array[t, :eff[t] - 1]``, in which
    the student ranks the school above their own seat, in student order."""
    # a seat at a school the student never ranked leaves every listed one above it
    above = np.minimum(eff - 1, market.list_lengths)
    students = np.repeat(np.arange(market.n_students), above)
    starts = np.cumsum(above) - above
    return students, market.pref_array[students, np.arange(students.size) - np.repeat(starts, above)]


@dataclass(frozen=True)
class ParetoCheck:
    """Outcome of a Pareto-optimality check; witness dominates when not optimal."""

    optimal: bool
    witness: Allocation | None = None

    def __bool__(self) -> bool:
        return self.optimal


def is_pareto_optimal(market: Market, allocation: Allocation) -> ParetoCheck:
    """Student-side Pareto optimality of any allocation that
    ``validate_allocation`` accepts, with partial lists, spare seats and
    unassigned students; any other raises ValueError with its first problem.

    Optimal allocations are the serial-dictatorship outcomes (Abdulkadiroglu
    and Sonmez 1998): students pick in turn, each once every school they
    prefer to their seat has all its seats held by picked students, and the
    allocation is optimal iff everyone picks.  Otherwise the witness walks
    from the lowest-index student left to their first school with a seat
    left, then to its lowest-index holder left, and so on to a free seat or
    round a cycle; each student on the walk or cycle moves up a step.
    """
    if problems := validate_allocation(market, allocation):
        raise ValueError(problems[0])
    a = allocation.assignment
    eff = effective_ranks(market, allocation)
    students, schools = _preferred(market, eff)
    left = np.array(market.capacities)  # per school, the seats no picked student holds
    free = np.bincount(a[a >= 0], minlength=len(left)) < left
    count = np.bincount(students[left[schools] > 0], minlength=len(a))
    fans = np.split(students[np.argsort(schools, kind="stable")],  # per school, who prefers it
                    np.cumsum(np.bincount(schools, minlength=len(left)))[:-1])
    picked = np.zeros(len(a), dtype=bool)
    pickers = np.flatnonzero(count == 0)
    while pickers.size:
        picked[pickers] = True
        seats = a[pickers][a[pickers] >= 0]
        np.subtract.at(left, seats, 1)
        hit = np.concatenate([students[:0], *(fans[s] for s in np.unique(seats[left[seats] == 0]))])
        np.subtract.at(count, hit, 1)
        pickers = np.unique(hit[count[hit] == 0])
    if picked.all():
        return ParetoCheck(True)

    walk: dict[int, int] = {}  # student -> the school they point to
    t = int(np.argmin(picked))
    while t not in walk:
        options = market.pref_array[t, :eff[t] - 1]
        walk[t] = s = int(options[np.argmax(left[options] > 0)])
        if free[s]:
            break
        t = int(np.argmax((a == s) & ~picked))
    else:  # keep the cycle only
        walk = dict(list(walk.items())[list(walk).index(t):])
    improved = a.copy()
    improved[list(walk)] = list(walk.values())
    return ParetoCheck(False, Allocation(improved))


def threshold_shares(stats: RankStats, thresholds) -> list[float]:
    """For each cutoff m, the share of students with effective rank > m."""
    n = stats.n_students
    return [sum(c for r, c in stats.histogram.items() if r > m) / n if n else 0.0
            for m in thresholds]
