"""Rank statistics, justified envy and Pareto checks over allocations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from schoolmatch.market import UNASSIGNED, Allocation, Market, effective_ranks

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
    a = allocation.assignment_array
    assigned = eff[a >= 0]
    values, counts = np.unique(eff, return_counts=True)
    histogram = {int(r): int(c) for r, c in zip(values, counts)}
    mean = variance = float("nan")
    if assigned.size:
        mean = float(assigned.mean())
        variance = float(assigned.var(ddof=1)) if assigned.size > 1 else 0.0
    n = market.n_students
    envy_share = np.count_nonzero(_envious(market, a, eff)) / n if n else 0.0
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
    envious = _envious(market, allocation.assignment_array, effective_ranks(market, allocation))
    return set(np.flatnonzero(envious).tolist())


def _envious(market: Market, a: np.ndarray, eff: np.ndarray) -> np.ndarray:
    """(n,) mask of the students with justified envy, given the
    assignment array ``a`` and its effective ranks ``eff``.

    A student can only envy a school they rank above their own, so only
    the (student, school) pairs ``pref_array[t, :eff[t] - 1]`` are
    gathered, with ``np.repeat``, and tested for a claim on the school."""
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

    # a seat at a school the student never ranked leaves every listed one above it
    above = np.minimum(eff - 1, market.list_lengths)
    students = np.repeat(np.arange(n), above)
    starts = np.cumsum(above) - above
    schools = market.pref_array[students, np.arange(students.size) - np.repeat(starts, above)]
    envious = np.zeros(n, dtype=bool)
    envious[students[prio[schools, students] < cutoff[schools]]] = True
    return envious


@dataclass(frozen=True)
class ParetoCheck:
    """Outcome of a Pareto-optimality check; witness dominates when not optimal."""

    optimal: bool
    witness: Allocation | None = None

    def __bool__(self) -> bool:
        return self.optimal


def is_pareto_optimal(market: Market, allocation: Allocation) -> ParetoCheck:
    """Student-side Pareto optimality on a balanced full-list market.

    A dominating allocation exists iff the directed graph where each
    student points to the holders of schools they strictly prefer has a
    cycle; rotating assignments along such a cycle strictly improves
    every member and leaves everyone else untouched, which also yields
    the witness.
    """
    if not market.has_full_lists:
        raise ValueError("requires full lists")
    if not market.is_balanced:
        raise ValueError("requires a balanced market")
    a = allocation.assignment_array
    if (a < 0).any():
        raise ValueError("requires a fully assigned allocation")
    n = market.n_students
    ranks = market.rank_table
    own = ranks[np.arange(n), a]
    # improves[t, t2]: t strictly prefers t2's school to their own.
    improves = ranks[:, a] < own[:, None]

    color = np.zeros(n, dtype=np.int8)  # 0 new, 1 on stack, 2 done
    for start in range(n):
        if color[start]:
            continue
        stack = [(start, iter(np.nonzero(improves[start])[0]))]
        color[start] = 1
        while stack:
            node, targets = stack[-1]
            for t2 in targets:
                t2 = int(t2)
                if color[t2] == 1:
                    path = [t for t, _ in stack]
                    cycle = path[path.index(t2):]
                    rotated = a.copy()
                    rotated[cycle] = a[np.roll(cycle, -1)]
                    return ParetoCheck(False, Allocation(rotated))
                if color[t2] == 0:
                    color[t2] = 1
                    stack.append((t2, iter(np.nonzero(improves[t2])[0])))
                    break
            else:
                color[node] = 2
                stack.pop()
    return ParetoCheck(True)


def threshold_shares(stats: RankStats, thresholds) -> list[float]:
    """For each cutoff m, the share of students with effective rank > m."""
    n = stats.n_students
    shares = []
    for m in thresholds:
        above = sum(c for r, c in stats.histogram.items() if r > m)
        shares.append(above / n if n else 0.0)
    return shares
