"""The four assignment mechanisms.

Deferred acceptance and top trading cycles are deterministic functions
of the market; serial dictatorship and the rank-minimizing mechanism
consume a 64-bit seed (numpy PCG64) and are bit-reproducible for a
given (market, seed) pair.  All functions are pure.
"""

from __future__ import annotations

import heapq

import numpy as np

from schoolmatch.assignment import min_cost_assignment
from schoolmatch.market import UNASSIGNED, Allocation, Market

__all__ = [
    "MECHANISMS",
    "deferred_acceptance",
    "top_trading_cycles",
    "serial_dictatorship",
    "random_serial_dictatorship",
    "rank_minimizing",
    "run_mechanism",
]


def _checked_prefs(market: Market) -> tuple[memoryview, list[int]]:
    """Preferences as [student, k] -> school and the list lengths, once
    building ``rank_table`` has refused any school id out of range."""
    market.rank_table
    return memoryview(market.pref_array), market.list_lengths.tolist()


def deferred_acceptance(market: Market) -> Allocation:
    """Student-proposing deferred acceptance.

    Students propose down their lists; each school keeps a waiting list
    of its best applicants up to capacity and permanently rejects the
    rest.  Applicants a school does not rank are rejected outright.
    Students rejected everywhere end up unassigned.  The outcome is the
    student-optimal stable allocation and does not depend on proposal
    order.
    """
    n = market.n_students
    prefs, lengths = _checked_prefs(market)
    prio_pos = memoryview(market.priority_table)  # n + 2 for unranked students
    caps = market.capacities
    next_choice = [0] * n
    # Per school: heap of (-priority position, student); worst held on top.
    held: list[list[tuple[int, int]]] = [[] for _ in range(market.n_schools)]
    pending = list(range(n - 1, -1, -1))
    while pending:
        t = pending.pop()
        while next_choice[t] < lengths[t]:
            s = prefs[t, next_choice[t]]
            next_choice[t] += 1
            pos = prio_pos[s, t]
            if pos > n:
                continue  # unranked applicant: rejected outright
            if len(held[s]) < caps[s]:
                heapq.heappush(held[s], (-pos, t))
                break
            if not held[s]:
                continue  # a school with no seats rejects every applicant
            neg_worst, worst_t = held[s][0]
            if pos < -neg_worst:
                heapq.heapreplace(held[s], (-pos, t))
                pending.append(worst_t)
                break
    assignment = [UNASSIGNED] * n
    for s, waiting in enumerate(held):
        for _, t in waiting:
            assignment[t] = s
    return Allocation(tuple(assignment))


def top_trading_cycles(market: Market) -> Allocation:
    """Top trading cycles with capacity counters.

    Each remaining student points to their best school that still has a
    seat and ranks them; each school points to its highest-priority
    remaining student, serving seats one at a time until its counter
    hits zero.  Cycles always exist and never overlap; students in a
    selected cycle get the school they point to.  A student whose
    acceptable options are exhausted leaves unassigned.  On balanced
    full-list markets this is the textbook algorithm and assigns
    everyone.
    """
    n = market.n_students
    prefs, lengths = _checked_prefs(market)
    prio_pos = memoryview(market.priority_table)  # n + 2 for unranked students
    prio_list = memoryview(market.priority_array)
    seats = list(market.capacities)
    student_ptr = [0] * n
    school_ptr = [0] * market.n_schools
    removed = [False] * n
    assignment = [UNASSIGNED] * n

    def student_target(t: int) -> int:
        # Seats only shrink and acceptability never changes, so skipped
        # options are dead for good and the pointer may move permanently.
        while student_ptr[t] < lengths[t]:
            s = prefs[t, student_ptr[t]]
            if seats[s] > 0 and prio_pos[s, t] <= n:
                return s
            student_ptr[t] += 1
        return UNASSIGNED

    def school_target(s: int) -> int:
        while removed[prio_list[s, school_ptr[s]]]:
            school_ptr[s] += 1
        return prio_list[s, school_ptr[s]]

    cursor = 0
    left = n
    while left:
        while removed[cursor]:
            cursor += 1
        walk_pos: dict[int, int] = {}
        chain: list[tuple[int, int]] = []  # (student, school pointed to)
        t = cursor
        while True:
            s = student_target(t)
            if s == UNASSIGNED:
                removed[t] = True
                left -= 1
                break
            # s has a seat and ranks t, so its pointer always lands.
            walk_pos[t] = len(chain)
            chain.append((t, s))
            t = school_target(s)
            if t in walk_pos:
                for ct, cs in chain[walk_pos[t]:]:
                    assignment[ct] = cs
                    seats[cs] -= 1
                    removed[ct] = True
                    left -= 1
                break
    return Allocation(tuple(assignment))


def serial_dictatorship(market: Market, order) -> Allocation:
    """Each student, in ``order``, takes their best school with a free seat."""
    order = [int(t) for t in order]
    if sorted(order) != list(range(market.n_students)):
        raise ValueError("order must be a permutation of all students")
    prefs, lengths = _checked_prefs(market)
    seats = list(market.capacities)
    assignment = [UNASSIGNED] * market.n_students
    for t in order:
        for k in range(lengths[t]):
            s = prefs[t, k]
            if seats[s] > 0:
                assignment[t] = s
                seats[s] -= 1
                break
    return Allocation(tuple(assignment))


def random_serial_dictatorship(market: Market, seed: int) -> Allocation:
    """Serial dictatorship under a uniformly random seeded picking order."""
    rng = np.random.default_rng(seed)
    return serial_dictatorship(market, rng.permutation(market.n_students))


def _rank_cost_matrix(market: Market) -> tuple[np.ndarray, np.ndarray]:
    """Effective-rank cost matrix over unit seats.

    Columns are school seats (capacity expansion); when some list is
    partial or seats cannot cover everyone, one "stay unassigned" column
    per student is appended, costing k+1 for a student ranking k schools.
    Unranked schools cost inf.  Column j of the result maps to school
    ``columns[j]`` (UNASSIGNED for the extra columns).
    """
    n = market.n_students
    ranks = market.rank_table.astype(np.float64)
    ranks[ranks > market.list_lengths[:, None]] = np.inf
    columns = np.repeat(np.arange(market.n_schools), market.capacities)
    cost = ranks[:, columns]
    if not market.has_full_lists or market.total_seats < n:
        unassigned_cost = np.repeat((market.list_lengths + 1.0)[:, None], n, axis=1)
        cost = np.hstack([cost, unassigned_cost])
        columns = np.concatenate([columns, np.full(n, UNASSIGNED)])
    return cost, columns


def rank_minimizing(market: Market, seed: int) -> Allocation:
    """An allocation minimizing the sum of effective ranks.

    Ranks are the only input: schools' priorities are never read.  Ties
    between rank-efficient allocations are randomized by applying a
    seeded permutation to students and seats before solving (this is a
    cheap reproducible randomization, not a uniform draw from the set
    of optima).  The total cost of the underlying matching equals the
    sum of effective ranks, including k+1 for each unassigned student.
    """
    cost, columns = _rank_cost_matrix(market)
    rng = np.random.default_rng(seed)
    row_perm = rng.permutation(cost.shape[0])
    col_perm = rng.permutation(cost.shape[1])
    result = min_cost_assignment(cost[np.ix_(row_perm, col_perm)])
    assignment = np.empty(market.n_students, dtype=np.int64)
    assignment[row_perm] = columns[col_perm[list(result.col_of_row)]]
    return Allocation(tuple(assignment.tolist()))


#: Mechanism name -> callable(market, seed).  DA and TTC ignore the seed.
MECHANISMS = {
    "DA": lambda market, seed: deferred_acceptance(market),
    "TTC": lambda market, seed: top_trading_cycles(market),
    "RSD": random_serial_dictatorship,
    "RM": rank_minimizing,
}


def run_mechanism(name: str, market: Market, seed: int = 0) -> Allocation:
    """Dispatch by mechanism name (DA, TTC, RSD or RM)."""
    try:
        mech = MECHANISMS[name]
    except KeyError:
        raise ValueError(f"unknown mechanism {name!r}; choose from {sorted(MECHANISMS)}") from None
    return mech(market, seed)
