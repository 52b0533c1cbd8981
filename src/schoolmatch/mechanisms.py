"""The four assignment mechanisms.

Deferred acceptance and top trading cycles are deterministic functions
of the market; serial dictatorship and the rank-minimizing mechanism
consume a 64-bit seed (numpy PCG64) and are bit-reproducible for a
given (market, seed) pair.  All functions are pure: while
``_memoized_rm`` is active, as it is for one ``manipulate`` command,
``rank_minimizing`` hands back its earlier answer to a repeated
(market, seed) instead of solving it again.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from schoolmatch.assignment import min_cost_assignment
from schoolmatch.market import UNASSIGNED, Allocation, Market, _exact

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
    building ``rank_table`` has refused flawed lists and capacities."""
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
    return Allocation(assignment)


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
    return Allocation(assignment)


def serial_dictatorship(market: Market, order) -> Allocation:
    """Each student, in ``order``, takes their best school with a free seat.
    An entry that does not convert exactly to int64 raises ValueError."""
    order = _exact(np.asarray(order), np.int64, "order position", "student", lambda i: i).tolist()
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
    return Allocation(assignment)


def random_serial_dictatorship(market: Market, seed: int) -> Allocation:
    """Serial dictatorship under a uniformly random seeded picking order."""
    rng = np.random.default_rng(seed)
    return serial_dictatorship(market, rng.permutation(market.n_students))


def _shuffled_rank_costs(market: Market, seed: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """RM's cost table in ``rank_table``'s type, rows and seats shuffled by
    ``seed``: one column per seat class (a school, or "stay unassigned"),
    in the order the classes first appear among the shuffled seats; each
    class's seat count and school (UNASSIGNED for "stay unassigned"); the
    row permutation."""
    ranks, lengths = market.rank_table, market.list_lengths
    n, m = ranks.shape
    seats = np.repeat(np.arange(m), market.capacities)
    if not market.has_full_lists or market.total_seats < n:
        seats = np.concatenate([seats, np.full(n, UNASSIGNED)])
    rng = np.random.default_rng(seed)
    row_perm = rng.permutation(n)
    seats = seats[rng.permutation(len(seats))]
    # each class's buffer column, in the order of the classes' first seats
    classes = list(dict.fromkeys((seats + 1).tolist()))
    table = np.empty((n, len(classes)), ranks.dtype)
    buffer = np.empty((64, m + 1), ranks.dtype)  # column 0 holds k+1, column s+1 school s
    for i in range(0, n, 64):
        rows = row_perm[i : i + 64]
        block = buffer[: len(rows)]
        block[:, 0] = lengths[rows] + 1
        block[:, 1:] = ranks[rows]
        # every index is in range; "clip", unlike "raise", fills out unbuffered
        block.take(classes, axis=1, out=table[i : i + 64], mode="clip")
    return table, np.bincount(seats + 1, minlength=m + 1)[classes], np.array(classes) - 1, row_perm


#: (seed, digest of what RM reads) -> its allocation, inside ``_memoized_rm``.
_RM_MEMO: ContextVar[dict[tuple[int, bytes], Allocation] | None] = ContextVar(
    "schoolmatch_rm_memo", default=None)


@contextmanager
def _memoized_rm():
    """Within the block, ``rank_minimizing`` solves each (market, seed)
    once; the memo goes when the block ends, however it ends."""
    token = _RM_MEMO.set({})
    try:
        yield
    finally:
        _RM_MEMO.reset(token)


def rank_minimizing(market: Market, seed: int) -> Allocation:
    """An allocation minimizing the sum of effective ranks.

    Ranks are the only input: schools' priorities are never read.  Ties
    between rank-efficient allocations are randomized by applying a
    seeded permutation to students and seats before solving (this is a
    cheap reproducible randomization, not a uniform draw from the set
    of optima).  The total cost of the underlying matching equals the
    sum of effective ranks, including k+1 for each unassigned student.

    The solver reads one column of costs and a seat count per seat class
    (a school, or the n "stay unassigned" seats that a partial list or
    short supply adds), in the order the seat permutation first draws
    each, which its tie rule reads.  The table keeps ``rank_table``'s type
    on every market: no search reaches an unranked school's sentinel
    m + 2, as the stay class then always has a free seat and is cheaper
    in reduced cost through every row.  It is built 64 rows at a time
    through a small buffer, and no other copy is alive.  Inside
    ``_memoized_rm``, a repeated (market, seed) gets the allocation its
    first call solved.
    """
    memo = _RM_MEMO.get()
    if memo is not None:
        import hashlib  # only a memoized run pays for the import

        # every stored field RM reads: the lists' shape, type and bytes,
        # their lengths and the capacities
        prefs = market.pref_array
        digest = hashlib.sha256(repr((prefs.shape, prefs.dtype.str, market.capacities)).encode())
        digest.update(np.ascontiguousarray(prefs))
        digest.update(np.ascontiguousarray(market.list_lengths, dtype=np.int64))
        key = seed, digest.digest()
        if key in memo:
            return memo[key]
    table, capacities, schools, row_perm = _shuffled_rank_costs(market, seed)
    assignment = np.empty(market.n_students, dtype=np.int64)
    if market.n_students:  # the solver refuses an empty matrix
        assignment[row_perm] = schools[min_cost_assignment(table, capacities)]
    allocation = Allocation(assignment)
    if memo is not None:
        memo[key] = allocation
    return allocation


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
