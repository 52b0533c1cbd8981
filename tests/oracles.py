"""Independent brute-force oracles used by the test suite.

Everything here works by enumeration straight from the definitions, or
by the plain tuple loops the array code replaced, and never calls the
code paths it is used to check.  ``random_market_lists`` draws the
inputs for the comparisons.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from schoolmatch.market import Allocation, Market


def all_full_allocations(market: Market):
    """Every allocation of all students to seats (balanced markets).

    Seats are expanded per capacity; duplicate school-level assignments
    arising from multiple seats of one school are deduplicated.
    """
    seats = []
    for s, cap in enumerate(market.capacities):
        seats.extend([s] * cap)
    seen = set()
    for perm in itertools.permutations(seats):
        if perm not in seen:
            seen.add(perm)
            yield Allocation(perm)


def ranks_by_definition(market: Market, allocation: Allocation) -> list[int]:
    out = []
    for t, s in enumerate(allocation.assignment):
        if s == -1:
            out.append(len(market.prefs[t]) + 1)
        else:
            out.append(market.prefs[t].index(s) + 1)
    return out


def dominates(market: Market, x: Allocation, y: Allocation) -> bool:
    """x Pareto dominates y: nobody worse off, someone strictly better."""
    rx = ranks_by_definition(market, x)
    ry = ranks_by_definition(market, y)
    return all(a <= b for a, b in zip(rx, ry)) and any(a < b for a, b in zip(rx, ry))


def pareto_optimal_by_enumeration(market: Market, allocation: Allocation) -> bool:
    return not any(dominates(market, x, allocation) for x in all_full_allocations(market))


def envious_by_definition(market: Market, allocation: Allocation) -> set[int]:
    """Direct double loop over the two envy conditions."""
    out = set()
    assignment = allocation.assignment
    for t in range(market.n_students):
        own = assignment[t]
        own_rank = (
            market.prefs[t].index(own) if own >= 0 else len(market.prefs[t])
        )
        for s in range(market.n_schools):
            if s not in market.prefs[t] or market.prefs[t].index(s) >= own_rank:
                continue
            if t not in market.priorities[s]:
                continue
            admitted = [t2 for t2, s2 in enumerate(assignment) if s2 == s]
            if len(admitted) < market.capacities[s]:
                out.add(t)
                break
            t_pos = market.priorities[s].index(t)
            if any(market.priorities[s].index(t2) > t_pos for t2 in admitted):
                out.add(t)
                break
    return out


def stable_matchings(market: Market):
    """All stable perfect matchings of a full-list unit-capacity market."""
    out = []
    for alloc in all_full_allocations(market):
        if not envious_by_definition(market, alloc):
            out.append(alloc)
    return out


def rsd_no_envy_closed_form(n: int) -> float:
    """Reduced form of the no-envy fraction, derived independently:
    (n+1)/n * sum_j 2^(1-j) (1/j - 1/(j+1)); exact rationals."""
    s = sum(
        Fraction(1, 2 ** (j - 1)) * (Fraction(1, j) - Fraction(1, j + 1))
        for j in range(1, n + 1)
    )
    return float(Fraction(n + 1, n) * s)


def min_cost_by_scan(cost) -> int | float:
    """Minimum assignment cost by raw permutation scan (no numpy tricks)."""
    c = np.asarray(cost, dtype=float)
    nr, nc = c.shape
    best = np.inf
    for perm in itertools.permutations(range(nc), nr):
        total = sum(c[i, j] for i, j in enumerate(perm))
        best = min(best, total)
    return best


def random_market_lists(rng, max_students: int = 12, max_schools: int = 8):
    """(capacities, prefs, priorities) as nested lists: sizes drawn
    independently (so over- and undersupplied markets), capacities 1-3,
    and full, partial or empty preference and priority lists."""
    n = int(rng.integers(1, max_students + 1))
    m = int(rng.integers(1, max_schools + 1))

    def lists(count, ids):
        # a third of the lists are full; the rest any length, empty included
        return [
            rng.permutation(ids)[: ids if rng.random() < 1 / 3 else int(rng.integers(0, ids + 1))]
            .tolist()
            for _ in range(count)
        ]

    return rng.integers(1, 4, size=m).tolist(), lists(n, m), lists(m, n)


def position_table_by_definition(lists, width: int) -> np.ndarray:
    """Cell by cell from tuple lists: 1-based position of each id in its
    row's list, width + 2 where the list leaves it out."""
    table = np.full((len(lists), width), width + 2, dtype=np.int64)
    for row, ids in enumerate(lists):
        for k, x in enumerate(ids):
            table[row, x] = k + 1
    return table


def validate_market_by_loops(market: Market) -> list[str]:
    """validate_market as the loops over tuple lists it replaced."""
    n, m = market.n_students, market.n_schools
    problems: list[str] = []
    for s, cap in enumerate(market.capacities):
        if cap < 1:
            problems.append(f"school {s}: capacity must be at least 1, got {cap}")
    for t, plist in enumerate(market.prefs):
        seen: set[int] = set()
        for s in plist:
            if not 0 <= s < m:
                problems.append(f"student {t}: unknown school id {s}")
            elif s in seen:
                problems.append(f"student {t}: duplicate school {s} in preference list")
            seen.add(s)
    if len(market.priorities) != m:
        problems.append(f"priorities cover {len(market.priorities)} schools, expected {m}")
    for s, plist in enumerate(market.priorities):
        seen = set()
        for t in plist:
            if not 0 <= t < n:
                problems.append(f"school {s}: unknown student id {t}")
            elif t in seen:
                problems.append(f"school {s}: duplicate student {t} in priority list")
            seen.add(t)
    if len(market.student_ids) != n:
        problems.append("student_ids length does not match number of students")
    elif any(a >= b for a, b in zip(market.student_ids, market.student_ids[1:])):
        problems.append("student_ids must be strictly increasing")
    if len(market.school_ids) != m:
        problems.append("school_ids length does not match number of schools")
    elif any(a >= b for a, b in zip(market.school_ids, market.school_ids[1:])):
        problems.append("school_ids must be strictly increasing")
    return problems


def manipulated_prefs_by_tuples(market: Market, baseline: Allocation, kind: str,
                                share: float, seed: int) -> tuple[tuple[int, ...], ...]:
    """The preference lists apply_manipulation returns, computed the way
    its tuple-based version did: a scan of the lists for eligibility, the
    same draw over the eligible in ascending order, and tuple rewrites."""
    eligible = []
    for t, s in enumerate(baseline.assignment):
        plist = market.prefs[t]
        realized = plist.index(s) + 1 if s >= 0 else len(plist) + 1
        if not (s >= 0 and realized <= (1 if kind == "drop_assigned" else 2)):
            eligible.append(t)
    count = int(math.floor(share * len(eligible) + 0.5))
    if count == 0:
        return market.prefs
    rng = np.random.default_rng(seed)
    chosen = set(int(i) for i in rng.choice(len(eligible), size=count, replace=False))
    new_prefs = list(market.prefs)
    for idx in chosen:
        t = eligible[idx]
        plist = market.prefs[t]
        if kind == "drop_assigned":
            s = baseline.assignment[t]
            if s >= 0:
                new_prefs[t] = tuple(x for x in plist if x != s) + (s,)
        else:
            new_prefs[t] = plist[1:] + plist[:1]
    return tuple(new_prefs)
