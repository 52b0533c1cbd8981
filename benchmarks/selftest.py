"""Self-test of the checks: each must accept a good allocation and reject
a known-bad one, so a check that always passes cannot hide a regression.

    python3 benchmarks/selftest.py

Every benchmark run also runs these cases and reports ``correct: false``
if one of them fails.
"""

from __future__ import annotations

import sys

import numpy as np

from checks import (
    CSV_FIELDS, Tables, envious_students, expected_rows, feasibility_problems,
    pareto_problems, rep_stats, row_problems,
)
from inputs import MarketArrays


def _market(capacities, prefs, priorities) -> Tables:
    return Tables(MarketArrays(
        np.asarray(capacities, dtype=np.int64),
        [np.asarray(p, dtype=np.int64) for p in prefs],
        [np.asarray(p, dtype=np.int64) for p in priorities],
    ))


def _alloc(*schools: int) -> np.ndarray:
    return np.asarray(schools, dtype=np.int64)


def _rank_sum_problems(tables: Tables, a: np.ndarray) -> list[str]:
    total = int(tables.effective(a).sum())
    return [] if total == tables.optimum else [f"rank sum {total} != {tables.optimum}"]


def _blocking(tables: Tables, a: np.ndarray) -> list[str]:
    return [f"envious {envious_students(tables, a).tolist()}"] if envious_students(tables, a).size else []


def _csv_problems(tables: Tables, a: np.ndarray, alter: bool) -> list[str]:
    cutoffs = [1.0, 2.0]
    want = expected_rows("X", tables.market.n, [rep_stats(tables, a, cutoffs)], cutoffs)
    got = [dict(zip(CSV_FIELDS, [format(v, ".10g") if isinstance(v, float) else str(v)
                                 for v in row])) for row in want]
    if alter:
        got[1]["share_gt_m"] = format(float(got[1]["share_gt_m"]) + 0.5, ".10g")
    return row_problems(got, want)


def cases():
    """(name, check, market, good allocation, bad allocation)."""
    # Both students like school 0 best; school 0 ranks student 0 first.
    same_taste = _market((1, 1), ((0, 1), (0, 1)), ((0, 1), (0, 1)))
    # Each student likes a different school best.
    split_taste = _market((1, 1), ((0, 1), (1, 0)), ((0, 1), (0, 1)))
    # School 0 has two seats; student 0 and student 2 each hold the
    # school the other prefers.
    two_seats = _market((2, 1), ((1, 0), (0, 1), (0, 1)), ((0, 1, 2), (0, 1, 2)))
    # Partial lists: student 0 ranks school 2 then 0; student 1 ranks only school 1.
    partial = _market((1, 1, 1), ((2, 0), (1,)), ((0, 1), (0, 1), (0, 1)))
    return [
        ("swapped pair creates a blocking pair", _blocking, same_taste,
         _alloc(0, 1), _alloc(1, 0)),
        ("feasible but non-optimal RM allocation", _rank_sum_problems, split_taste,
         _alloc(0, 1), _alloc(1, 0)),
        ("RM leaves a student unassigned for nothing", _rank_sum_problems, partial,
         _alloc(2, 1), _alloc(2, -1)),
        ("Pareto-dominated TTC allocation (unit seats)", pareto_problems, split_taste,
         _alloc(0, 1), _alloc(1, 0)),
        ("Pareto-dominated TTC allocation (two seats)", pareto_problems, two_seats,
         _alloc(1, 0, 0), _alloc(0, 0, 1)),
        ("preferred free seat left empty", pareto_problems, partial,
         _alloc(2, 1), _alloc(0, 1)),
        ("seat over capacity", feasibility_problems, same_taste,
         _alloc(0, 1), _alloc(0, 0)),
        ("school not on the student's list", feasibility_problems, partial,
         _alloc(2, 1), _alloc(1, -1)),
    ]


def run() -> list[str]:
    """The cases a check got wrong; empty when all pass."""
    failures = []
    for name, check, tables, good, bad in cases():
        if check(tables, good):
            failures.append(f"{name}: good allocation rejected: {check(tables, good)}")
        if not check(tables, bad):
            failures.append(f"{name}: bad allocation accepted")
    tables = cases()[0][2]
    if _csv_problems(tables, _alloc(0, 1), alter=False):
        failures.append("CSV recomputed from its own allocations rejected")
    if not _csv_problems(tables, _alloc(0, 1), alter=True):
        failures.append("CSV value that disagrees with the allocations accepted")
    return failures


if __name__ == "__main__":
    problems = run()
    for line in problems:
        print("FAIL", line)
    print("self-test", "failed" if problems else f"passed: {len(cases()) + 1} cases")
    sys.exit(1 if problems else 0)
