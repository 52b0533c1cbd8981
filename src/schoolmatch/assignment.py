"""Exact minimum-cost bipartite assignment.

The solver augments one row at a time along a shortest path in the
reduced-cost graph, maintaining dual potentials so edge weights stay
nonnegative (Jonker-Volgenant style successive shortest paths).  Worst
case O(rows * cols^2).  Rank costs are small integers, so many columns
tie at each distance; the Dijkstra search therefore advances one tie
layer at a time, scanning every column of the layer and relaxing all
their matched rows in one vectorized step.  The search stops at the
first layer holding a free column and takes the lowest-index one.

Costs are nonnegative reals; ``inf`` marks a forbidden pairing (an
unranked school, when costs are preference ranks).  Integer costs are
exact: every intermediate quantity is an integer-valued float, and
float64 holds integers exactly up to 2**53, far beyond any rank sum a
realistic market can produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

__all__ = [
    "AssignmentResult",
    "InfeasibleAssignmentError",
    "min_cost_assignment",
    "brute_force_assignment",
]

_BRUTE_FORCE_MAX_ROWS = 8
_BRUTE_FORCE_MAX_PERMS = 5_000_000


class InfeasibleAssignmentError(ValueError):
    """No perfect row-matching with finite total cost exists."""


@lru_cache(maxsize=64)
def _injections(n_cols: int, n_rows: int) -> np.ndarray:
    """All injections of rows into columns, lexicographic, one per row."""
    perms = np.fromiter(
        (j for p in permutations(range(n_cols), n_rows) for j in p),
        dtype=np.int64,
    ).reshape(-1, n_rows)
    perms.setflags(write=False)
    return perms


@dataclass(frozen=True)
class AssignmentResult:
    """A minimum-cost matching: column per row, and the cost it attains."""

    col_of_row: tuple[int, ...]
    total_cost: int | float


def _as_cost_matrix(cost) -> np.ndarray:
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or 0 in c.shape:
        raise ValueError(f"cost matrix must be 2-D and non-empty, got shape {c.shape}")
    if c.shape[0] > c.shape[1]:
        raise ValueError(f"more rows than columns: {c.shape[0]} > {c.shape[1]}")
    if np.isnan(c).any():
        raise ValueError("cost matrix contains NaN")
    if (c[np.isfinite(c)] < 0).any():
        raise ValueError("cost matrix entries must be nonnegative")
    return c


def _result(c: np.ndarray, col_of_row: np.ndarray) -> AssignmentResult:
    matched = c[np.arange(len(col_of_row)), col_of_row]
    total = matched.sum()
    finite = c[np.isfinite(c)]
    if finite.size and np.all(finite == np.round(finite)):
        total = int(total)
    else:
        total = float(total)
    return AssignmentResult(tuple(int(j) for j in col_of_row), total)


def min_cost_assignment(cost) -> AssignmentResult:
    """Exact minimum-cost matching of every row to a distinct column.

    Rows are matched one at a time.  A row whose cheapest reduced cost
    is attained by a free column takes the lowest-index such column.
    Otherwise a Dijkstra search from the row advances one layer at a
    time: every column at the current minimum distance is scanned at
    once, and the search stops at the first layer that holds a free
    column, taking the lowest-index one.  Identical inputs therefore
    give identical matchings.
    """
    c = _as_cost_matrix(cost)
    n_rows, n_cols = c.shape
    dead = ~np.isfinite(c).any(axis=1)
    if dead.any():
        raise InfeasibleAssignmentError(
            f"infeasible row {int(dead.argmax())}: all costs are infinite"
        )

    v = np.zeros(n_cols)  # column potentials; row duals are recomputed on the fly
    row_of_col = np.full(n_cols, -1, dtype=np.int64)
    col_of_row = np.full(n_rows, -1, dtype=np.int64)
    free = np.ones(n_cols, dtype=bool)

    for cur_row in range(n_rows):
        # Dijkstra from cur_row over columns in the reduced-cost graph.
        # When a free column is among the nearest, no column is scanned.
        shortest = c[cur_row] - v
        pred_row = np.full(n_cols, cur_row, dtype=np.int64)
        done = np.zeros(n_cols, dtype=bool)
        min_val = shortest.min()
        layer = shortest == min_val
        sinks = layer & free
        while not sinks.any():
            # Scan the whole tie layer: reduced costs are nonnegative, so
            # the order of columns at one distance does not matter.
            done |= layer
            cols = np.flatnonzero(layer)
            rows = row_of_col[cols]
            u = c[rows, cols] - v[cols]  # duals of the rows reached
            d = c[rows] - v - u[:, None]
            reach = d.min(axis=0) + min_val
            better = (reach < shortest) & ~done
            shortest[better] = reach[better]
            pred_row[better] = rows[d[:, better].argmin(axis=0)]
            min_val = np.where(done, np.inf, shortest).min()
            if not np.isfinite(min_val):
                raise InfeasibleAssignmentError(
                    f"infeasible row {cur_row}: no augmenting path with finite cost"
                )
            layer = (shortest == min_val) & ~done
            sinks = layer & free
        j = int(sinks.argmax())
        free[j] = False
        # Update potentials of scanned columns, then flip the path.
        v[done] += shortest[done] - min_val
        while True:
            i = int(pred_row[j])
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == cur_row:
                break

    return _result(c, col_of_row)


def brute_force_assignment(cost) -> AssignmentResult:
    """Exhaustive minimum over all row-to-column injections (test oracle).

    Guard: at most 8 rows (factorial enumeration).  Deterministic: the
    lexicographically first optimal injection wins.
    """
    c = _as_cost_matrix(cost)
    n_rows, n_cols = c.shape
    if n_rows > _BRUTE_FORCE_MAX_ROWS:
        raise ValueError(
            f"brute force limited to {_BRUTE_FORCE_MAX_ROWS} rows, got {n_rows}"
        )
    if math.perm(n_cols, n_rows) > _BRUTE_FORCE_MAX_PERMS:
        raise ValueError(
            f"brute force would enumerate {math.perm(n_cols, n_rows)} injections"
        )
    perms = _injections(n_cols, n_rows)
    totals = c[np.arange(n_rows)[None, :], perms].sum(axis=1)
    best = int(np.argmin(totals))
    if not np.isfinite(totals[best]):
        for i in range(n_rows):
            if not np.isfinite(c[i]).any():
                raise InfeasibleAssignmentError(
                    f"infeasible row {i}: all costs are infinite"
                )
        raise InfeasibleAssignmentError("no injection with finite total cost")
    return _result(c, perms[best])
