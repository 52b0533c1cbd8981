"""Exact minimum-cost bipartite assignment.

The solver augments one row at a time along a shortest path in the
reduced-cost graph, maintaining dual potentials so edge weights stay
nonnegative (Jonker-Volgenant style successive shortest paths).  Worst
case O(rows * cols^2).  Rank costs are small integers, so many columns
tie at each distance.  A row whose nearest columns include a free one
takes the lowest-index such column without a search.  Otherwise the
Dijkstra search advances one tie layer at a time, scanning every column
of the layer and relaxing all their matched rows in one vectorized
step; scanned columns are marked NaN in the distance array, so every
comparison and ``np.fmin`` reduction skips them.  The search stops at
the first layer holding a free column and takes the lowest-index one.
Each column records only the layer that last shortened its distance;
predecessor rows are worked out for the columns on the augmenting path
alone, and the potentials are updated from the recorded layers.

Costs are nonnegative reals; ``inf`` marks a forbidden pairing (an
unranked school, when costs are preference ranks).  NaN and negative
entries, ``-inf`` included, are refused.  Integer costs are exact: every
intermediate quantity is an integer-valued float, and float64 holds
integers exactly up to 2**53, far beyond any rank sum a realistic
market can produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AssignmentResult",
    "InfeasibleAssignmentError",
    "min_cost_assignment",
]


class InfeasibleAssignmentError(ValueError):
    """No perfect row-matching with finite total cost exists."""


@dataclass(frozen=True)
class AssignmentResult:
    """A minimum-cost matching: column per row, and the cost it attains."""

    col_of_row: tuple[int, ...]
    total_cost: int | float


def min_cost_assignment(cost) -> AssignmentResult:
    """Exact minimum-cost matching of every row to a distinct column.

    Rows are matched one at a time.  A row whose cheapest reduced cost
    is attained by a free column takes the lowest-index such column.
    Otherwise a Dijkstra search from the row advances one layer at a
    time: every column at the current minimum distance is scanned at
    once, and the search stops at the first layer that holds a free
    column, taking the lowest-index one.  Identical inputs therefore
    give identical matchings.  The total cost is an int when every
    finite cost is integral, else a float.

    Raises ValueError for a matrix that is not 2-D and non-empty, has
    more rows than columns, or holds NaN or a negative entry, and
    InfeasibleAssignmentError when no matching has finite cost.
    """
    c = np.asarray(cost, dtype=np.float64, order="C")  # rows are gathered below
    if c.ndim != 2 or 0 in c.shape:
        raise ValueError(f"cost matrix must be 2-D and non-empty, got shape {c.shape}")
    n_rows, n_cols = c.shape
    if n_rows > n_cols:
        raise ValueError(f"more rows than columns: {n_rows} > {n_cols}")
    row_min = c.min(axis=1)  # NaN in a row holding NaN, inf in a row of infs
    lowest = row_min.min()
    if np.isnan(lowest):
        raise ValueError("cost matrix contains NaN")
    if lowest < 0:
        raise ValueError("cost matrix entries must be nonnegative")
    dead = row_min == np.inf
    if dead.any():
        raise InfeasibleAssignmentError(
            f"infeasible row {int(dead.argmax())}: all costs are infinite"
        )
    integral = bool((np.round(c) == c).all())  # inf rounds to itself

    v = np.zeros(n_cols)  # column potentials; row duals are recomputed on the fly
    row_of_col = np.full(n_cols, -1, dtype=np.int64)
    col_of_row = np.full(n_rows, -1, dtype=np.int64)
    free = np.ones(n_cols, dtype=bool)

    for cur_row in range(n_rows):
        # Dijkstra from cur_row over columns in the reduced-cost graph.
        shortest = c[cur_row] - v
        min_val = shortest.min()
        nearest = shortest == min_val
        j = int((nearest & free).argmax())
        if nearest[j] and free[j]:  # a free column is among the nearest: no search
            free[j] = False
            row_of_col[j] = cur_row
            col_of_row[cur_row] = j
            continue
        cols = np.flatnonzero(nearest)
        improved_at = np.full(n_cols, -1)  # layer that last shortened each column
        layers = []  # (columns, distance, rows reached, their duals) per layer
        while True:
            # Scan the whole tie layer: reduced costs are nonnegative, so
            # the order of columns at one distance does not matter.
            shortest[cols] = np.nan  # scanned: never relaxed or chosen again
            rows = row_of_col[cols]
            u = c[rows, cols] - v[cols]  # duals of the rows reached
            layers.append((cols, min_val, rows, u))
            # In place, but in the order (c[rows] - v - u) + min_val.
            if len(cols) == 1:
                reach = c[rows[0]] - v
                reach -= u[0]
            else:
                reach = c[rows]
                reach -= v
                reach -= u[:, None]
                reach = reach.min(axis=0)
            reach += min_val
            better = reach < shortest
            np.copyto(improved_at, len(layers) - 1, where=better)
            np.copyto(shortest, reach, where=better)
            min_val = np.fmin.reduce(shortest)
            if not np.isfinite(min_val):
                raise InfeasibleAssignmentError(
                    f"infeasible row {cur_row}: no augmenting path with finite cost"
                )
            cols = np.flatnonzero(shortest == min_val)
            sinks = free[cols]
            if sinks.any():
                break
        j = int(cols[sinks.argmax()])
        free[j] = False
        # Flip the path.  A column's predecessor is cur_row, or the row of
        # the layer that last shortened it with the least reduced cost to
        # it (the first among ties); v is unchanged since that layer, so
        # the numbers are the ones the layer compared.
        while True:
            layer = improved_at[j]
            if layer < 0:
                i = cur_row
            else:
                _, _, rows, u = layers[layer]
                i = int(rows[(c[rows, j] - v[j] - u).argmin()])
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == cur_row:
                break
        # Then update the potentials of the scanned columns.
        for scanned, dist, _, _ in layers:
            v[scanned] += dist - min_val

    total = c[np.arange(n_rows), col_of_row].sum()
    return AssignmentResult(tuple(col_of_row.tolist()), int(total) if integral else float(total))
