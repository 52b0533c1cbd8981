"""Exact minimum-cost bipartite assignment.

The solver augments one row at a time along a shortest path in the
reduced-cost graph, maintaining dual potentials so edge weights stay
nonnegative (Jonker-Volgenant style successive shortest paths).  Worst
case O(rows * cols^2).  Rank costs are small integers, so many columns
tie at each distance.  The Dijkstra search from a row advances one tie
layer at a time, scanning every column of the layer and relaxing all
their matched rows in one vectorized step; scanned columns are marked
NaN in the distance array, so every comparison and ``np.fmin``
reduction skips them and ``np.minimum`` keeps them marked.  The search
stops at the first layer holding a free column and takes the
lowest-index one; a row whose nearest columns include a free one is
matched before any layer is scanned.

No predecessor is recorded during the search.  Each layer keeps the
distances it reached, and the augmenting path is traced back from them
for its few columns alone: a column's predecessor layer is the last one
that strictly shortened it, the first minimum of its distance from the
row and its reach in each layer before the one that scanned it.  Within
that layer the row with the least reduced cost to the column, the first
among ties, is the predecessor.  The potentials are then updated from
the stored layers.

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
    # 64 rows at a time, stopping at the first fraction; inf rounds to itself
    blocks = (c[i : i + 64] for i in range(0, n_rows, 64))
    integral = all((np.round(block) == block).all() for block in blocks)

    v = np.zeros(n_cols)  # column potentials; row duals are recomputed on the fly
    row_of_col = np.full(n_cols, -1, dtype=np.int64)
    col_of_row = np.full(n_rows, -1, dtype=np.int64)
    free = np.ones(n_cols, dtype=bool)

    for cur_row in range(n_rows):
        # Dijkstra from cur_row over columns in the reduced-cost graph.
        shortest = c[cur_row] - v
        layers = []  # (columns, distance, rows reached, their duals) per layer
        reached = []  # the distances each layer reached, for tracing the path back
        while True:
            min_val = np.fmin.reduce(shortest)
            if not min_val < np.inf:
                raise InfeasibleAssignmentError(
                    f"infeasible row {cur_row}: no augmenting path with finite cost"
                )
            nearest = shortest == min_val
            sink = nearest & free
            j = int(sink.argmax())  # the lowest-index free column at min_val
            if sink[j]:
                break
            # Scan the whole tie layer: reduced costs are nonnegative, so
            # the order of columns at one distance does not matter.  In
            # place, but in the order (c[rows] - v - u) + min_val.
            cols = nearest.nonzero()[0]
            if len(cols) == 1:  # scalar indexing: the same operations, fewer calls
                cols = int(cols[0])
                rows = int(row_of_col[cols])
                u = c[rows, cols] - v[cols]  # the dual of the row reached
                reach = c[rows] - v
                reach -= u
            else:
                rows = row_of_col[cols]
                u = c[rows, cols] - v[cols]  # duals of the rows reached
                reach = c.take(rows, axis=0)
                reach -= v
                reach -= u[:, None]
                reach = reach.min(axis=0)
            reach += min_val
            shortest[cols] = np.nan  # scanned: never relaxed or chosen again
            np.minimum(shortest, reach, out=shortest)  # NaN propagates
            layers.append((cols, min_val, rows, u))
            reached.append(reach)
        free[j] = False
        # Flip the path.  A column's predecessor is cur_row, or a row of the
        # last layer that strictly shortened it: the first minimum of its
        # distance from cur_row and its reach in each layer before the one
        # that scanned it (every layer, for the sink), which is the
        # predecessor layer of the column before it on the path.  v is
        # unchanged since the search, so these are the numbers it compared.
        scanned_by = len(layers)
        while True:
            layer, best = -1, c[cur_row, j] - v[j]
            for k in range(scanned_by):
                reach = reached[k][j]
                if reach < best:
                    layer, best = k, reach
            if layer < 0:
                i = cur_row
            else:
                _, _, rows, u = layers[layer]
                if isinstance(rows, int):  # a one-row layer
                    i = rows
                else:
                    i = int(rows[(c[rows, j] - v[j] - u).argmin()])
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == cur_row:
                break
            scanned_by = layer
        # Then update the potentials of the scanned columns.
        for scanned, dist, _, _ in layers:
            v[scanned] += dist - min_val

    total = c[np.arange(n_rows), col_of_row].sum()
    return AssignmentResult(tuple(col_of_row.tolist()), int(total) if integral else float(total))
