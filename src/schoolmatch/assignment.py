"""Exact minimum-cost bipartite assignment.

The solver augments one row at a time along a shortest path in the
reduced-cost graph, maintaining dual potentials so edge weights stay
nonnegative (Jonker-Volgenant style successive shortest paths).  Worst
case O(rows * cols^2).  Rank costs are small integers, so many columns
tie at each distance.  The Dijkstra search from a row advances one tie
layer at a time, scanning every column of the layer and relaxing their
matched rows 64 at a time into a running minimum, so a layer's
temporary is at most 64 rows of the live columns however wide the layer
is.  Scanned columns are marked NaN in the distance array, so every
comparison and ``np.fmin`` reduction skips them and ``np.minimum``
keeps them marked.  The search stops at the first layer holding a free
column and takes the lowest-index one; a row whose nearest columns
include a free one is matched before any layer is scanned.

No predecessor is recorded during the search.  Each layer keeps the
distances it reached, and the augmenting path is traced back from them
for its few columns alone: a column's predecessor layer is the last one
that strictly shortened it, the first minimum of its distance from the
row and its reach in each layer before the one that scanned it.  Within
that layer the row with the least reduced cost to the column, the first
among ties, is the predecessor.  The potentials are then updated from
the stored layers.

Many columns may be copies of one another: RM gives every seat of a
school, and every "stay unassigned" seat, the same column of costs.
``columns`` names, for each column solved over, the column of ``cost``
it copies, so the matrix of copies is never built.  The result is that
of the matrix of copies, exactly.  The search never scans a free column,
so a free column's potential stays 0, and all free copies of one column
have equal distances throughout every search; the sink is the
lowest-index free column at the least distance, so only a class's
lowest-index free copy can become it.  The solver therefore holds every
matched copy and one free copy per class, the lowest-index one, and
adds the class's next copy when that one is matched.  Ties are broken
by original column index: at the sink, and among a layer's rows in the
path trace.  Each matched column keeps its row's cost, so a layer's
duals are read without a 2-D gather.

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


def min_cost_assignment(cost, columns=None) -> AssignmentResult:
    """Exact minimum-cost matching of every row to a distinct column.

    ``columns`` lists, for each column of the matrix solved over, the
    column of ``cost`` it copies: the result is exactly that of
    ``min_cost_assignment(cost[:, columns])``, matching, total and
    refusals alike, without building that matrix.  ``None`` means every
    column of ``cost`` once, in order.  A column of ``cost`` that
    ``columns`` leaves out is neither checked nor solved over, and an
    entry that is not an index of one raises ValueError.

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
    if c.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D and non-empty, got shape {c.shape}")
    index = np.arange(c.shape[1]) if columns is None else np.asarray(columns)
    if index.ndim != 1 or index.size and (
            index.dtype.kind not in "iu" or index.min() < 0 or index.max() >= c.shape[1]):
        raise ValueError(f"columns must be a list of column indices below {c.shape[1]}")
    n_rows, n_cols = c.shape[0], index.size
    if 0 in (n_rows, n_cols):
        raise ValueError(f"cost matrix must be 2-D and non-empty, got shape {(n_rows, n_cols)}")
    if n_rows > n_cols:
        raise ValueError(f"more rows than columns: {n_rows} > {n_cols}")
    copies = [[] for _ in range(c.shape[1])]  # each class's copies, in column order
    for position, k in enumerate(index.tolist()):
        copies[k].append(position)
    if not all(copies):
        c = c[:, [bool(cp) for cp in copies]]
        copies = [cp for cp in copies if cp]
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

    # Slot k holds class k's first copy; a class's next copy takes the
    # next unused slot when the one before it is matched.
    n_classes = c.shape[1]
    n_slots = min(n_cols, n_classes + n_rows)
    later = [iter(cp) for cp in copies]  # each class's copies not yet in a slot
    column = np.empty(n_slots, dtype=np.int64)  # the column each slot stands for
    column[:n_classes] = [next(copy) for copy in later]
    cls = np.empty(n_slots, dtype=np.intp)  # and its class
    cls[:n_classes] = np.arange(n_classes)
    n_live = n_classes
    # while slots are in column order, the first slot is the first column
    ordered = bool((column[1:n_classes] > column[: n_classes - 1]).all())
    v = np.zeros(n_slots)  # column potentials; row duals are recomputed on the fly
    held = np.zeros(n_slots)  # the matched row's cost, so duals need no 2-D gather
    row_of_col = np.full(n_slots, -1, dtype=np.int64)
    col_of_row = np.full(n_rows, -1, dtype=np.int64)
    free = np.ones(n_slots, dtype=bool)

    def live(costs):  # costs over classes as costs over the live slots
        return costs.take(cls[:n_live], axis=-1) if n_live > n_classes else costs

    live_v, live_free = v[:n_live], free[:n_live]
    for cur_row in range(n_rows):
        # Dijkstra from cur_row over columns in the reduced-cost graph.
        shortest = live(c[cur_row]) - live_v
        layers = []  # (columns, distance, rows reached, their duals) per layer
        reached = []  # the distances each layer reached, for tracing the path back
        while True:
            min_val = np.fmin.reduce(shortest)
            if not min_val < np.inf:
                raise InfeasibleAssignmentError(
                    f"infeasible row {cur_row}: no augmenting path with finite cost"
                )
            nearest = shortest == min_val
            sink = nearest & live_free
            j = int(sink.argmax())
            if sink[j]:
                if not ordered:  # the lowest-index free column, not the lowest slot
                    sinks = sink.nonzero()[0]
                    j = int(sinks[column[sinks].argmin()])
                break
            # Scan the whole tie layer: reduced costs are nonnegative, so
            # the order of columns at one distance does not matter.  In
            # place, but in the order (c[rows] - v - u) + min_val.
            cols = nearest.nonzero()[0]
            if len(cols) == 1:  # scalar indexing: the same operations, fewer calls
                cols = int(cols[0])
                rows = int(row_of_col[cols])
                u = held[cols] - v[cols]  # the dual of the row reached
                reach = live(c[rows]) - live_v
                reach -= u
            else:  # 64 rows at a time into a running minimum
                rows = row_of_col[cols]
                u = held[cols] - v[cols]  # duals of the rows reached
                reach = None
                for i in range(0, rows.size, 64):
                    block = live(c.take(rows[i : i + 64], axis=0))
                    block -= live_v
                    block -= u[i : i + 64, None]
                    least = block.min(axis=0)
                    del block  # so that two blocks are never alive at once
                    reach = least if reach is None else np.minimum(reach, least, out=reach)
            reach += min_val
            shortest[cols] = np.nan  # scanned: never relaxed or chosen again
            np.minimum(shortest, reach, out=shortest)  # NaN propagates
            layers.append((cols, min_val, rows, u))
            reached.append(reach)
        free[j] = False
        copy = next(later[cls[j]], None) if n_live < n_slots else None
        if copy is not None:  # the class's next copy is now its free one
            column[n_live], cls[n_live] = copy, cls[j]
            ordered &= copy > column[n_live - 1]
            n_live += 1
            live_v, live_free = v[:n_live], free[:n_live]
        # Flip the path.  A column's predecessor is cur_row, or a row of the
        # last layer that strictly shortened it: the first minimum of its
        # distance from cur_row and its reach in each layer before the one
        # that scanned it (every layer, for the sink), which is the
        # predecessor layer of the column before it on the path.  v is
        # unchanged since the search, so these are the numbers it compared.
        scanned_by = len(layers)
        while True:
            k = cls[j]
            layer, best = -1, c[cur_row, k] - v[j]
            for scan in range(scanned_by):
                reach = reached[scan][j]
                if reach < best:
                    layer, best = scan, reach
            if layer < 0:
                i = cur_row
            else:
                cols, _, rows, u = layers[layer]
                if isinstance(rows, int):  # a one-row layer
                    i = rows
                else:  # the least reduced cost, first by column among ties
                    d = c[rows, k] - v[j] - u
                    if ordered:
                        i = int(rows[d.argmin()])
                    else:
                        ties = (d == d.min()).nonzero()[0]
                        i = int(rows[ties[column[cols[ties]].argmin()]])
            row_of_col[j], held[j] = i, c[i, k]
            col_of_row[i], j = j, col_of_row[i]
            if i == cur_row:
                break
            scanned_by = layer
        # Then update the potentials of the scanned columns.
        for scanned, dist, _, _ in layers:
            v[scanned] += dist - min_val

    total = held[col_of_row].sum()
    return AssignmentResult(tuple(column[col_of_row].tolist()),
                            int(total) if integral else float(total))
