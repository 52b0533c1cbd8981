"""Exact minimum-cost bipartite assignment over classes of equal columns.

Each column solved over copies a column of the cost table, its class:
RM gives every seat of a school, and every "stay unassigned" seat, one
class.  The solver augments one row at a time along a shortest path in
the reduced-cost graph of the matrix of copies, keeping dual potentials
so that edge weights stay nonnegative (successive shortest paths,
Jonker-Volgenant style), yet it holds one distance, one potential and
one layer entry per class, not per copy.

Invariant: the copies of a class share one potential, and its matched
copies are its lowest-index ones.  Sketch, by induction over the rows:
a free copy is never scanned, for it would be the sink, so its
potential stays 0.  While a class has a free copy, its matched copies
have potential 0 too and tie with it at every distance, so the search
stops there before scanning them; the sink, the lowest-index free
column at the least distance, is some class's lowest-index free copy,
and a copy once matched stays matched.  Once a class is full, its
copies share every distance, are scanned in one layer and move their
potentials together.  So a search over classes makes exactly the
augmentations of a search over copies: the sink is the class, among
those at the least distance with a free copy, whose free copy has the
lowest column, and scanning a class relaxes the rows of all its copies.

The Dijkstra search advances one tie layer at a time (rank costs are
small integers, so many classes tie).  It scans every class of the
layer, relaxing their rows 64 at a time into a running minimum, and
marks them NaN, so every comparison and ``np.fmin`` skips them and
``np.minimum`` keeps them marked: each search relaxes a matched row at
most once, O(rows^2 * classes) in all.  No predecessor is recorded:
each layer keeps the distances it reached.  A class's predecessor layer
is the last one that strictly shortened it, and there the row of least
reduced cost, the first by column among ties, is the predecessor.  Each
matched copy keeps its row's cost, so a layer's duals need no 2-D
gather.

Costs are nonnegative reals; ``inf`` marks a forbidden pairing (an
unranked school, when costs are preference ranks).  NaN and negative
entries, ``-inf`` included, are refused.  A float32 matrix is read in
place, any other as a float64 copy; every read is widened to float64, so
the arithmetic is the same.  Integer costs are exact: every intermediate
is an integer-valued float64, exact to 2**53, far beyond any rank sum.
The solver returns the matching alone, as the column of each row.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "InfeasibleAssignmentError",
    "min_cost_assignment",
]


class InfeasibleAssignmentError(ValueError):
    """No perfect row-matching with finite total cost exists."""


def min_cost_assignment(cost, columns=None) -> np.ndarray:
    """Exact minimum-cost matching of every row to a distinct column,
    as the column of each row: a 1-D ``np.intp`` array.

    ``columns`` lists, for each column of the matrix solved over, the
    column of ``cost`` it copies: the result is exactly that of
    ``min_cost_assignment(cost[:, columns])``, matching and refusals
    alike, without building that matrix.  ``None`` means every
    column of ``cost`` once, in order.  A column of ``cost`` that
    ``columns`` leaves out is neither checked nor solved over, and an
    entry that is not an index of one raises ValueError.

    Rows are matched one at a time.  A row whose cheapest reduced cost
    is attained by a free column takes the lowest-index such column.
    Otherwise a Dijkstra search from the row advances one layer at a
    time: every column at the current minimum distance is scanned at
    once, and the search stops at the first layer that holds a free
    column, taking the lowest-index one.  Identical inputs therefore
    give identical matchings.

    Raises ValueError for a matrix that is not 2-D and non-empty, has
    more rows than columns, or holds NaN or a negative entry, and
    InfeasibleAssignmentError when no matching has finite cost.  A
    float32 ``cost`` is read in place and widened to float64 per read.
    """
    c = np.asarray(cost, order="C")  # rows are gathered below
    c = c if c.dtype == np.float32 else c.astype(np.float64, copy=False)
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
    count = np.bincount(index.astype(np.intp, copy=False), minlength=c.shape[1])
    if not count.all():  # a class no copy names is neither checked nor solved over
        c, count = c[:, count > 0], count[count > 0]
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

    # Copies grouped by class, in column order within each: class k's
    # copies are the positions start[k] up to stop[k], matched in turn.
    n_classes = count.size
    column = np.argsort(index, kind="stable")  # the column of each position
    ordered = bool((column[1:] > column[:-1]).all())  # positions in column order
    cls = np.repeat(np.arange(n_classes), count)  # the class of each position
    stop = count.cumsum()
    start = stop - count
    free_col = column[start]  # the column of each class's free copy
    next_free, stop = start.tolist(), stop.tolist()  # its free copy's position
    copies = [np.arange(a, b) for a, b in zip(next_free, stop)]  # all its positions
    v = np.zeros(n_classes)  # class potentials; row duals are recomputed on the fly
    is_open = np.ones(n_classes, dtype=bool)  # the class has a free copy
    held = np.zeros(n_cols)  # the matched row's cost, so duals need no 2-D gather
    row_of = np.full(n_cols, -1, dtype=np.int64)  # each position's row
    col_of_row = np.full(n_rows, -1, dtype=np.int64)  # each row's position

    for cur_row in range(n_rows):
        # Dijkstra from cur_row over classes in the reduced-cost graph.
        shortest = c[cur_row] - v  # float64, as v is (a Python float would keep float32)
        layers = []  # (classes, distance, rows reached, their duals) per layer
        reached = []  # the distances each layer reached, for tracing the path back
        while True:
            min_val = np.fmin.reduce(shortest)
            if not min_val < np.inf:
                raise InfeasibleAssignmentError(
                    f"infeasible row {cur_row}: no augmenting path with finite cost"
                )
            nearest = shortest == min_val
            sink = nearest & is_open
            k = int(sink.argmax())
            if sink[k]:
                if not ordered:  # the lowest-index free copy, not the lowest class
                    sinks = sink.nonzero()[0]
                    k = int(sinks[free_col[sinks].argmin()])
                break
            # Scan the whole tie layer, every (matched) copy of its classes:
            # reduced costs are nonnegative, so the order does not matter.
            # In place in float64 (float32 would round), in the order (c[rows] - v - u) + min_val.
            cols = nearest.nonzero()[0]
            pos = np.concatenate([copies[q] for q in cols.tolist()])  # all matched
            if len(pos) == 1:  # scalar indexing: the same operations, fewer calls
                pos, cols = int(pos[0]), int(cols[0])
                rows = int(row_of[pos])
                u = held[pos] - v[cols]  # the dual of the row reached
                reach = c[rows] - v
                reach -= u
            else:  # 64 rows at a time into a running minimum
                rows = row_of[pos]
                u = held[pos] - v[cls[pos]]  # duals of the rows reached
                reach = None
                for i in range(0, rows.size, 64):
                    block = c.take(rows[i : i + 64], axis=0).astype(np.float64, copy=False)
                    block -= v
                    block -= u[i : i + 64, None]
                    least = block.min(axis=0)
                    del block  # so that two blocks are never alive at once
                    reach = least if reach is None else np.minimum(reach, least, out=reach)
            reach += min_val
            shortest[cols] = np.nan  # scanned: never relaxed or chosen again
            np.minimum(shortest, reach, out=shortest)  # NaN propagates
            layers.append((cols, min_val, rows, u))
            reached.append(reach)
        j = next_free[k]  # the class's next copy, if any, is now its free one
        next_free[k] += 1
        if next_free[k] < stop[k]:
            free_col[k] = column[next_free[k]]
        else:
            is_open[k] = False
        # Flip the path.  A position's predecessor is cur_row, or a row of
        # the last layer that strictly shortened its class: the first
        # minimum of its distance from cur_row and its reach in each layer
        # before the one that scanned it (every layer, for the sink).  v is
        # unchanged since the search, so these are the numbers it compared;
        # layers are visited latest first, so their rows are not yet moved.
        scanned_by = len(layers)
        while True:
            k = cls[j]
            layer, best = -1, c.item(cur_row, k) - v[k]  # item() widens to a Python float
            for scan in range(scanned_by):
                reach = reached[scan][k]
                if reach < best:
                    layer, best = scan, reach
            if layer < 0:
                i = cur_row
            else:
                _, _, rows, u = layers[layer]
                if isinstance(rows, int):  # a one-row layer
                    i = rows
                else:  # the least reduced cost, first by column among ties
                    d = c[rows, k].astype(np.float64) - v[k] - u  # numpy 1 keeps float32 on v[k]
                    if ordered:
                        i = int(rows[d.argmin()])
                    else:
                        ties = rows[d == d.min()]
                        i = int(ties[column[col_of_row[ties]].argmin()])
            row_of[j], held[j] = i, c.item(i, k)
            col_of_row[i], j = j, col_of_row[i]
            if i == cur_row:
                break
            scanned_by = layer
        # Then update the potentials of the scanned classes.
        for scanned, dist, _, _ in layers:
            v[scanned] += dist - min_val

    return column[col_of_row]
