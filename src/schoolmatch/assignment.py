"""Exact minimum-cost bipartite assignment to columns with capacities.

Column j of the cost table takes up to ``capacities[j]`` rows: it
stands for that many copies of itself, its class, laid side by side,
so every class's copies are consecutive.  RM gives each school with
seats, and "stay unassigned", one column and its seat count.  The
solver augments one row at a time along a shortest path in the
reduced-cost graph of the matrix of copies, keeping dual potentials
so that edge weights stay nonnegative (successive shortest paths,
Jonker-Volgenant style), yet it holds one distance, one potential and
one layer entry per class, not per copy.

Invariant: the copies of a class share one potential, and its matched
copies are its lowest-index ones.  Sketch, by induction over the rows:
a free copy is never scanned, for it would be the sink, so its
potential stays 0.  While a class has a free copy, its matched copies
have potential 0 too and tie with it at every distance, so the search
stops there before scanning them; the sink, the lowest-index free
copy at the least distance, is the next free copy of the lowest class
there, and a copy once matched stays matched.  Once a class is full,
its copies share every distance, are scanned in one layer and move
their potentials together.  So a search over classes makes exactly the
augmentations of a search over copies, and scanning a class relaxes
the rows of all its copies.

The Dijkstra search advances one tie layer at a time (rank costs are
small integers, so many classes tie).  It scans every class of the
layer, relaxing their rows 64 at a time into a running minimum, and
marks them NaN, so every comparison and ``np.fmin`` skips them and
``np.minimum`` keeps them marked: each search relaxes a matched row at
most once, O(rows^2 * classes) in all.  No predecessor is recorded:
each layer keeps the distances it reached.  A class's predecessor layer
is the last one that strictly shortened it, and there the row of least
reduced cost, the first copy among ties, is the predecessor.  Each
matched copy keeps its row's cost, so a layer's duals need no 2-D
gather.

Costs are nonnegative reals; ``inf`` marks a forbidden pairing (an
unranked school, when costs are preference ranks).  NaN and negative
entries, ``-inf`` included, are refused.  A bool, integer or float
matrix is read in place, any other as a float64 copy; every read is
widened to float64, so the arithmetic is the same.  Integer costs are
exact: every intermediate is an integer-valued float64, exact to 2**53,
far beyond any rank sum.  The solver returns each row's column alone.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "InfeasibleAssignmentError",
    "min_cost_assignment",
]


class InfeasibleAssignmentError(ValueError):
    """No perfect row-matching with finite total cost exists."""


def min_cost_assignment(cost, capacities=None) -> np.ndarray:
    """Exact minimum-cost matching of every row to a column, column j
    taking at most ``capacities[j]`` rows (1 each when None), as the
    column of each row: a 1-D ``np.intp`` array.  It is exactly the
    matching, or refusal, of a solve over ``np.repeat(cost, capacities,
    axis=1)`` with each copy read back as its column, and that matrix is
    never built.  A column of capacity 0 is neither checked nor solved
    over; capacities that are not one nonnegative integer per column
    raise ValueError.

    Rows are matched one at a time.  A row whose cheapest reduced cost
    is attained by a free copy takes the lowest-index such copy.
    Otherwise a Dijkstra search from the row advances one layer at a
    time: every copy at the current minimum distance is scanned at
    once, and the search stops at the first layer that holds a free
    copy, taking the lowest-index one.  Identical inputs therefore
    give identical matchings.

    Raises ValueError for a matrix that is not 2-D and non-empty, has
    more rows than copies, or holds NaN or a negative entry, and
    InfeasibleAssignmentError when no matching has finite cost.  A bool,
    integer or float ``cost`` is read in place, widened to float64 per read.
    """
    c = np.asarray(cost, order="C")  # rows are gathered below
    c = c if c.dtype.kind in "biuf" else c.astype(np.float64)
    if c.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D and non-empty, got shape {c.shape}")
    count = np.ones(c.shape[1], np.intp) if capacities is None else np.asarray(capacities)
    if count.shape != c.shape[1:] or count.dtype.kind not in "iu" or (count < 0).any():
        raise ValueError(
            f"capacities must be one nonnegative integer for each of {c.shape[1]} columns")
    n_rows, n_cols = c.shape[0], int(count.sum())
    if 0 in (n_rows, n_cols):
        raise ValueError(f"cost matrix must be 2-D and non-empty, got shape {(n_rows, n_cols)}")
    if n_rows > n_cols:
        raise ValueError(f"more rows than columns: {n_rows} > {n_cols}")
    count = np.minimum(count, n_rows).astype(np.intp)  # no column takes more rows than there are
    column = np.repeat(np.arange(c.shape[1]), count)  # the column of each copy
    if not count.all():  # a column without copies is neither checked nor solved over
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

    # Copies grouped by class, in column order: class k's copies are the
    # positions next_free[k] up to stop[k], matched in turn.
    n_classes = count.size
    cls = np.repeat(np.arange(n_classes), count)  # the class of each position
    stop = count.cumsum()
    next_free, stop = (stop - count).tolist(), stop.tolist()  # each class's free copy
    copies = [np.arange(a, b) for a, b in zip(next_free, stop)]  # all its positions
    v = np.zeros(n_classes)  # class potentials; row duals are recomputed on the fly
    is_open = np.ones(n_classes, dtype=bool)  # the class has a free copy
    held = np.zeros(column.size)  # the matched row's cost, so duals need no 2-D gather
    row_of = np.full(column.size, -1, dtype=np.int64)  # each position's row
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
            k = int(sink.argmax())  # the lowest class, so the lowest-index free copy
            if sink[k]:
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
        is_open[k] = next_free[k] < stop[k]
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
                else:  # the least reduced cost, the first copy among ties
                    d = c[rows, k].astype(np.float64) - v[k] - u  # numpy 1 keeps float32 on v[k]
                    i = int(rows[d.argmin()])
            row_of[j], held[j] = i, c.item(i, k)
            col_of_row[i], j = j, col_of_row[i]
            if i == cur_row:
                break
            scanned_by = layer
        # Then update the potentials of the scanned classes.
        for scanned, dist, _, _ in layers:
            v[scanned] += dist - min_val

    return column[col_of_row]
