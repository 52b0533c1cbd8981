"""Independent brute-force oracles used by the test suite.

Everything here works by enumeration straight from the definitions, or
by the plain tuple loops the array code replaced, and never calls the
code paths it is used to check.  ``lists_of`` rebuilds a market's
lists as tuples for them, ``random_market_lists`` draws the
inputs for the comparisons, ``write_city_market`` writes a large market
file, ``peak_of`` measures a call's traced memory, and ``counted_solves``
counts RM's solver calls.
"""

from __future__ import annotations

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np

from schoolmatch import mechanisms
from schoolmatch.assignment import AssignmentResult, InfeasibleAssignmentError
from schoolmatch.market import (
    UNASSIGNED, Allocation, Market, MarketFormatError, validate_allocation, validate_market,
)


def lists_of(market: Market) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(preference lists, priority lists) of ``market``, each list a tuple
    of indices, rebuilt from its padded arrays."""
    def rows(lists, lengths):
        return tuple(tuple(row[:k]) for row, k in zip(lists.tolist(), lengths.tolist()))
    return (rows(market.pref_array, market.list_lengths),
            rows(market.priority_array, market.priority_lengths))


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
    prefs, _ = lists_of(market)
    out = []
    for t, s in enumerate(allocation.assignment.tolist()):
        if s == -1:
            out.append(len(prefs[t]) + 1)
        else:
            out.append(prefs[t].index(s) + 1)
    return out


def dominates(market: Market, x: Allocation, y: Allocation) -> bool:
    """x Pareto dominates y: nobody worse off, someone strictly better."""
    rx = ranks_by_definition(market, x)
    ry = ranks_by_definition(market, y)
    return all(a <= b for a, b in zip(rx, ry)) and any(a < b for a, b in zip(rx, ry))


def pareto_optimal_by_enumeration(market: Market, allocation: Allocation) -> bool:
    """No feasible allocation dominates ``allocation``.  Enumerates every
    allocation in which each student holds a school on their list or
    none and is no worse off than under ``allocation`` (only those can
    dominate it), keeping those that ``validate_allocation`` accepts."""
    lists = [(*prefs, UNASSIGNED) for prefs in lists_of(market)[0]]
    options = [row[:row.index(s) + 1] for row, s in zip(lists, allocation.assignment.tolist())]
    candidates = (Allocation(choice) for choice in itertools.product(*options))
    return not any(dominates(market, x, allocation)
                   for x in candidates if not validate_allocation(market, x))


def pareto_optimal_by_cycle_search(market: Market, allocation: Allocation) -> bool:
    """Pareto optimality on a balanced full-list market with everyone
    assigned, by depth-first search for a cycle in the graph where each
    student points to the holders of the schools they strictly prefer:
    rotating seats along such a cycle improves every member."""
    if not market.has_full_lists:
        raise ValueError("requires full lists")
    if market.total_seats != market.n_students:
        raise ValueError("requires a balanced market")
    a = allocation.assignment
    if (a < 0).any():
        raise ValueError("requires a fully assigned allocation")
    n = market.n_students
    ranks = market.rank_table
    own = ranks[np.arange(n), a]
    # improves[t, t2]: t strictly prefers t2's school to their own.
    improves = ranks[:, a] < own[:, None]

    color = np.zeros(n, dtype=np.int8)  # 0 new, 1 on stack, 2 done
    for start in range(n):
        if color[start]:
            continue
        stack = [(start, iter(np.nonzero(improves[start])[0]))]
        color[start] = 1
        while stack:
            node, targets = stack[-1]
            for t2 in targets:
                if color[t2] == 1:
                    return False
                if color[t2] == 0:
                    color[t2] = 1
                    stack.append((t2, iter(np.nonzero(improves[t2])[0])))
                    break
            else:
                color[node] = 2
                stack.pop()
    return True


def envious_by_definition(market: Market, allocation: Allocation) -> set[int]:
    """Direct double loop over the two envy conditions.  A seat holder
    the school does not rank stands below every student it ranks."""
    out = set()
    prefs, priorities = lists_of(market)
    assignment = allocation.assignment.tolist()
    for t in range(market.n_students):
        own = assignment[t]
        own_rank = prefs[t].index(own) if own >= 0 else len(prefs[t])
        for s in range(market.n_schools):
            if s not in prefs[t] or prefs[t].index(s) >= own_rank:
                continue
            if t not in priorities[s]:
                continue
            admitted = [t2 for t2, s2 in enumerate(assignment) if s2 == s]
            if len(admitted) < market.capacities[s]:
                out.add(t)
                break
            ranked = priorities[s]
            if any(t2 not in ranked or ranked.index(t2) > ranked.index(t) for t2 in admitted):
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


def deferred_acceptance_by_proposals(market: Market) -> Allocation:
    """Student-proposing deferred acceptance as Gale and Shapley wrote it,
    on tuple lists: a free student proposes to the next school on their
    list; the school holds its best proposers up to capacity and rejects
    the rest, and any student it does not rank."""
    n = market.n_students
    prefs, priorities = lists_of(market)
    position = [{t: i for i, t in enumerate(ranked)} for ranked in priorities]
    held: list[list[int]] = [[] for _ in market.capacities]
    proposals = [0] * n
    free = list(range(n))
    while free:
        t = free.pop()
        if proposals[t] == len(prefs[t]):
            continue  # rejected by every school on the list
        s = prefs[t][proposals[t]]
        proposals[t] += 1
        if t not in position[s]:
            free.append(t)  # the school does not rank them
            continue
        held[s].append(t)
        if len(held[s]) > market.capacities[s]:
            held[s].sort(key=position[s].__getitem__)
            free.append(held[s].pop())  # the lowest-priority student held
    assignment = [UNASSIGNED] * n
    for s, students in enumerate(held):
        for t in students:
            assignment[t] = s
    return Allocation(assignment)


def rsd_no_envy_closed_form(n: int) -> float:
    """The closed form of the no-envy fraction in exact rationals,
    rounded once: (n+1)/n * sum_j 2^(1-j) (1/j - 1/(j+1)).  Terms past
    j = 200 add less than 2^-199 and are left out."""
    s = sum(
        Fraction(1, 2 ** (j - 1)) * (Fraction(1, j) - Fraction(1, j + 1))
        for j in range(1, min(n, 200) + 1)
    )
    return float(Fraction(n + 1, n) * s)


def rsd_rank_probability_by_counting(k: int, j: int, n: int) -> Fraction:
    """P(the k-th of n dictators gets their j-th choice), counted.  The
    k-1 schools taken before them are a uniform random subset, whatever
    their own list; they get rank j iff that subset holds their top j-1
    schools and not the j-th, as C(n-j, k-j) of the C(n, k-1) do."""
    return Fraction(math.comb(n - j, k - j), math.comb(n, k - 1)) if j <= k else Fraction(0)


def uniform_ttc_rank_shares(n: int) -> list[Fraction]:
    """The expected share of students at rank j = 1..n under TTC on an
    n-student market of iid uniform lists and priorities: TTC then has
    RSD's law (Pathak & Sethuraman 2011), whose rank j holds
    (n+1)/(j(j+1)) of the n students.  The shares sum to 1."""
    return [Fraction(n + 1, n * j * (j + 1)) for j in range(1, n + 1)]


def uniform_ttc_mean_rank(n: int) -> Fraction:
    """TTC's expected mean rank, summed from ``uniform_ttc_rank_shares``:
    Knuth's ((n+1)H_n - n)/n."""
    return sum((j * share for j, share in enumerate(uniform_ttc_rank_shares(n), 1)), Fraction(0))


def uniform_ttc_share_above(n: int, cutoff: float) -> Fraction:
    """TTC's expected share of students with rank above ``cutoff``, summed
    from ``uniform_ttc_rank_shares``: (n+1)/n (1/(floor(cutoff)+1) - 1/(n+1))."""
    shares = uniform_ttc_rank_shares(n)
    return sum((share for j, share in enumerate(shares, 1) if j > cutoff), Fraction(0))


def harmonic_number(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n: DA proposes at most n H_n times in
    expectation on iid uniform lists (Wilson 1972), so its expected mean
    rank is at most H_n."""
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


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


def correlated_lists(rng, n_students: int, n_schools: int, list_length: int,
                     beta: float) -> np.ndarray:
    """Each student's ``list_length`` best schools, best first, under the
    Che-Tercieux utility beta * q_s + (1 - beta) * e_ts, with a common
    quality q and an idiosyncratic taste e, both uniform on (0, 1)."""
    quality = rng.random(n_schools)
    utility = beta * quality + (1 - beta) * rng.random((n_students, n_schools))
    return np.argsort(-utility, axis=1)[:, :list_length]


def write_city_market(path, n_students: int, n_schools: int, seats: int, list_length: int,
                      seed: int, beta: float | None = None) -> None:
    """Write a seeded market file line by line: each student ranks
    ``list_length`` of ``n_schools`` schools of ``seats`` seats, and
    every school ranks every student.  Student ids are 10 + 3t and
    school ids 1000 + 7s, so loading maps ids onto indices.  Lists are
    uniform draws, or ``correlated_lists`` with weight ``beta``."""
    rng = np.random.default_rng(seed)
    lists = None if beta is None else correlated_lists(
        rng, n_students, n_schools, list_length, beta)
    with open(path, "w", encoding="utf-8") as out:
        out.write("[schools]\n")
        out.writelines(f"{1000 + 7 * s},{seats}\n" for s in range(n_schools))
        out.write("[students]\n")
        for t in range(n_students):
            if lists is None:
                row = rng.choice(n_schools, size=list_length, replace=False) * 7 + 1000
            else:
                row = lists[t] * 7 + 1000
            out.write(f"{10 + 3 * t}," + ";".join(map(str, row.tolist())) + "\n")
        out.write("[priorities]\n")
        for s in range(n_schools):
            row = rng.permutation(n_students) * 3 + 10
            out.write(f"{1000 + 7 * s}," + ";".join(map(str, row.tolist())) + "\n")


def peak_of(run, *args) -> int:
    """tracemalloc's peak over one call of ``run(*args)``, above what was
    traced before it, after a warm-up call (imports and lazy set-up)."""
    run(*args)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        run(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak - before


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
    prefs, priorities = lists_of(market)
    problems: list[str] = []
    for s, cap in enumerate(market.capacities):
        if cap < 0:
            problems.append(f"school {s}: negative capacity {cap}")
    for t, plist in enumerate(prefs):
        seen: set[int] = set()
        for s in plist:
            if not 0 <= s < m:
                problems.append(f"student {t}: unknown school id {s}")
            elif s in seen:
                problems.append(f"student {t}: duplicate school {s} in preference list")
            seen.add(s)
    if len(priorities) != m:
        problems.append(f"priorities cover {len(priorities)} schools, expected {m}")
    for s, plist in enumerate(priorities):
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


def load_market_by_loops(path) -> Market:
    """load_market as the loop that read every list token with int() and
    mapped ids through a dict, which the bulk loader replaced."""
    schools: dict[int, int] = {}
    students: dict[int, list[int]] = {}
    priorities: dict[int, list[int]] = {}
    sections = {"[schools]": (schools, "school"), "[students]": (students, "student"),
                "[priorities]": (priorities, "priorities")}
    section = None
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line in sections:
            section = sections[line]
            continue
        if section is None:
            raise MarketFormatError(f"line {lineno}: content before any section header")
        head, sep, tail = line.partition(",")
        if not sep:
            raise MarketFormatError(f"line {lineno}: expected 'id,...', got {line!r}")
        try:
            ident = int(head)
        except ValueError:
            raise MarketFormatError(f"line {lineno}: bad id {head!r}") from None
        rows, label = section
        if ident in rows:
            raise MarketFormatError(f"line {lineno}: duplicate {label} row {ident}")
        try:
            rows[ident] = (int(tail) if rows is schools
                           else [int(tok) for tok in tail.split(";") if tok.strip()])
        except ValueError as exc:
            raise MarketFormatError(f"line {lineno}: {exc}") from None
    if not students:
        raise MarketFormatError("no students")
    if not schools:
        raise MarketFormatError("no schools")
    for sid in priorities:
        if sid not in schools:
            raise MarketFormatError(f"priorities given for unknown school id {sid}")
    school_ids, student_ids = sorted(schools), sorted(students)

    def indices(rows, owners, ids, owner, item):
        position = {x: i for i, x in enumerate(ids)}
        for who, row in zip(owners, rows):
            for x in row:
                if x not in position:
                    raise MarketFormatError(f"{owner} {who}: unknown {item} id {x}")
        return [[position[x] for x in row] for row in rows]

    market = Market(
        [schools[sid] for sid in school_ids],
        indices([students[t] for t in student_ids], student_ids, school_ids, "student", "school"),
        indices([priorities.get(s, []) for s in school_ids], school_ids, student_ids,
                "school", "student"),
        student_ids, school_ids)
    problems = validate_market(market)
    if problems:
        raise MarketFormatError("invalid market: " + "; ".join(problems))
    return market


def validate_allocation_by_loops(market: Market, allocation: Allocation) -> list[str]:
    """validate_allocation as the loop over tuple lists it replaced."""
    problems: list[str] = []
    if allocation.n_students != market.n_students:
        problems.append(
            f"allocation covers {allocation.n_students} students, "
            f"market has {market.n_students}"
        )
        return problems
    filled = [0] * market.n_schools
    prefs, _ = lists_of(market)
    for t, s in enumerate(allocation.assignment.tolist()):
        if s == UNASSIGNED:
            continue
        if not 0 <= s < market.n_schools:
            problems.append(f"student {t}: unknown school id {s}")
            continue
        filled[s] += 1
        if s not in prefs[t]:
            problems.append(f"student {t}: assigned school {s} they never ranked")
    for s, count in enumerate(filled):
        if count > market.capacities[s]:
            problems.append(
                f"school {s}: {count} students assigned, capacity {market.capacities[s]}"
            )
    return problems


def manipulated_prefs_by_tuples(market: Market, baseline: Allocation, kind: str,
                                share: float, seed: int) -> tuple[tuple[int, ...], ...]:
    """The preference lists apply_manipulation returns, computed the way
    its tuple-based version did: a scan of the lists for eligibility, the
    same draw over the eligible in ascending order, and tuple rewrites."""
    prefs, _ = lists_of(market)
    assignment = baseline.assignment.tolist()
    eligible = []
    for t, s in enumerate(assignment):
        plist = prefs[t]
        realized = plist.index(s) + 1 if s >= 0 else len(plist) + 1
        if not (s >= 0 and realized <= (1 if kind == "drop_assigned" else 2)):
            eligible.append(t)
    count = int(math.floor(share * len(eligible) + 0.5))
    if count == 0:
        return prefs
    rng = np.random.default_rng(seed)
    chosen = set(int(i) for i in rng.choice(len(eligible), size=count, replace=False))
    new_prefs = list(prefs)
    for idx in chosen:
        t = eligible[idx]
        plist = prefs[t]
        if kind == "drop_assigned":
            s = assignment[t]
            if s >= 0:
                new_prefs[t] = tuple(x for x in plist if x != s) + (s,)
        else:
            new_prefs[t] = plist[1:] + plist[:1]
    return tuple(new_prefs)


# --- Assignment oracles -------------------------------------------------
#
# ``brute_force_assignment`` enumerates every injection.  The reference
# solver and RM below are the layer-scan solver and the two-step
# cost-matrix build (rank matrix, then an ``np.ix_`` shuffle) that the
# library used before its one-gather build and NaN-masked layer loop;
# the differential tests require identical matchings from both.

_BRUTE_FORCE_MAX_ROWS = 8
_BRUTE_FORCE_MAX_PERMS = 5_000_000


def _checked_cost_matrix(cost) -> np.ndarray:
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or 0 in c.shape:
        raise ValueError(f"cost matrix must be 2-D and non-empty, got shape {c.shape}")
    if c.shape[0] > c.shape[1]:
        raise ValueError(f"more rows than columns: {c.shape[0]} > {c.shape[1]}")
    if np.isnan(c).any():
        raise ValueError("cost matrix contains NaN")
    if (c < 0).any():
        raise ValueError("cost matrix entries must be nonnegative")
    return c


def _assignment_result(c: np.ndarray, col_of_row: np.ndarray) -> AssignmentResult:
    matched = c[np.arange(len(col_of_row)), col_of_row]
    total = matched.sum()
    finite = c[np.isfinite(c)]
    if finite.size and np.all(finite == np.round(finite)):
        total = int(total)
    else:
        total = float(total)
    return AssignmentResult(tuple(int(j) for j in col_of_row), total)


@functools.lru_cache(maxsize=64)
def _injections(n_cols: int, n_rows: int) -> np.ndarray:
    """All injections of rows into columns, lexicographic, one per row."""
    perms = np.fromiter(
        (j for p in itertools.permutations(range(n_cols), n_rows) for j in p),
        dtype=np.int64,
    ).reshape(-1, n_rows)
    perms.setflags(write=False)
    return perms


def brute_force_assignment(cost) -> AssignmentResult:
    """Exhaustive minimum over all row-to-column injections.

    Guard: at most 8 rows (factorial enumeration).  Deterministic: the
    lexicographically first optimal injection wins.
    """
    c = _checked_cost_matrix(cost)
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
    return _assignment_result(c, perms[best])


def reference_min_cost_assignment(cost) -> AssignmentResult:
    """The layer-scan solver with a ``done`` mask and ``pred_row`` per row."""
    c = _checked_cost_matrix(cost)
    n_rows, n_cols = c.shape
    dead = ~np.isfinite(c).any(axis=1)
    if dead.any():
        raise InfeasibleAssignmentError(
            f"infeasible row {int(dead.argmax())}: all costs are infinite"
        )
    v = np.zeros(n_cols)
    row_of_col = np.full(n_cols, -1, dtype=np.int64)
    col_of_row = np.full(n_rows, -1, dtype=np.int64)
    free = np.ones(n_cols, dtype=bool)
    for cur_row in range(n_rows):
        shortest = c[cur_row] - v
        pred_row = np.full(n_cols, cur_row, dtype=np.int64)
        done = np.zeros(n_cols, dtype=bool)
        min_val = shortest.min()
        layer = shortest == min_val
        sinks = layer & free
        while not sinks.any():
            done |= layer
            cols = np.flatnonzero(layer)
            rows = row_of_col[cols]
            u = c[rows, cols] - v[cols]
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
        v[done] += shortest[done] - min_val
        while True:
            i = int(pred_row[j])
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == cur_row:
                break
    return _assignment_result(c, col_of_row)


def reference_rank_cost_matrix(market: Market) -> tuple[np.ndarray, np.ndarray]:
    """Effective-rank cost matrix over unit seats, built column by column:
    seat columns, then n "stay unassigned" columns at cost k+1 when some
    list is partial or seats fall short; the school of each column."""
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


def reference_shuffled_cost_matrix(market: Market, seed: int):
    """RM's shuffled cost matrix, the school of each of its columns and
    the row permutation: the full matrix, then an ``np.ix_`` copy."""
    cost, columns = reference_rank_cost_matrix(market)
    rng = np.random.default_rng(seed)
    row_perm = rng.permutation(cost.shape[0])
    col_perm = rng.permutation(cost.shape[1])
    return cost[np.ix_(row_perm, col_perm)], columns[col_perm], row_perm


def reference_rank_minimizing(market: Market, seed: int) -> Allocation:
    """RM through the two-step matrix build and the reference solver."""
    cost, schools, row_perm = reference_shuffled_cost_matrix(market, seed)
    result = reference_min_cost_assignment(cost)
    assignment = np.empty(market.n_students, dtype=np.int64)
    assignment[row_perm] = schools[list(result.col_of_row)]
    return Allocation(assignment)


def improving_cycle_exists(market: Market, allocation: Allocation) -> bool:
    """Whether a chain or cycle of moves lowers the allocation's
    effective rank sum (Klein's negative-cycle test, 1967), read straight
    off the lists; the allocation must be valid.  Nodes are the m
    schools, "unassigned" (node m: cost k+1, room for everyone) and a
    free-seat node F (node m + 1).  Edge a -> b weighs the least change
    in cost from moving one student held by a to b; b -> F weighs 0 when
    b has a free seat, and F -> a weighs 0.  The allocation has the
    least rank sum exactly when no cycle is negative; Floyd-Warshall
    over the m + 2 nodes finds one in O(m^3) after one pass over the
    lists."""
    m, k = market.n_schools, market.list_lengths
    prefs = market.pref_array
    listed = np.arange(prefs.shape[1]) < k[:, None]
    held = allocation.assignment
    rank = (listed & (prefs == held[:, None])) @ np.arange(1, prefs.shape[1] + 1)
    now = np.where(rank > 0, rank, k + 1)  # k + 1 when unassigned
    node = np.where(held == UNASSIGNED, m, held)
    student, place = np.nonzero(listed)
    weight = np.full((m + 2, m + 2), np.inf)
    np.fill_diagonal(weight, 0.0)
    np.minimum.at(weight, (node[student], prefs[student, place]), place + 1 - now[student])
    np.minimum.at(weight, (node, m), k + 1 - now)
    free = np.bincount(held[held != UNASSIGNED], minlength=m) < market.capacities
    weight[: m + 1, m + 1] = np.where(np.append(free, True), 0.0, np.inf)
    weight[m + 1, : m + 1] = 0.0
    for c in range(m + 2):
        weight = np.minimum(weight, weight[:, c, None] + weight[c])
    return bool((np.diag(weight) < 0).any())


def counted_solves(monkeypatch) -> list[int]:
    """A list that grows by one per ``min_cost_assignment`` call RM makes."""
    solves = []
    solve = mechanisms.min_cost_assignment

    def counted(*args):
        solves.append(1)
        return solve(*args)

    monkeypatch.setattr(mechanisms, "min_cost_assignment", counted)
    return solves
