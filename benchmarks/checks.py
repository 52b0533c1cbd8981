"""Independent checks of the program's allocations and CSV.

Nothing here imports ``schoolmatch``.  Markets come from
``inputs.py``; allocations are the plain arrays ``spans.Capture``
recorded.  Each check returns a list of problems; an empty list means
the allocation or the CSV passed.

- every allocation: seats within capacity, every assigned school on
  the student's list;
- DA: no blocking pair, free seats counted as claims;
- TTC, RSD and truthful RM: Pareto optimal for the students (no
  preferred free seat, acyclic improvement graph via networkx);
- RM: effective-rank sum equals scipy's ``linear_sum_assignment``
  optimum over a cost matrix built here, with a "stay unassigned"
  column costing k+1 per student when lists are partial;
- manipulated RM: the manipulated lists are rebuilt here from the
  truthful allocation (drop_assigned), and the allocation must be the
  RM optimum of those lists; its true rank sum is at least the truthful
  optimum, and the share-0 allocation equals the truthful one;
- the CSV: every row recomputed from the recorded allocations.
"""

from __future__ import annotations

import csv
import io
import math

import networkx as nx
import numpy as np
from scipy.optimize import linear_sum_assignment

from inputs import MarketArrays, Workload, derive_seed, uniform_market

CSV_FIELDS = [
    "mechanism", "n", "reps", "mean", "se_mean", "max_mean", "se_max", "variance",
    "envy_share", "unassigned", "threshold_m", "share_gt_m",
]
# Substreams inside a replication (simulate.py's _TAG_MARKET and
# _TAG_MANIPULATION): replication r of master seed S draws its market
# from derive_seed(S, r, 0) and its manipulators from derive_seed(S, r, 3).
MARKET_TAG = 0
MANIPULATION_TAG = 3


class Tables:
    """Rank and priority lookups of one market, built from its lists."""

    def __init__(self, market: MarketArrays) -> None:
        n, m = market.n, market.m
        self.market = market
        self.lengths = np.array([len(p) for p in market.prefs], dtype=np.int64)
        self.unlisted = m + 2
        self.rank = np.full((n, m), self.unlisted, dtype=np.int64)
        for t, plist in enumerate(market.prefs):
            self.rank[t, plist] = np.arange(1, len(plist) + 1)
        self.pos = np.full((m, n), n + 2, dtype=np.int64)
        for s, plist in enumerate(market.priorities):
            self.pos[s, plist] = np.arange(1, len(plist) + 1)
        self._optimum: int | None = None

    def effective(self, a: np.ndarray) -> np.ndarray:
        """Rank of each student's school, or list length + 1 if unassigned."""
        eff = self.lengths + 1
        held = a >= 0
        eff[held] = self.rank[np.nonzero(held)[0], a[held]]
        return eff

    @property
    def optimum(self) -> int:
        """Minimum effective-rank sum over all feasible allocations."""
        if self._optimum is None:
            market = self.market
            seats = np.repeat(np.arange(market.m), market.capacities)
            cost = self.rank[:, seats].astype(np.float64)
            cost[cost == self.unlisted] = np.inf
            n = market.n
            if (self.lengths < market.m).any() or len(seats) < n:
                stay = np.full((n, n), np.inf)
                stay[np.arange(n), np.arange(n)] = self.lengths + 1
                cost = np.hstack([cost, stay])
            rows, cols = linear_sum_assignment(cost)
            self._optimum = int(round(cost[rows, cols].sum()))
        return self._optimum


def feasibility_problems(tables: Tables, a: np.ndarray) -> list[str]:
    market = tables.market
    if a.shape != (market.n,):
        return [f"allocation has shape {a.shape}, market has {market.n} students"]
    bad = np.nonzero((a < -1) | (a >= market.m))[0]
    if bad.size:
        return [f"student {bad[0]}: school index {a[bad[0]]} out of range"]
    problems = []
    held = np.nonzero(a >= 0)[0]
    off = held[tables.rank[held, a[held]] == tables.unlisted]
    if off.size:
        problems.append(f"student {off[0]}: assigned school {a[off[0]]} not on their list")
    filled = np.bincount(a[held], minlength=market.m)
    over = np.nonzero(filled > market.capacities)[0]
    if over.size:
        s = over[0]
        problems.append(f"school {s}: {filled[s]} students, capacity {market.capacities[s]}")
    return problems


def envious_students(tables: Tables, a: np.ndarray) -> np.ndarray:
    """Students in a blocking pair: they prefer a school that ranks them
    and either has a free seat or admitted someone of lower priority."""
    market = tables.market
    held = np.nonzero(a >= 0)[0]
    cutoff = np.zeros(market.m, dtype=np.int64)
    np.maximum.at(cutoff, a[held], tables.pos[a[held], held])
    filled = np.bincount(a[held], minlength=market.m)
    cutoff[filled < market.capacities] = market.n + 1
    prefers = tables.rank < tables.effective(a)[:, None]
    claims = tables.pos.T < cutoff[None, :]
    return np.nonzero((prefers & claims).any(axis=1))[0]


def pareto_problems(tables: Tables, a: np.ndarray) -> list[str]:
    """A student-side Pareto improvement exists iff some student prefers
    a school with a free seat, or the graph with an edge from each
    student to every holder of a school they prefer has a cycle."""
    market = tables.market
    prefers = tables.rank < tables.effective(a)[:, None]
    held = np.nonzero(a >= 0)[0]
    filled = np.bincount(a[held], minlength=market.m)
    free = filled < market.capacities
    wasted = np.nonzero(prefers[:, free].any(axis=1))[0]
    if wasted.size:
        return [f"student {wasted[0]} prefers a school with a free seat"]
    order = held[np.argsort(a[held], kind="stable")]
    starts = np.concatenate([[0], np.cumsum(filled)[:-1]])
    ts, ss = np.nonzero(prefers)
    per_pair = filled[ss]
    first = np.repeat(np.cumsum(per_pair) - per_pair, per_pair)
    offsets = np.arange(per_pair.sum()) - first
    holders = order[np.repeat(starts[ss], per_pair) + offsets]
    graph = nx.DiGraph()
    graph.add_nodes_from(range(market.n))
    graph.add_edges_from(zip(np.repeat(ts, per_pair).tolist(), holders.tolist()))
    if nx.is_directed_acyclic_graph(graph):
        return []
    cycle = [u for u, _ in nx.find_cycle(graph)]
    return [f"improvement cycle through students {cycle[:8]}"]


def drop_assigned(tables: Tables, truthful: np.ndarray, share: float, seed: int) -> Tables:
    """The market after round(share * eligible) students, drawn uniformly
    from those not assigned their first choice, move their assigned
    school to the end of their list."""
    market = tables.market
    eff = tables.effective(truthful)
    eligible = np.nonzero((truthful < 0) | (eff != 1))[0]
    count = int(math.floor(share * len(eligible) + 0.5))
    if count == 0:
        return tables
    chosen = np.random.default_rng(seed).choice(len(eligible), size=count, replace=False)
    prefs = list(market.prefs)
    for t in eligible[chosen]:
        s = truthful[t]
        if s >= 0:
            prefs[t] = np.append(prefs[t][prefs[t] != s], s)
    return Tables(MarketArrays(market.capacities, prefs, market.priorities))


def rep_stats(tables: Tables, a: np.ndarray, cutoffs: list[float]) -> dict:
    """The per-replication figures a CSV row averages."""
    eff = tables.effective(a)
    assigned = eff[a >= 0]
    n = tables.market.n
    return {
        "mean": float(assigned.mean()) if assigned.size else math.nan,
        "max": float(eff.max()),
        "variance": float(assigned.var(ddof=1)) if assigned.size > 1 else 0.0,
        "envy": envious_students(tables, a).size / n,
        "unassigned": float((a < 0).sum()),
        "shares": [float((eff > c).sum()) / n for c in cutoffs],
    }


def expected_rows(label: str, n: int, stats: list[dict], cutoffs: list[float]) -> list[list]:
    def se(values) -> float:
        return float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0

    means = [s["mean"] for s in stats]
    maxes = [s["max"] for s in stats]
    base = [label, n, len(stats), float(np.mean(means)), se(means), float(np.mean(maxes)),
            se(maxes), float(np.mean([s["variance"] for s in stats])),
            float(np.mean([s["envy"] for s in stats])),
            float(np.mean([s["unassigned"] for s in stats]))]
    if not cutoffs:
        return [base + ["", ""]]
    shares = np.mean([s["shares"] for s in stats], axis=0)
    return [base + [c, float(x)] for c, x in zip(cutoffs, shares)]


def row_problems(got: list[dict], want: list[list]) -> list[str]:
    """Compare parsed CSV rows with recomputed ones, field by field."""
    if len(got) != len(want):
        return [f"{len(got)} CSV rows, expected {len(want)}"]
    for g, w in zip(got, want):
        for field, value in zip(CSV_FIELDS, w):
            text = g[field]
            if isinstance(value, str):
                ok = text == value
            elif isinstance(value, int):
                ok = text == str(value)
            else:
                try:
                    ok = math.isclose(float(text), value, rel_tol=1e-8, abs_tol=1e-12)
                except ValueError:
                    ok = False
            if not ok:
                return [f"row {g['mechanism']}: {field} is {text}, recomputed {value!r}"]
    return []


def parse_csv(text: str) -> tuple[list[dict], list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_FIELDS:
        return [], [f"CSV header is {rows[0] if rows else None}"]
    body = rows[1:]
    if any(len(r) != len(CSV_FIELDS) for r in body):
        return [], ["CSV row with the wrong number of fields"]
    return [dict(zip(CSV_FIELDS, r)) for r in body], []


def _cutoffs(rows: list[dict], label: str) -> list[float]:
    return [float(r["threshold_m"]) for r in rows if r["mechanism"] == label and r["threshold_m"]]


def check_round(
    workload: Workload, seed: int, round_index: int, csv_text: str,
    calls: list[tuple[str, np.ndarray]],
) -> list[str]:
    """Check one CLI call: its recorded allocations and its CSV."""
    rows, problems = parse_csv(csv_text)
    if problems:
        return problems
    reps = workload.reps
    master = workload.round_seed(seed, round_index)
    if workload.command == "manipulate":
        order = ["RM", "RM"] * reps * len(workload.shares)
    else:
        order = list(workload.mechanisms) * reps
    labels = [label for label, _ in calls]
    if labels != order:
        return [f"mechanism calls {labels[:8]}..., expected {order[:8]}..."]

    if workload.fixed_market:
        markets = [Tables(workload.fixed_market_arrays())] * reps
    else:
        markets = [Tables(uniform_market(workload.n, derive_seed(master, r, MARKET_TAG)))
                   for r in range(reps)]
    n = markets[0].market.n
    per_rep = 2 if workload.command == "manipulate" else len(workload.mechanisms)
    for i, (label, a) in enumerate(calls):
        r = i // per_rep % reps
        problems += [f"rep {r} {label}: {p}" for p in feasibility_problems(markets[r], a)]
    if problems:
        return problems
    want: list[list] = []

    def check(label: str, tables: Tables, a: np.ndarray, where: str) -> None:
        found = []
        if label == "DA":
            envious = envious_students(tables, a)
            if envious.size:
                found = [f"student {envious[0]} is in a blocking pair"]
        if not found and label in ("TTC", "RSD", "RM"):
            found = pareto_problems(tables, a)
        if not found and label == "RM":
            total = int(tables.effective(a).sum())
            if total != tables.optimum:
                found = [f"rank sum {total}, scipy optimum {tables.optimum}"]
        problems.extend(f"{where} {label}: {p}" for p in found)

    if workload.command == "manipulate":
        cutoffs: list[float] = []
        for k, share in enumerate(workload.shares):
            block = calls[2 * reps * k: 2 * reps * (k + 1)]
            truthful, manipulated = [], []
            for r in range(reps):
                tables = markets[r]
                honest, lied = block[2 * r][1], block[2 * r + 1][1]
                where = f"share {share:g} rep {r}"
                check("RM", tables, honest, where)
                lists = drop_assigned(tables, honest, share,
                                      derive_seed(master, r, MANIPULATION_TAG))
                check("RM", lists, lied, f"{where} manipulated")
                if int(tables.effective(lied).sum()) < tables.optimum:
                    problems.append(f"{where}: manipulated rank sum below the truthful optimum")
                if share == 0 and not np.array_equal(honest, lied):
                    problems.append(f"{where}: share-0 allocation differs from the truthful one")
                truthful.append(rep_stats(tables, honest, cutoffs))
                manipulated.append(rep_stats(tables, lied, cutoffs))
            want += expected_rows("RM", n, truthful, cutoffs)
            want += expected_rows(f"RM[drop_assigned={share:g}]", n, manipulated, cutoffs)
        labels = [row["mechanism"] for row in rows]
        if "RM[drop_assigned=0]" in labels:
            k = labels.index("RM[drop_assigned=0]")
            if k == 0 or [rows[k - 1][f] for f in CSV_FIELDS[1:]] != [rows[k][f] for f in CSV_FIELDS[1:]]:
                problems.append("share-0 row differs from the truthful RM row")
    else:
        cutoffs = _cutoffs(rows, workload.mechanisms[0])
        per_mech: dict[str, list[dict]] = {m: [] for m in workload.mechanisms}
        for i, (label, a) in enumerate(calls):
            r = i // len(workload.mechanisms)
            check(label, markets[r], a, f"rep {r}")
            per_mech[label].append(rep_stats(markets[r], a, cutoffs))
        for label in workload.mechanisms:
            want += expected_rows(label, n, per_mech[label], cutoffs)
    return problems + row_problems(rows, want)
