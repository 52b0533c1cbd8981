"""Hooks the benchmark installs at the ``schoolmatch`` module boundary.

Nothing here edits the package.  ``Patcher`` rebinds, for the length of
a run, every module-level name and registry entry (such as
``mechanisms.MECHANISMS``) in ``schoolmatch.*`` that refers to a
public function, so a call made through any import path goes through
the hook.  ``Capture`` records each mechanism's allocation for the
checks.  ``Tracer`` records one span per call (name, start, end,
parent, replication, round) and one per garbage collection, through
``gc.callbacks``; ``layer_metrics`` reduces the spans to the per-layer
figures.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute) of each traced function.
TRACED_FUNCTIONS = (
    ("simulate.generate_market", "schoolmatch.simulate", "generate_uniform_market"),
    ("simulate.manipulation", "schoolmatch.simulate", "apply_manipulation"),
    ("market.load", "schoolmatch.market", "load_market"),
    ("mechanisms.da", "schoolmatch.mechanisms", "deferred_acceptance"),
    ("mechanisms.ttc", "schoolmatch.mechanisms", "top_trading_cycles"),
    ("mechanisms.rsd", "schoolmatch.mechanisms", "random_serial_dictatorship"),
    ("mechanisms.rm", "schoolmatch.mechanisms", "rank_minimizing"),
    ("assignment.solve", "schoolmatch.mechanisms", "min_cost_assignment"),
    ("metrics.rank_stats", "schoolmatch.metrics", "rank_stats"),
    ("metrics.justified_envy", "schoolmatch.metrics", "justified_envy"),
)
# (span name, module, class, attribute) of each traced method or
# cached table; a cached table is timed on its first access only.
TRACED_ATTRIBUTES = (
    ("market.rank_table", "schoolmatch.market", "Market", "rank_table"),
    ("market.priority_table", "schoolmatch.market", "Market", "priority_table"),
    ("market.priority_pos", "schoolmatch.market", "Market", "priority_pos"),
    ("simulate.csv", "schoolmatch.simulate", "ExperimentReport", "to_csv"),
)
# Mechanism entry points whose allocations the checks read.
CAPTURED = (
    ("DA", "deferred_acceptance"),
    ("TTC", "top_trading_cycles"),
    ("RSD", "random_serial_dictatorship"),
    ("RM", "rank_minimizing"),
)
ROOT = "cli.main"
GC = "runtime.gc"


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if name == "schoolmatch" or name.startswith("schoolmatch.")
    ]


class Patcher:
    """Rebinds names for the length of a run; ``restore`` undoes it."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, object, object, bool]] = []

    def replace_function(self, original, replacement) -> int:
        """Rebind every reference to ``original`` held by a module global
        or a module-level dict of the package; returns how many."""
        count = 0
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value, False))
                    setattr(mod, key, replacement)
                    count += 1
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, v, True))
                            value[k] = replacement
                            count += 1
        return count

    def replace_attribute(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr], False))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            target, key, value, is_item = self._undo.pop()
            if is_item:
                target[key] = value
            else:
                setattr(target, key, value)


def _lookup(module: str, attr: str):
    return getattr(sys.modules.get(module), attr, None)


class Capture:
    """Records (mechanism, assignment array) for every mechanism call."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, np.ndarray]] = []

    def install(self, patcher: Patcher) -> None:
        for label, attr in CAPTURED:
            original = _lookup("schoolmatch.mechanisms", attr)
            if original is not None:
                patcher.replace_function(original, self._wrap(label, original))

    def _wrap(self, label, fn):
        calls = self.calls

        @functools.wraps(fn)
        def captured(*args, **kwargs):
            allocation = fn(*args, **kwargs)
            calls.append((label, np.array(allocation.assignment, dtype=np.int64)))
            return allocation

        return captured

    def take(self) -> list[tuple[str, np.ndarray]]:
        calls = list(self.calls)
        self.calls.clear()
        return calls


class Tracer:
    """In-memory span recorder.

    A span is [name, start, end, parent index, replication, round, note];
    times are ``time.perf_counter`` seconds.  The replication is taken
    from the (seed, replication, substream) calls the experiment makes
    to ``simulate.derive_seed``; spans outside a replication carry the
    last one seen, or None.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.replication: int | None = None
        self.round: int | None = None
        self.hooked: list[str] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.replication,
                      self.round, note(args) if note else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            record = [GC, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                      self.replication, self.round, info.get("generation")]
            self._stack.append(len(self.spans))
            self.spans.append(record)
        elif self._stack and self.spans[self._stack[-1]][0] == GC:
            self.spans[self._stack.pop()][2] = time.perf_counter()

    def _seed_hook(self, fn):
        @functools.wraps(fn)
        def derive_seed(seed, *indices):
            if len(indices) >= 2:
                self.replication = indices[0]
            return fn(seed, *indices)

        return derive_seed

    def install(self, patcher: Patcher) -> None:
        """Hook every traced layer the package still has; ``hooked`` lists
        their span names, so a layer reading 0 can be told from one gone."""
        found = self.hooked
        for name, module, attr in TRACED_FUNCTIONS:
            original = _lookup(module, attr)
            if original is None:
                continue
            note = _matrix_cells if name == "assignment.solve" else None
            if patcher.replace_function(original, self.wrap(name, original, note)):
                found.append(name)
        for name, module, cls_name, attr in TRACED_ATTRIBUTES:
            cls = _lookup(module, cls_name)
            current = vars(cls).get(attr) if isinstance(cls, type) else None
            if isinstance(current, functools.cached_property):
                replacement = functools.cached_property(self.wrap(name, current.func))
                replacement.__set_name__(cls, attr)
            elif isinstance(current, property):
                replacement = property(self.wrap(name, current.fget))
            elif callable(current):
                replacement = self.wrap(name, current)
            else:
                continue
            patcher.replace_attribute(cls, attr, replacement)
            found.append(name)
        seed_fn = _lookup("schoolmatch.simulate", "derive_seed")
        if seed_fn is not None:
            patcher.replace_function(seed_fn, self._seed_hook(seed_fn))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


def _matrix_cells(args) -> int:
    shape = np.shape(args[0]) if args else ()
    return int(np.prod(shape)) if len(shape) == 2 else 0


# Per-layer metrics as (metric, span name): PER_REP divides the layer's
# self time by replications, PER_CALL by the layer's calls.
PER_REP = (
    ("simulate.generate_market_ms", "simulate.generate_market"),
    ("simulate.manipulation_ms", "simulate.manipulation"),
    ("simulate.csv_ms", "simulate.csv"),
    ("market.load_ms", "market.load"),
    ("market.rank_table_ms", "market.rank_table"),
    ("market.priority_table_ms", "market.priority_table"),
    ("market.priority_pos_ms", "market.priority_pos"),
    ("runtime.gc_ms", GC),
)
PER_CALL = (
    ("mechanisms.da_ms", "mechanisms.da"),
    ("mechanisms.ttc_ms", "mechanisms.ttc"),
    ("mechanisms.rsd_ms", "mechanisms.rsd"),
    ("mechanisms.rm_overhead_ms", "mechanisms.rm"),
    ("assignment.solve_ms", "assignment.solve"),
    ("metrics.rank_stats_ms", "metrics.rank_stats"),
    ("metrics.justified_envy_ms", "metrics.justified_envy"),
)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list[list], reps: int) -> tuple[dict, dict, list[str]]:
    """Per-layer figures in ms (counts where named); each span name's
    self time per replication, calls per replication and share of
    ``simulate.rep_ms``; and any accounting problems: a span name no
    metric covers, a span outside its parent's interval, or a negative
    self time."""
    # Only spans inside a round count; a collection between two rounds
    # belongs to the benchmark, not to a replication.
    inside: list[bool] = []
    for s in spans:
        inside.append(s[0] == ROOT or (s[3] >= 0 and inside[s[3]]))
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    cells = 0
    for s, t, counted in zip(spans, own, inside):
        if not counted:
            continue
        total[s[0]] += t
        calls[s[0]] += 1
        if s[0] == "assignment.solve":
            cells += s[6] or 0
    rep_total = sum(s[2] - s[1] for s in spans if s[0] == ROOT)
    out = {"simulate.rep_ms": 1e3 * rep_total / reps,
           "simulate.self_ms": 1e3 * total[ROOT] / reps}
    for metric, name in PER_REP:
        out[metric] = 1e3 * total[name] / reps
    for metric, name in PER_CALL:
        out[metric] = 1e3 * total[name] / calls[name] if calls[name] else 0.0
    rm_calls = calls["mechanisms.rm"]
    out["mechanisms.rm_ms"] = (
        1e3 * (total["mechanisms.rm"] + total["assignment.solve"]) / rm_calls if rm_calls else 0.0
    )
    out["assignment.solves"] = calls["assignment.solve"] / reps
    out["assignment.matrix_cells"] = cells / calls["assignment.solve"] if calls["assignment.solve"] else 0.0

    breakdown = {
        name: {"self_ms_per_rep": 1e3 * total[name] / reps, "calls_per_rep": calls[name] / reps,
               "share": total[name] / rep_total if rep_total else 0.0}
        for name in sorted(total, key=total.get, reverse=True)
    }

    problems = []
    known = {ROOT} | {name for _, name in PER_REP + PER_CALL}
    unknown = sorted(set(total) - known)
    if unknown:
        problems.append(f"spans no metric covers: {unknown}")
    # Self times add up to the root spans by construction; what can go
    # wrong is the nesting they rest on, e.g. a collection whose "stop"
    # callback never came, which would leave an open span as the parent
    # of everything after it.
    for i, (s, counted) in enumerate(zip(spans, inside)):
        if not counted:
            continue
        if s[2] < s[1]:
            problems.append(f"span {i} ({s[0]}) ends before it starts")
            break
        if s[0] != ROOT:
            parent = spans[s[3]]
            if not parent[1] <= s[1] <= s[2] <= parent[2]:
                problems.append(f"span {i} ({s[0]}) lies outside its parent {s[3]} ({parent[0]})")
                break
    worst = min((t for t, counted in zip(own, inside) if counted), default=0.0)
    if worst < -1e-4:
        problems.append(f"negative self time {worst:.6f}s")
    return out, breakdown, problems
