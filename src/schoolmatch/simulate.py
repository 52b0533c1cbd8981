"""Seeded market generation, manipulation transforms and experiments.

Replication r of an experiment derives its own seeds from the master
seed through a splitmix64 hash (constants below), so any replication
can be reproduced in isolation and parallel execution cannot change
the output.  Mechanisms are re-run per replication on a fresh uniform
market (or on a fixed market loaded from a file) and the per-replication
RankStats are aggregated with standard errors.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from schoolmatch.market import Allocation, Market, effective_ranks, load_market
from schoolmatch.mechanisms import MECHANISMS, rank_minimizing, run_mechanism
from schoolmatch.metrics import RankStats, rank_stats, threshold_shares

__all__ = [
    "CSV_HEADER",
    "MANIPULATION_KINDS",
    "Manipulation",
    "ExperimentConfig",
    "ExperimentError",
    "MechanismSummary",
    "ExperimentReport",
    "derive_seed",
    "generate_uniform_market",
    "apply_manipulation",
    "run_experiment",
]

# splitmix64: output i of the stream seeded with s is mix(s + (i+1)*GAMMA).
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Substream tags used by run_experiment within one replication.
_TAG_MARKET = 0
_TAG_RSD = 1
_TAG_RM = 2
_TAG_MANIPULATION = 3


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *indices: int) -> int:
    """Fold indices into a 64-bit seed, splitmix64 style.

    derive_seed(s, i) is the i-th output of the splitmix64 stream
    seeded with s; extra indices nest streams (replication, substream).
    """
    s = seed & _MASK64
    for i in indices:
        s = _mix64((s + (i + 1) * _GAMMA) & _MASK64)
    return s


class ExperimentError(RuntimeError):
    """A replication failed; the message carries the replication index."""


def generate_uniform_market(n: int, seed: int) -> Market:
    """A market of n students and n unit-capacity schools where every
    preference and priority list is an independent uniform permutation
    (seeded Fisher-Yates)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    base = np.tile(np.arange(n), (n, 1))
    prefs = rng.permuted(base, axis=1)
    priorities = rng.permuted(base, axis=1)
    return Market(capacities=(1,) * n, prefs=prefs, priorities=priorities)


MANIPULATION_KINDS = ("drop_assigned", "drop_first")


@dataclass(frozen=True)
class Manipulation:
    """Which preference manipulation to apply, and to what share of the
    eligible students."""

    kind: str
    share: float

    def __post_init__(self) -> None:
        if self.kind not in MANIPULATION_KINDS:
            raise ValueError(
                f"unknown manipulation kind {self.kind!r}; choose from {MANIPULATION_KINDS}"
            )
        if not 0.0 <= self.share <= 1.0:
            raise ValueError(f"share must lie in [0, 1], got {self.share}")

    @property
    def label(self) -> str:
        return f"RM[{self.kind}={self.share:g}]"


def apply_manipulation(
    market: Market, baseline: Allocation, kind: str, share: float, seed: int
) -> Market:
    """Rewrite the lists of a random subset of students with an
    incentive to misreport, given their truthful rank-minimizing
    ``baseline`` assignment.

    drop_assigned targets students not assigned their first preference;
    they move their assigned school to the end of their list (a no-op
    for unassigned students, who are nevertheless eligible).
    drop_first targets students assigned neither their first nor second
    preference; they move their first-choice school to the end.  The
    manipulating subset has size round(share * eligible), drawn
    uniformly from the eligible; everyone else's list is untouched.
    """
    manipulation = Manipulation(kind, share)  # validates kind and share
    a = baseline.as_array()
    ranks = effective_ranks(market, baseline)
    eligible = np.nonzero((a < 0) | (ranks > (1 if kind == "drop_assigned" else 2)))[0]
    count = int(math.floor(manipulation.share * len(eligible) + 0.5))
    if count == 0:
        return market
    rng = np.random.default_rng(seed)
    prefs = market.pref_array.copy()
    for t in eligible[rng.choice(len(eligible), size=count, replace=False)].tolist():
        # the moved school goes to the end and the schools after it move
        # up; an unassigned student's rank k + 1 leaves nothing to move
        start = ranks[t] - 1 if kind == "drop_assigned" else 0
        tail = prefs[t, start:market.list_lengths[t]]
        tail[:] = np.roll(tail, -1)
    prefs.setflags(write=False)
    return market._replace(pref_array=prefs)


@dataclass(frozen=True)
class ExperimentConfig:
    """One replication-based experiment.

    Replication r of an experiment with master seed S uses market seed
    derive_seed(S, r, 0) and mechanism seeds derive_seed(S, r, tag), so
    every replication is independently reproducible.  With market_path
    set, the same file-loaded market is used in every replication and
    only the mechanism randomness varies.  Thresholds of None stand for
    the default cutoffs 1, 2, ln n, n/10, n/4 and n/2, where n is the
    number of students in the market (read from the file when
    market_path is set).
    """

    n: int
    replications: int
    master_seed: int
    mechanisms: tuple[str, ...] = ("RM", "TTC", "DA")
    thresholds: tuple[float, ...] | None = ()
    manipulation: Manipulation | None = None
    market_path: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))
        if self.thresholds is not None:
            object.__setattr__(self, "thresholds", tuple(float(m) for m in self.thresholds))
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be a nonnegative 64-bit integer")
        unknown = [m for m in self.mechanisms if m not in MECHANISMS]
        if unknown:
            raise ValueError(f"unknown mechanisms {unknown}; choose from {sorted(MECHANISMS)}")
        if not self.mechanisms and self.manipulation is None:
            raise ValueError("nothing to run: no mechanisms and no manipulation")


@dataclass
class _Accumulator:
    means: list[float] = field(default_factory=list)
    maxes: list[float] = field(default_factory=list)
    variances: list[float] = field(default_factory=list)
    envy_shares: list[float] = field(default_factory=list)
    unassigned: list[float] = field(default_factory=list)
    shares: list[list[float]] = field(default_factory=list)

    def add(self, stats: RankStats, cutoffs: tuple[float, ...]) -> None:
        self.means.append(stats.mean)
        self.maxes.append(float(stats.max))
        self.variances.append(stats.variance)
        self.envy_shares.append(stats.envy_share)
        self.unassigned.append(float(stats.unassigned_count))
        self.shares.append(threshold_shares(stats, cutoffs))


def _se(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


@dataclass(frozen=True)
class MechanismSummary:
    """Aggregates over replications for one mechanism (or one
    manipulated variant).  The per_rep_* arrays keep the raw
    per-replication values the aggregates were reduced from."""

    label: str
    mean: float
    se_mean: float
    max_mean: float
    se_max: float
    variance: float
    envy_share: float
    unassigned: float
    threshold_share: tuple[float, ...]
    per_rep_mean: np.ndarray
    per_rep_max: np.ndarray
    per_rep_variance: np.ndarray
    per_rep_envy_share: np.ndarray
    per_rep_unassigned: np.ndarray


CSV_HEADER = (
    "mechanism,n,reps,mean,se_mean,max_mean,se_max,variance,"
    "envy_share,unassigned,threshold_m,share_gt_m"
)


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


@dataclass(frozen=True)
class ExperimentReport:
    """Experiment output: one MechanismSummary per mechanism label."""

    config: ExperimentConfig
    n: int
    summaries: dict[str, MechanismSummary]

    def to_csv(self) -> str:
        """Long-format CSV, one row per mechanism and threshold."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for summary in self.summaries.values():
            base = [
                summary.label,
                str(self.n),
                str(self.config.replications),
                _fmt(summary.mean),
                _fmt(summary.se_mean),
                _fmt(summary.max_mean),
                _fmt(summary.se_max),
                _fmt(summary.variance),
                _fmt(summary.envy_share),
                _fmt(summary.unassigned),
            ]
            if self.config.thresholds:
                for cutoff, share in zip(self.config.thresholds, summary.threshold_share):
                    writer.writerow(base + [_fmt(cutoff), _fmt(share)])
            else:
                writer.writerow(base + ["", ""])
        return out.getvalue()


def _summarize(label: str, acc: _Accumulator) -> MechanismSummary:
    means = np.asarray(acc.means)
    maxes = np.asarray(acc.maxes)
    variances = np.asarray(acc.variances)
    envy = np.asarray(acc.envy_shares)
    unassigned = np.asarray(acc.unassigned)
    shares = np.asarray(acc.shares) if acc.shares else np.zeros((len(acc.means), 0))
    return MechanismSummary(
        label=label,
        mean=float(means.mean()),
        se_mean=_se(means),
        max_mean=float(maxes.mean()),
        se_max=_se(maxes),
        variance=float(variances.mean()),
        envy_share=float(envy.mean()),
        unassigned=float(unassigned.mean()),
        threshold_share=tuple(float(x) for x in shares.mean(axis=0)),
        per_rep_mean=means,
        per_rep_max=maxes,
        per_rep_variance=variances,
        per_rep_envy_share=envy,
        per_rep_unassigned=unassigned,
    )


def _default_thresholds(n: int) -> tuple[float, ...]:
    return (1.0, 2.0, math.log(n), 0.1 * n, 0.25 * n, 0.5 * n)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every configured mechanism over fresh replications.

    With a manipulation configured, each replication first runs RM
    truthfully, rewrites the chosen students' lists, re-runs RM on the
    manipulated market with the same RM seed (so share 0 reproduces the
    truthful run exactly), and records statistics measured against the
    ORIGINAL preferences and priorities.
    """
    fixed = load_market(config.market_path) if config.market_path else None
    n_market = fixed.n_students if fixed else config.n
    if config.thresholds is None:
        config = replace(config, thresholds=_default_thresholds(n_market))
    cutoffs = config.thresholds
    accs: dict[str, _Accumulator] = {m: _Accumulator() for m in config.mechanisms}
    manip_label = config.manipulation.label if config.manipulation else None
    if manip_label:
        accs[manip_label] = _Accumulator()

    for r in range(config.replications):
        try:
            market = fixed or generate_uniform_market(
                config.n, derive_seed(config.master_seed, r, _TAG_MARKET)
            )
            rm_seed = derive_seed(config.master_seed, r, _TAG_RM)
            rsd_seed = derive_seed(config.master_seed, r, _TAG_RSD)
            rm_alloc: Allocation | None = None
            for mech in config.mechanisms:
                if mech == "RM":
                    alloc = rm_alloc = rank_minimizing(market, rm_seed)
                else:
                    alloc = run_mechanism(mech, market, rsd_seed)
                accs[mech].add(rank_stats(market, alloc), cutoffs)
            if config.manipulation is not None:
                if rm_alloc is None:
                    rm_alloc = rank_minimizing(market, rm_seed)
                manipulated = apply_manipulation(
                    market,
                    rm_alloc,
                    config.manipulation.kind,
                    config.manipulation.share,
                    derive_seed(config.master_seed, r, _TAG_MANIPULATION),
                )
                re_run = rank_minimizing(manipulated, rm_seed)
                accs[manip_label].add(rank_stats(market, re_run), cutoffs)
        except Exception as exc:
            raise ExperimentError(f"replication {r}: {exc}") from exc

    summaries = {label: _summarize(label, acc) for label, acc in accs.items()}
    return ExperimentReport(config=config, n=n_market, summaries=summaries)
