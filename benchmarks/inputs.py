"""Workload table and seeded input generation for the benchmark.

Everything here is written apart from the ``schoolmatch`` package: the
splitmix64 seed fold and the uniform-market draw re-implement the
seeding contract the package documents (constants in
``schoolmatch/simulate.py``), so the checks can rebuild every market a
replication saw without asking the code under test.

Run as a script to write the ``fixed-partial-n600`` market file:

    python3 benchmarks/inputs.py --out market.txt
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def derive_seed(seed: int, *indices: int) -> int:
    """splitmix64 fold: output ``i`` of the stream seeded with ``seed``,
    nested once per index."""
    s = seed & _MASK64
    for i in indices:
        x = (s + (i + 1) * _GAMMA) & _MASK64
        x = ((x ^ (x >> 30)) * _MIX_A) & _MASK64
        x = ((x ^ (x >> 27)) * _MIX_B) & _MASK64
        s = x ^ (x >> 31)
    return s


@dataclass(frozen=True)
class MarketArrays:
    """A market as plain arrays, 0-based indices.

    prefs[t] lists student t's schools best first; priorities[s] lists
    school s's students best first; capacities[s] is its seat count.
    """

    capacities: np.ndarray
    prefs: list[np.ndarray]
    priorities: list[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.prefs)

    @property
    def m(self) -> int:
        return len(self.capacities)


def uniform_market(n: int, market_seed: int) -> MarketArrays:
    """The n x n unit-capacity market whose lists are independent uniform
    permutations: one PCG64 stream, preferences drawn before priorities."""
    rng = np.random.default_rng(market_seed)
    base = np.tile(np.arange(n), (n, 1))
    prefs = rng.permuted(base, axis=1)
    priorities = rng.permuted(base, axis=1)
    return MarketArrays(np.ones(n, dtype=np.int64), list(prefs), list(priorities))


def partial_market(
    seed: int, n_students: int = 600, n_schools: int = 150, capacity: int = 4, ranked: int = 8
) -> MarketArrays:
    """Students rank a uniform random ordered subset of ``ranked`` schools;
    schools rank every student in uniform random order."""
    rng = np.random.default_rng(seed)
    prefs = np.argsort(rng.random((n_students, n_schools)), axis=1)[:, :ranked]
    priorities = rng.permuted(np.tile(np.arange(n_students), (n_schools, 1)), axis=1)
    capacities = np.full(n_schools, capacity, dtype=np.int64)
    return MarketArrays(capacities, list(prefs), list(priorities))


# External ids in the market file are spaced out (ascending with the
# index) so the file loader's id-to-index mapping is exercised.
def _student_id(t: int) -> int:
    return 10 + 3 * t


def _school_id(s: int) -> int:
    return 1000 + 7 * s


def write_market_file(market: MarketArrays, path: Path) -> None:
    """Write ``market`` in the package's documented market-file format."""
    out = ["[schools]"]
    out += [f"{_school_id(s)},{int(c)}" for s, c in enumerate(market.capacities)]
    out.append("[students]")
    for t, plist in enumerate(market.prefs):
        out.append(f"{_student_id(t)}," + ";".join(str(_school_id(int(s))) for s in plist))
    out.append("[priorities]")
    for s, plist in enumerate(market.priorities):
        out.append(f"{_school_id(s)}," + ";".join(str(_student_id(int(t))) for t in plist))
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI call made once per round.

    A round runs ``reps`` replications per experiment config; simulate
    has one config, manipulate one per share.  ``round_s`` is the
    wall time of one round of the code this benchmark was written
    against, on the reference host in the README; a run of S seconds
    makes ``rounds(S)`` rounds whatever the program's speed, so that
    two commits are measured over the same work.  The CLI seed of round i
    in a run with seed S is derive_seed(base_seed, S, i).  A fixed-market
    workload draws its one market file from base_seed, so every run
    solves the same market and S varies only the mechanisms' seeds.
    """

    name: str
    command: str
    base_seed: int
    reps: int
    n: int
    mechanisms: tuple[str, ...]
    round_s: float
    shares: tuple[float, ...] = ()
    fixed_market: bool = False

    @property
    def reps_per_round(self) -> int:
        return self.reps * (len(self.shares) if self.command == "manipulate" else 1)

    def rounds(self, seconds: float) -> int:
        return max(2, round(seconds / self.round_s))

    def round_seed(self, seed: int, round_index: int) -> int:
        return derive_seed(self.base_seed, seed, round_index)

    def argv(self, seed: int, round_index: int, market_file: str | None) -> list[str]:
        args = [self.command]
        if self.fixed_market:
            args += ["--market", market_file]
        else:
            args += ["--n", str(self.n)]
        if self.command == "manipulate":
            args += ["--kind", "drop_assigned", "--shares", ",".join(f"{x:g}" for x in self.shares)]
        args += ["--mechanisms", ",".join(self.mechanisms)]
        args += ["--reps", str(self.reps), "--seed", str(self.round_seed(seed, round_index))]
        return args

    def fixed_market_arrays(self) -> MarketArrays:
        return partial_market(self.base_seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("uniform-rm-n500", "simulate", 22040500, reps=4, n=500,
                 mechanisms=("RM", "TTC", "DA"), round_s=1.6),
        Workload("stable-n1000", "simulate", 22041000, reps=2, n=1000,
                 mechanisms=("DA", "TTC", "RSD"), round_s=1.5),
        Workload("manipulate-n200", "manipulate", 22040200, reps=5, n=200,
                 mechanisms=("RM",), round_s=1.8, shares=(0.0, 0.4, 0.8)),
        Workload("fixed-partial-n600", "simulate", 22040600, reps=3, n=600,
                 mechanisms=("RM", "TTC", "DA", "RSD"), round_s=1.7,
                 fixed_market=True),
    )
}


def main() -> None:
    parser = argparse.ArgumentParser(description="Write the fixed-partial-n600 market file.")
    parser.add_argument("--out", required=True, help="path of the market file to write")
    args = parser.parse_args()
    write_market_file(WORKLOADS["fixed-partial-n600"].fixed_market_arrays(), Path(args.out))


if __name__ == "__main__":
    main()
