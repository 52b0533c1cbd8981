"""Byte-for-byte CSV goldens for the ``simulate``, ``manipulate``,
``evaluate`` and ``oracle`` CLI.

Each case runs ``cli.main`` and compares its stdout with a committed
file under ``tests/data/``.  A change to the representation of markets
or to the mechanisms' internals must leave these bytes alone.  To
regenerate a golden after a deliberate change to the output, run the
case's arguments through ``python -m schoolmatch.cli`` from the
repository root and redirect stdout into the file, then say in the
change log which rows moved and why.

The mechanism tour demo's stdout, which prints the Pareto verdicts and
DA's dominating witness, has a golden too: ``demo_mechanism_tour.txt``.
The numpy ``Generator`` methods behind every draw are pinned on a few
seeds, so that a golden diff can be told apart from a numpy release
that draws differently.

A golden's bytes were recorded from the program itself, so a byte
comparison catches a change but not an error.  The ``simulate``
goldens are therefore also replayed with the benchmark's hooks and
checked by its independent code (``benchmarks/checks.py``, which
imports nothing from ``schoolmatch``): each allocation, and every CSV
row recomputed from the allocations.
"""

import runpy
from pathlib import Path

import numpy as np
import pytest

from schoolmatch.cli import main
from schoolmatch.market import Market

import oracles

DATA = Path(__file__).parent / "data"

# golden file -> CLI arguments (paths relative to the repository root)
CASES = {
    "simulate_n40.csv": [
        "simulate", "--n", "40", "--reps", "20", "--seed", "7",
        "--mechanisms", "RM,TTC,DA,RSD",
    ],
    "manipulate_drop_assigned_n30.csv": [
        "manipulate", "--n", "30", "--reps", "10", "--seed", "5",
        "--kind", "drop_assigned", "--shares", "0,0.5,1",
    ],
    "manipulate_drop_first_n30.csv": [
        "manipulate", "--n", "30", "--reps", "10", "--seed", "5",
        "--kind", "drop_first", "--shares", "0,0.5,1",
    ],
    # small_market.txt: multi-seat schools, partial lists, one student
    # with an empty list and one school with an empty priority list
    "simulate_small_market.csv": [
        "simulate", "--market", "tests/data/small_market.txt", "--reps", "25",
        "--seed", "11", "--mechanisms", "RM,TTC,DA,RSD",
    ],
    # short_supply_market.txt: 10 seats for 16 students, a zero-seat
    # school, partial lists and priorities: RM's "stay unassigned" columns
    "simulate_short_supply_market.csv": [
        "simulate", "--market", "tests/data/short_supply_market.txt", "--reps", "25",
        "--seed", "13", "--mechanisms", "RM,TTC,DA,RSD",
    ],
    # many_seat_market.txt: 400 students, 8 schools of 50 seats, 3-school
    # lists with a common school quality (oracles.write_city_market(path,
    # 400, 8, 50, 3, 24, beta=0.5)): RM picks among many optima at scale
    "simulate_many_seat_market.csv": [
        "simulate", "--market", "tests/data/many_seat_market.txt", "--reps", "20",
        "--seed", "17", "--mechanisms", "RM,TTC,DA,RSD",
    ],
    # surplus_market.txt: 60 seats at 6 schools (4 to 18 seats) for 40
    # students, seeded partial lists of 0 to 6 schools with a common
    # school quality, and one school whose priority list leaves 18
    # students out: surplus seats stay empty, no seat is trimmed first
    "simulate_surplus_market.csv": [
        "simulate", "--market", "tests/data/surplus_market.txt", "--reps", "25",
        "--seed", "19", "--mechanisms", "RM,TTC,DA,RSD",
    ],
    # per-student output of the same file-loaded market
    "evaluate_small_market.csv": [
        "evaluate", "--market", "tests/data/small_market.txt", "--mechanisms", "DA,TTC,RSD,RM",
        "--seed", "11",
    ],
    # closed-form values, printed to .10g; the README shows the n=10000 one
    "oracle_rsd_envy_n1000.csv": ["oracle", "--check", "rsd_envy", "--n", "1000"],
    "oracle_rsd_envy_n10000.csv": ["oracle", "--check", "rsd_envy", "--n", "10000"],
    "oracle_rm_envy.csv": ["oracle", "--check", "rm_envy"],
    "oracle_rm_pmf.csv": ["oracle", "--check", "rm_pmf"],
    # H_n summed over many blocks of terms, and the reference curves
    "oracle_ttc_avg_rank_n1000000.csv": ["oracle", "--check", "ttc_avg_rank", "--n", "1000000"],
    "oracle_curves_n1000.csv": ["oracle", "--check", "curves", "--n", "1000"],
}


@pytest.mark.parametrize("golden", sorted(CASES))
def test_cli_stdout_matches_golden(golden, capsys, monkeypatch):
    monkeypatch.chdir(DATA.parent.parent)
    assert main(CASES[golden]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (DATA / golden).read_text(encoding="utf-8")


# simulate golden -> its market file, or None for a uniform draw per
# replication, which the benchmark re-draws from the CLI seed
CHECKED = {
    "simulate_n40.csv": None,
    "simulate_small_market.csv": "small_market.txt",
    "simulate_short_supply_market.csv": "short_supply_market.txt",
    "simulate_many_seat_market.csv": "many_seat_market.txt",
    "simulate_surplus_market.csv": "surplus_market.txt",
}
# checks.py's Pareto test counts every listed seat as feasible, while TTC
# seats no student at a school that does not rank them (README,
# "Mechanisms"); on these files' partial priority lists that flags TTC.
TTC_PARETO_UNCHECKED = {"simulate_small_market.csv", "simulate_short_supply_market.csv"}


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _max_range(market):
    """The least and greatest max rank over RM's optima on a benchmark
    market (``inputs.MarketArrays``)."""
    return oracles.rank_minimizing_max_range(Market(
        capacities=market.capacities.tolist(), prefs=[p.tolist() for p in market.prefs],
        priorities=[p.tolist() for p in market.priorities]))[1:]


@pytest.mark.parametrize("golden", sorted(CHECKED))
def test_golden_checked_by_independent_code(golden, capsys, monkeypatch):
    # every allocation feasible; DA without a blocking pair; RSD, RM and
    # TTC Pareto optimal; RM's rank sum scipy's optimum and its max within
    # the range over optima; and every row of the golden recomputed
    pytest.importorskip("networkx")  # checks.py's Pareto test
    checks, inputs, spans = (oracles.benchmark_module(name) for name in ("checks", "inputs", "spans"))
    argv = CASES[golden]
    monkeypatch.chdir(DATA.parent.parent)
    patcher, capture = spans.Patcher(), spans.Capture()
    capture.install(patcher)
    try:
        assert main(argv) == 0
    finally:
        patcher.restore()
    text = (DATA / golden).read_text(encoding="utf-8")
    assert capsys.readouterr().out == text
    rows, problems = checks.parse_csv(text)
    assert problems == []

    labels = _arg(argv, "--mechanisms").split(",")
    reps, seed = int(_arg(argv, "--reps")), int(_arg(argv, "--seed"))
    calls = capture.take()
    assert [label for label, _ in calls] == labels * reps
    if CHECKED[golden]:
        tables = [checks.Tables(oracles.read_market_file(DATA / CHECKED[golden]))] * reps
    else:
        tables = [checks.Tables(inputs.uniform_market(
            int(_arg(argv, "--n")), inputs.derive_seed(seed, r, checks.MARKET_TAG)))
            for r in range(reps)]
    ranges = {t: _max_range(t.market) for t in set(tables)}
    cutoffs = checks._cutoffs(rows, labels[0])
    stats = {label: [] for label in labels}
    for i, (label, a) in enumerate(calls):
        r = i // len(labels)
        t = tables[r]
        found = checks.feasibility_problems(t, a)
        if label == "DA" and checks.envious_students(t, a).size:
            found.append("a blocking pair")
        if label in ("RSD", "RM") or label == "TTC" and golden not in TTC_PARETO_UNCHECKED:
            found += checks.pareto_problems(t, a)
        if label == "RM":
            eff = t.effective(a)
            if eff.sum() != t.optimum:
                found.append(f"rank sum {eff.sum()}, scipy optimum {t.optimum}")
            least, greatest = ranges[t]
            if not least <= eff.max() <= greatest:
                found.append(f"max {eff.max()} outside the range over optima [{least}, {greatest}]")
        assert found == [], f"rep {r} {label}"
        stats[label].append(checks.rep_stats(t, a, cutoffs))
    want = [row for label in labels
            for row in checks.expected_rows(label, tables[0].market.n, stats[label], cutoffs)]
    assert checks.row_problems(rows, want) == []


def test_mechanism_tour_demo_matches_golden(capsys):
    runpy.run_path(str(DATA.parent.parent / "demos" / "01_mechanism_tour.py"), run_name="__main__")
    captured = capsys.readouterr()
    assert captured.out == (DATA / "demo_mechanism_tour.txt").read_text(encoding="utf-8")


# The Generator methods every golden reads, each called as src/ calls it,
# with outputs recorded under numpy 2.4.6.  NEP 19 keeps the PCG64 bit
# stream stable but lets these methods change between releases; when one
# does, this names it, and the goldens that moved move because of it.
def _permuted_rows(rng):
    rows = np.tile(np.arange(6, dtype=np.int64), (3, 1))  # generate_uniform_market's buffer
    rng.permuted(rows, axis=1, out=rows)
    return rows.tolist()


NUMPY_DRAWS = {
    "permuted(rows, axis=1, out=rows)": (
        _permuted_rows,
        {0: [[3, 2, 5, 4, 0, 1], [4, 5, 1, 2, 0, 3], [3, 2, 0, 5, 4, 1]],
         12345: [[4, 3, 0, 2, 1, 5], [4, 2, 1, 3, 0, 5], [0, 2, 5, 3, 1, 4]],
         2**64 - 1: [[0, 3, 5, 4, 1, 2], [5, 2, 3, 0, 4, 1], [1, 4, 0, 2, 5, 3]]},
    ),
    "permutation(n)": (
        lambda rng: rng.permutation(8).tolist(),
        {0: [2, 4, 3, 6, 5, 0, 1, 7], 12345: [4, 3, 0, 2, 1, 6, 7, 5],
         2**64 - 1: [0, 4, 3, 5, 6, 1, 2, 7]},
    ),
    "choice(k, size=c, replace=False)": (
        lambda rng: rng.choice(10, size=4, replace=False).tolist(),
        {0: [2, 4, 5, 7], 12345: [3, 1, 7, 4], 2**64 - 1: [9, 8, 3, 5]},
    ),
}


@pytest.mark.parametrize("method", sorted(NUMPY_DRAWS))
def test_numpy_generator_methods_unchanged(method):
    draw, expected = NUMPY_DRAWS[method]
    for seed, values in expected.items():
        assert draw(np.random.default_rng(seed)) == values, (
            f"numpy {np.__version__}: Generator.{method} draws differently for seed {seed}"
        )
