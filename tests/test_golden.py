"""Byte-for-byte CSV goldens for the ``simulate``, ``manipulate`` and
``evaluate`` CLI.

Each case runs ``cli.main`` and compares its stdout with a committed
file under ``tests/data/``.  A change to the representation of markets
or to the mechanisms' internals must leave these bytes alone.  To
regenerate a golden after a deliberate change to the output, run the
case's arguments through ``python -m schoolmatch.cli`` from the
repository root and redirect stdout into the file, then say in the
change log which rows moved and why.
"""

from pathlib import Path

import pytest

from schoolmatch.cli import main

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
    # per-student output of the same file-loaded market
    "evaluate_small_market.csv": [
        "evaluate", "--market", "tests/data/small_market.txt", "--mechanisms", "DA,TTC,RSD,RM",
        "--seed", "11",
    ],
}


@pytest.mark.parametrize("golden", sorted(CASES))
def test_cli_stdout_matches_golden(golden, capsys, monkeypatch):
    monkeypatch.chdir(DATA.parent.parent)
    assert main(CASES[golden]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (DATA / golden).read_text(encoding="utf-8")
