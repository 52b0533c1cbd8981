import math
from pathlib import Path

import pytest

from schoolmatch.cli import main
from schoolmatch.market import save_market
from schoolmatch.simulate import CSV_HEADER, generate_uniform_market


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_emits_table_shaped_csv(capsys):
    code, out, err = run_cli(
        capsys,
        "simulate", "--n", "20", "--reps", "5", "--seed", "42",
        "--mechanisms", "RM,TTC,DA",
    )
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    mechanisms = {line.split(",")[0] for line in lines[1:]}
    assert mechanisms == {"RM", "TTC", "DA"}
    # default threshold grid: 1, 2, log n, 0.1n, 0.25n, 0.5n, each once;
    # at n=20 the cutoff 0.1n repeats 2 and is dropped
    assert len(lines) == 1 + 3 * 5


def test_simulate_reproducible_output(capsys):
    args = ("simulate", "--n", "15", "--reps", "8", "--seed", "7")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_simulate_out_file(tmp_path, capsys):
    out_file = tmp_path / "result.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "10", "--reps", "3", "--seed", "1", "--out", str(out_file)
    )
    assert code == 0
    assert out == ""
    assert out_file.read_text().startswith("mechanism,")


def test_simulate_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n=10\nreps=4\nseed=3\nmechanisms=RM\n")
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("RM,10,4,") for line in lines[1:])
    # explicit flags win over the config file
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--reps", "2")
    assert all(line.startswith("RM,10,2,") for line in out.strip().split("\n")[1:])


@pytest.mark.parametrize("line, message", [
    pytest.param("bogus=1", "unknown config key 'bogus'", id="unknown_key"),
    pytest.param("mechanisms=BOSTON", "argument --mechanisms: unknown mechanisms ['BOSTON']",
                 id="bad_mechanism"),
    pytest.param("n=abc", "argument --n: invalid int value: 'abc'", id="bad_int"),
])
def test_simulate_bad_config_key(tmp_path, capsys, line, message):
    # a bad value is refused by its flag's type, as the same flag would be
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(line + "\n")
    try:
        code = main(["simulate", "--config", str(cfg)])
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err


def test_evaluate_per_student_ranks(tmp_path, capsys):
    market = generate_uniform_market(4, 11)
    path = tmp_path / "market.txt"
    save_market(market, path)
    code, out, err = run_cli(
        capsys, "evaluate", "--market", str(path), "--mechanisms", "DA,RM", "--seed", "5"
    )
    assert code == 0, err
    lines = out.strip().split("\n")
    assert lines[0] == "mechanism,student_id,school_id,rank"
    assert len(lines) == 1 + 2 * 4
    for line in lines[1:]:
        mech, student, school, rank = line.split(",")
        assert mech in {"DA", "RM"}
        assert 1 <= int(rank) <= 5


def test_simulate_market_file_default_thresholds(tmp_path, capsys):
    path = tmp_path / "market.txt"
    save_market(generate_uniform_market(12, 4), path)
    code, out, err = run_cli(
        capsys, "simulate", "--market", str(path), "--reps", "2", "--mechanisms", "DA"
    )
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [row[1] for row in rows] == ["12"] * 6
    cutoffs = [float(row[10]) for row in rows]
    assert cutoffs == pytest.approx([1, 2, math.log(12), 1.2, 3, 6])


def test_evaluate_missing_file(capsys):
    code, _, err = run_cli(capsys, "evaluate", "--market", "/nonexistent/m.txt")
    assert code == 2
    assert "error" in err


def test_evaluate_invalid_market(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("[schools]\n0,1\n")
    code, _, err = run_cli(capsys, "evaluate", "--market", str(path))
    assert code == 2
    assert "no students" in err


def test_manipulate_blocks_per_share(capsys):
    code, out, _ = run_cli(
        capsys,
        "manipulate", "--kind", "drop_first", "--shares", "0,0.4",
        "--n", "12", "--reps", "4", "--seed", "2", "--mechanisms", "RM",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["RM", "RM[drop_first=0]", "RM", "RM[drop_first=0.4]"]


@pytest.mark.parametrize("config, argv, message", [
    pytest.param(None, ["--shares", "0,1.5"], "share must lie in [0, 1], got 1.5", id="bad_share"),
    # a config kind= skips argparse's choices, so it is checked ahead of the shares
    pytest.param("kind=bogus\n", ["--shares", ""], "unknown manipulation kind 'bogus'",
                 id="bad_config_kind"),
    pytest.param(None, ["--shares", ""], "no shares to run: --shares is empty", id="no_shares"),
])
def test_manipulate_refuses_before_running(tmp_path, capsys, monkeypatch, config, argv, message):
    calls = []
    monkeypatch.setattr("schoolmatch.cli.run_experiment", calls.append)
    if config:
        (tmp_path / "exp.cfg").write_text(config)
        argv = argv + ["--config", str(tmp_path / "exp.cfg")]
    code, out, err = run_cli(capsys, "manipulate", "--n", "300", "--reps", "20", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")
    assert calls == []


@pytest.mark.parametrize("argv, config, message", [
    pytest.param(["manipulate", "--mechanisms", "RM", "--shares", "0.5,0.5"], None,
                 "argument --shares: repeated values [0.5]; give each once", id="shares"),
    pytest.param(["simulate", "--thresholds", "1,1"], None,
                 "argument --thresholds: repeated values [1.0]; give each once", id="thresholds"),
    pytest.param(["simulate"], "thresholds=1,2,1.0\n",
                 "argument --thresholds: repeated values [1.0]; give each once",
                 id="config_thresholds"),
])
def test_repeated_list_value_exits_2(tmp_path, capsys, argv, config, message):
    # a repeated share or cutoff would rerun its work and repeat its rows
    if config:
        (tmp_path / "exp.cfg").write_text(config)
        argv = argv + ["--config", str(tmp_path / "exp.cfg")]
    try:
        code = main(argv + ["--n", "6", "--reps", "2", "--seed", "1"])
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


def test_oracle_rsd_envy(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--check", "rsd_envy", "--n", "2000")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "check,n,value,source"
    value = float(lines[1].split(",")[2])
    assert abs(value - 0.6137) < 5e-3


def test_oracle_unknown_check(capsys):
    code, _, err = run_cli(capsys, "oracle", "--check", "nope")
    assert code == 2
    assert "unknown check" in err


def test_oracle_curves(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--check", "curves", "--n", "100")
    assert code == 0
    assert "curve_max[DA]" in out


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--frobnicate", "1"])
    assert excinfo.value.code == 2


def test_repeated_mechanism_exits_2(capsys):
    code, out, err = run_cli(capsys, "simulate", "--n", "6", "--reps", "3", "--mechanisms", "DA,DA")
    assert code == 2 and out == ""
    assert err.startswith("error: repeated mechanisms ['DA']")


def test_evaluate_repeated_mechanism_exits_2(capsys):
    path = Path(__file__).parent / "data" / "small_market.txt"
    code, out, err = run_cli(capsys, "evaluate", "--market", str(path), "--mechanisms", "DA,DA")
    assert code == 2 and out == ""
    assert err == "error: repeated mechanisms ['DA']; name each once\n"


def test_bad_mechanism_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--mechanisms", "BOSTON"])
    assert excinfo.value.code == 2
