import math
from pathlib import Path

import pytest

from schoolmatch import cli
from schoolmatch.cli import _build_parser, main
from schoolmatch.market import save_market
from schoolmatch.mechanisms import _RM_MEMO
from schoolmatch.simulate import CSV_HEADER, ExperimentError, generate_uniform_market

from oracles import counted_solves


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


def test_manipulate_config_file(tmp_path, capsys):
    flags = ["--n", "8", "--reps", "3", "--seed", "4", "--mechanisms", "RM,DA",
             "--kind", "drop_first", "--shares", "0,0.5"]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n=8\nreps=3\nseed=4\nmechanisms=RM,DA\nkind=drop_first\nshares=0,0.5\n")
    code, from_flags, _ = run_cli(capsys, "manipulate", *flags)
    assert code == 0 and from_flags.startswith(CSV_HEADER + "\nRM,8,3,")
    code, from_config, _ = run_cli(capsys, "manipulate", "--config", str(cfg))
    assert code == 0 and from_config == from_flags
    # explicit flags win over the config file
    code, from_config, _ = run_cli(capsys, "manipulate", "--config", str(cfg), "--shares", "1")
    _, from_flags, _ = run_cli(capsys, "manipulate", *flags[:-1], "1")
    assert code == 0 and from_config == from_flags
    assert from_flags.split("\n")[-2].startswith("RM[drop_first=1],8,3,")


@pytest.mark.parametrize("argv, defaults", [
    pytest.param(["simulate"], dict(n=100, reps=1000, seed=0, mechanisms=("RM", "TTC", "DA"),
                                    thresholds=None, market=None), id="simulate"),
    pytest.param(["manipulate"], dict(n=100, reps=100, seed=0, mechanisms=("RM", "TTC", "DA"),
                                      kind="drop_assigned", shares=(0, 0.2, 0.4, 0.6, 0.8)),
                 id="manipulate"),
    pytest.param(["evaluate", "--market", "m.txt"], dict(seed=0, mechanisms=("DA",), market="m.txt"),
                 id="evaluate"),
])
def test_experiment_flag_defaults(argv, defaults):
    # each subcommand keeps its own defaults for the flags they share
    parser, _ = _build_parser()
    parsed = {**vars(parser.parse_args(argv))}
    assert parsed.pop("command") == argv[0]
    assert parsed.pop("func").__name__ == f"_cmd_{argv[0]}"
    assert parsed.pop("out") is None
    if argv[0] != "evaluate":
        assert parsed.pop("config") is None
    assert parsed == defaults


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", ["simulate", "manipulate", "evaluate"])
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, command, seed):
    # one rule for every subcommand: a seed of 2**64 would alias seed 0
    market = str(Path(__file__).parent / "data" / "small_market.txt")
    argv = ["--market", market] if command == "evaluate" else ["--n", "6", "--reps", "2"]
    out_file = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, command, *argv, "--seed", str(seed), "--out", str(out_file))
    assert code == 2 and out == ""
    assert err == f"error: seed must lie in [0, 2**64), got {seed}\n"
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["simulate", "manipulate", "evaluate"])
def test_largest_seed_runs(capsys, command):
    market = str(Path(__file__).parent / "data" / "small_market.txt")
    argv = ["--market", market] if command == "evaluate" else ["--n", "6", "--reps", "2"]
    code, out, err = run_cli(capsys, command, *argv, "--seed", str(2**64 - 1))
    assert code == 0 and err == ""
    assert out.startswith("mechanism,")


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


def test_evaluate_undecodable_market(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"[schools]\n0,1\n\xff\n")
    code, _, err = run_cli(capsys, "evaluate", "--market", str(path))
    assert code == 2
    assert "line 3: not UTF-8 text (byte 0xff: invalid start byte)" in err


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


def test_manipulate_solves_each_truthful_rm_once(capsys, monkeypatch):
    solves = counted_solves(monkeypatch)
    code, _, _ = run_cli(capsys, "manipulate", "--n", "12", "--reps", "4",
                         "--shares", "0,0.4", "--mechanisms", "RM")
    assert code == 0
    # 4 truthful and 4 at share 0.4; solving per share and call made 16
    assert len(solves) == 8
    assert _RM_MEMO.get() is None


@pytest.mark.parametrize("error, code", [
    pytest.param(ExperimentError("replication 0: failed"), 1, id="replication"),
    pytest.param(ValueError("refused"), 2, id="validation"),
])
def test_manipulate_drops_its_memo_on_error(capsys, monkeypatch, error, code):
    memos = []
    run_experiment = cli.run_experiment

    def second_share_fails(config):
        memos.append(dict(_RM_MEMO.get()))
        if len(memos) == 2:
            raise error
        return run_experiment(config)

    monkeypatch.setattr(cli, "run_experiment", second_share_fails)
    assert run_cli(capsys, "manipulate", "--n", "8", "--reps", "2", "--shares", "0,0.5",
                   "--mechanisms", "RM")[0] == code
    assert len(memos[0]) == 0 and len(memos[1]) == 2  # share 0 solved each truthful RM
    assert _RM_MEMO.get() is None


def test_unexpected_error_exits_1_in_one_line(capsys, monkeypatch):
    def broken(config):
        raise RuntimeError("solver lost its way")

    monkeypatch.setattr(cli, "run_experiment", broken)
    code, out, err = run_cli(capsys, "simulate", "--n", "6", "--reps", "2")
    assert (code, out) == (1, "")
    assert err == "error: RuntimeError: solver lost its way\n"


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


@pytest.mark.parametrize("check, least", [
    pytest.param(check, least, id=check) for check, least in
    [("rsd_envy", 1), ("ttc_avg_rank", 1), ("rm_pmf", 1), ("rm_envy", 1), ("curves", 2)]
])
@pytest.mark.parametrize("n", ["0", "-5"])
def test_oracle_refuses_n_below_1(tmp_path, capsys, check, least, n):
    out_file = tmp_path / "oracle.csv"
    code, out, err = run_cli(capsys, "oracle", "--check", check, "--n", n, "--out", str(out_file))
    assert code == 2 and out == ""
    assert err == f"error: n must be at least {least}\n"
    assert not out_file.exists()


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


@pytest.mark.parametrize("command", ["simulate", "evaluate"])
def test_no_mechanisms_exits_2(capsys, command):
    market = Path(__file__).parent / "data" / "small_market.txt"
    code, out, err = run_cli(capsys, command, "--market", str(market), "--mechanisms", "")
    assert code == 2 and out == ""
    assert err == "error: nothing to run: no mechanisms and no manipulation\n"


def test_bad_mechanism_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--mechanisms", "BOSTON"])
    assert excinfo.value.code == 2
