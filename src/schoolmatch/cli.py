"""Command line front end.

Subcommands:
  simulate    replication experiment on uniform random markets -> CSV
  evaluate    run mechanisms on a market file -> per-student rank CSV
  manipulate  strategic-reporting experiment across shares -> CSV
  oracle      closed-form reference values -> CSV

Exit codes: 0 success; 2 usage or validation error (a bad flag or
--config value, an unknown config key, an invalid market file); 1 a
replication that failed at run time, or any other error, reported as
one "error: <Type>: <message>" line instead of a traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

from schoolmatch.market import UNASSIGNED, effective_ranks, load_market
from schoolmatch.mechanisms import MECHANISMS, _memoized_rm, run_mechanism
from schoolmatch.simulate import (
    MANIPULATION_KINDS,
    ExperimentConfig,
    ExperimentError,
    Manipulation,
    _check_mechanisms,
    derive_seed,
    run_experiment,
)
from schoolmatch import theory

__all__ = ["main", "entry"]


def _mechanism_list(text: str) -> tuple[str, ...]:
    names = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    unknown = [m for m in names if m not in MECHANISMS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown mechanisms {unknown}; choose from {sorted(MECHANISMS)}"
        )
    return names


def _float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    repeated = sorted({x for x in values if values.count(x) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"repeated values {repeated}; give each once")
    return values


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
        values[key.strip()] = value.strip()
    return values


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _run(args: argparse.Namespace, **fields) -> str:
    """CSV of the experiment that the shared flags and ``fields`` configure."""
    config = ExperimentConfig(n=args.n, replications=args.reps, master_seed=args.seed,
                              mechanisms=args.mechanisms, **fields)
    return run_experiment(config).to_csv()


def _cmd_simulate(args: argparse.Namespace) -> int:
    _emit(_run(args, thresholds=args.thresholds, market_path=args.market), args.out)
    return 0


def _cmd_manipulate(args: argparse.Namespace) -> int:
    # a config file's kind= is not checked against argparse's choices
    if args.kind not in MANIPULATION_KINDS:
        raise ValueError(
            f"unknown manipulation kind {args.kind!r}; choose from {MANIPULATION_KINDS}"
        )
    if not args.shares:
        raise ValueError("no shares to run: --shares is empty")
    # every share is checked before the first experiment runs
    manipulations = [Manipulation(args.kind, share) for share in args.shares]
    # every share redraws the same markets and reruns the same truthful RM
    with _memoized_rm():
        blocks = [_run(args, manipulation=manipulation) for manipulation in manipulations]
    _emit(blocks[0] + "".join(block.split("\n", 1)[1] for block in blocks[1:]), args.out)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    _check_mechanisms(args.mechanisms)
    derive_seed(args.seed)  # refuses a seed outside [0, 2**64)
    market = load_market(args.market)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["mechanism", "student_id", "school_id", "rank"])
    for i, mech in enumerate(args.mechanisms):
        allocation = run_mechanism(mech, market, derive_seed(args.seed, i))
        ranks = effective_ranks(market, allocation).tolist()
        for t, (s, rank) in enumerate(zip(allocation.assignment.tolist(), ranks)):
            school = "" if s == UNASSIGNED else str(market.school_ids[s])
            writer.writerow([mech, str(market.student_ids[t]), school, str(rank)])
    _emit(out.getvalue(), args.out)
    return 0


def _oracle_rows(check: str, n: int):
    if check in ("rm_envy", "rm_pmf") and n < 1:  # their values do not read n, their rows do
        raise ValueError("n must be at least 1")
    if check == "rsd_envy":
        value = theory.rsd_no_envy_fraction(n)
        yield check, n, value, (
            "RSD no-envy fraction; limit 2+2ln(1/2)=0.6137, envy share = 1 - value"
        )
    elif check == "rm_envy":
        yield check, n, theory.rm_envy_limit(), "1 - sum 2^(1-2i) = 1/3"
    elif check == "rm_pmf":
        for i in range(1, 11):
            yield f"rm_pmf[{i}]", n, theory.rm_rank_pmf(i), "asymptotic rank pmf 2^-i"
    elif check == "ttc_avg_rank":
        yield check, n, theory.ttc_expected_avg_rank(n), "((n+1)H_n - n)/n"
    elif check == "curves":
        for mech, (avg, mx) in theory.reference_curves(n).items():
            yield f"curve_avg[{mech}]", n, avg.value, avg.source
            yield f"curve_max[{mech}]", n, mx.value, mx.source
    else:
        raise ValueError(
            f"unknown check {check!r}; choose from "
            "rsd_envy, rm_envy, rm_pmf, ttc_avg_rank, curves"
        )


def _cmd_oracle(args: argparse.Namespace) -> int:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["check", "n", "value", "source"])
    for check, size, value, source in _oracle_rows(args.check, args.n):
        writer.writerow([check, str(size), format(value, ".10g"), source])
    _emit(out.getvalue(), args.out)
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser, argparse._SubParsersAction]:
    parser = argparse.ArgumentParser(
        prog="schoolmatch",
        description="School-choice mechanism laboratory: simulations, metrics and oracles.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="replication experiment on random markets")
    sim.add_argument("--thresholds", type=_float_list, default=None,
                     help="rank cutoffs (default 1,2,log n,0.1n,0.25n,0.5n for the "
                          "market's n students, each once)")
    sim.add_argument("--market", default=None, help="fixed market file instead of random markets")
    sim.set_defaults(func=_cmd_simulate)

    man = commands.add_parser("manipulate", help="strategic-reporting experiment across shares")
    man.add_argument("--kind", choices=MANIPULATION_KINDS, default="drop_assigned",
                     help="manipulation (default %(default)s)")
    man.add_argument("--shares", type=_float_list, default="0,0.2,0.4,0.6,0.8",
                     help="comma list of shares (default %(default)s)")
    man.set_defaults(func=_cmd_manipulate)

    ev = commands.add_parser("evaluate", help="run mechanisms on a market file")
    ev.add_argument("--market", required=True, help="market file path")
    ev.set_defaults(func=_cmd_evaluate)

    # flags shared by the experiment subcommands, declared once; a loop and
    # not argparse parents, whose shared actions would share defaults too
    for sub, reps in ((sim, 1000), (man, 100)):
        sub.add_argument("--n", type=int, default=100, help="market size (default %(default)s)")
        sub.add_argument("--reps", type=int, default=reps,
                         help="replications (default %(default)s)")
        sub.add_argument("--config", default=None,
                         help="key=value file with defaults for the flags")
    for sub, mechanisms in ((sim, "RM,TTC,DA"), (man, "RM,TTC,DA"), (ev, "DA")):
        sub.add_argument("--seed", type=int, default=0,
                         help="master seed, in [0, 2**64) (default %(default)s)")
        sub.add_argument("--mechanisms", type=_mechanism_list, default=mechanisms,
                         help="comma list from DA,TTC,RSD,RM (default %(default)s)")

    orc = commands.add_parser("oracle", help="closed-form reference values")
    orc.add_argument("--check", required=True,
                     help="rsd_envy | rm_envy | rm_pmf | ttc_avg_rank | curves")
    orc.add_argument("--n", type=int, default=1000, help="size argument (default %(default)s)")
    orc.set_defaults(func=_cmd_oracle)
    for sub in commands.choices.values():
        sub.add_argument("--out", default=None, help="write CSV here instead of stdout")
    return parser, commands


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()  # fresh per call: config defaults must not leak
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # argparse parses a string default with its flag's type; given flags win
            sub = commands.choices[args.command]
            keys = vars(sub.parse_args([])).keys() - {"config", "out", "func"}
            values = _read_config_file(args.config)
            for key in values:
                if key not in keys:
                    raise ValueError(f"unknown config key {key!r}")
            sub.set_defaults(**values)
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ExperimentError) else 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
