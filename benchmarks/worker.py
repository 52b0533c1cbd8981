"""One benchmark run in a fresh process; started by ``run.py``.

Imports ``schoolmatch`` from the checkout's ``src/`` and calls
``schoolmatch.cli.main`` for the workload's fixed number of rounds,
recording every mechanism's allocation.  Between two rounds it starts
one set-up probe: this file again with ``--probe``, which only imports
the package.  The probes are spread over the run so that set-up is
timed in the same host conditions as the rounds.  With ``--trace 1``
each layer is wrapped in spans as well.  After the timed rounds it
re-runs round 0 with no hooks at all and compares the CSV bytes, then
checks every round with ``checks.py``.  Prints one JSON line.

With ``--probe`` it only imports the package and prints the monotonic
time at which the import returned.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import schoolmatch.cli  # noqa: E402  (set-up time ends once this import is done)

T_READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from inputs import WORKLOADS, write_market_file  # noqa: E402
from spans import Capture, Patcher, Tracer, ROOT, layer_metrics  # noqa: E402


def call_main(argv: list[str], main) -> tuple[bool, str]:
    """Run the CLI with stdout captured; (exited with 0, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except (Exception, SystemExit):
        traceback.print_exc()
        return False, out.getvalue()
    return code == 0, out.getvalue()


def setup_probe(src: str) -> float:
    """Seconds from spawning a probe until its import of the package returned."""
    started = time.monotonic()
    out = subprocess.run([sys.executable, __file__, "--probe", "--src", src],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out)["ready"] - started


def timed_rounds(workload, seed: int, count: int, market_file, tracer, src: str):
    """``count`` whole rounds, a set-up probe after each:
    ([(ok, wall seconds, csv, calls)], [probe seconds])."""
    patcher = Patcher()
    capture = Capture()
    capture.install(patcher)
    main = schoolmatch.cli.main
    if tracer is not None:
        tracer.install(patcher)
        main = tracer.wrap(ROOT, main)
    rounds, probes = [], []
    try:
        for i in range(count):
            argv = workload.argv(seed, i, market_file)
            if tracer is not None:
                tracer.round = i
            t0 = time.perf_counter()
            ok, text = call_main(argv, main)
            t1 = time.perf_counter()
            rounds.append((ok, t1 - t0, text, capture.take()))
            probes.append(setup_probe(src))
        return rounds, probes
    finally:
        if tracer is not None:
            tracer.uninstall()
        patcher.restore()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--market-file")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    package = Path(schoolmatch.cli.__file__).resolve()
    if Path(args.src).resolve() not in package.parents:
        sys.exit(f"schoolmatch imported from {package}, not from {args.src}")
    if args.probe:
        print(json.dumps({"ready": T_READY}))
        return

    workload = WORKLOADS[args.workload]
    if workload.fixed_market:
        write_market_file(workload.fixed_market_arrays(), Path(args.market_file))
    tracer = Tracer() if args.trace else None
    rounds, probes = timed_rounds(workload, args.seed, workload.rounds(args.seconds),
                                  args.market_file, tracer, args.src)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    ok0, csv0 = call_main(workload.argv(args.seed, 0, args.market_file), schoolmatch.cli.main)
    if not ok0 or csv0 != rounds[0][2]:
        problems.append("round 0 re-run without hooks gave a different CSV"
                        + (" (traced run)" if tracer else ""))

    import checks  # scipy and networkx load only after the timed rounds
    import selftest

    problems += [f"self-test: {p}" for p in selftest.run()]
    for i, (ok, _, text, calls) in enumerate(rounds):
        if ok:
            problems += [f"round {i}: {p}" for p in checks.check_round(
                workload, args.seed, i, text, calls)]

    reps = workload.reps_per_round
    rates = [reps / seconds for ok, seconds, *_ in rounds if ok]
    result = {
        "attempted": reps * len(rounds),
        "failed": reps * sum(1 for ok, *_ in rounds if not ok),
        "problems": problems,
        "rounds": [{"ok": ok, "seconds": s} for ok, s, *_ in rounds],
        "ready": T_READY,
        "setup_samples_s": probes,
        # The slowest round: other tenants of the host change its speed
        # by up to 2x within minutes, and over ten seeds the slowest of
        # a fixed number of rounds repeated better than their median.
        "reps_per_s": min(rates, default=0.0),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        done = sum(reps for ok, *_ in rounds if ok)
        layers, breakdown, trace_problems = layer_metrics(tracer.spans, max(done, 1))
        layers["trace.reps_per_s"] = result["reps_per_s"]
        result["layers"] = layers
        result["breakdown"] = breakdown
        result["hooked"] = tracer.hooked
        result["problems"] += trace_problems
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rep, rnd, note in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "replication": rep, "round": rnd, "note": note}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
