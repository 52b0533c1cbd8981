"""Benchmark entry point: one run of one workload.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; nothing is installed.  The run:

1. starts the measuring process (``worker.py``), which calls
   ``schoolmatch.cli.main`` in the workload's fixed number of rounds
   (about S seconds of the code the benchmark was written against),
   times a set-up probe after each round, and checks every round's
   allocations and CSV;
2. writes the result with its manifest to ``benchmarks/out/`` and
   prints it as the last line of stdout.

Every child gets numpy's thread pools pinned to one thread.  With
``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json``; with ``--trace 1`` its ``per_layer`` ones, and the
spans go to ``benchmarks/out/<workload>-seed<N>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# The whole run, probes and checks included, must end well within 180 s.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], env: dict[str, str], deadline: float) -> tuple[float, dict]:
    """Start worker.py; return (monotonic time at start, its JSON line)."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), *args],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("benchmark: worker ran past the deadline")
    if proc.returncode != 0:
        sys.exit(f"benchmark: worker exited with {proc.returncode}")
    return started, json.loads(stdout.strip().splitlines()[-1])


def version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def manifest(env: dict[str, str]) -> dict:
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "threads": {var: env[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "schoolmatch" / "cli.py").is_file():
        print(f"benchmark: no program source at {SRC / 'schoolmatch'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from inputs import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    worker_args = ["--workload", workload.name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if workload.fixed_market:
        worker_args += ["--market-file", str(OUT / f"{stem}.market.txt")]
    if args.trace:
        worker_args += ["--spans-out", str(OUT / f"{stem}.spans.jsonl")]

    # Metric names and units are the ones BENCHMARK.json declares.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace
                                                                   else "end_to_end"]
    env = child_env()
    started, result = run_child(worker_args, env, deadline)
    setup = [result["ready"] - started, *result["setup_samples_s"]]

    if args.trace:
        values = result["layers"]
    else:
        values = {"reps_per_s": result["reps_per_s"], "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
    if set(values) != {m["name"] for m in declared}:
        sys.exit(f"benchmark: measured {sorted(values)}, BENCHMARK.json declares "
                 f"{sorted(m['name'] for m in declared)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    line = {"correct": not result["problems"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    record = dict(line, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setup, rounds=result["rounds"],
                  problems=result["problems"], breakdown=result.get("breakdown"),
                  hooked=result.get("hooked"),
                  argv_round0=workload.argv(args.seed, 0, "FILE"),
                  manifest=manifest(env))
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
