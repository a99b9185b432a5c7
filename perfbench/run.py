"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload perm_route --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its
``src``.  Each workload runs in a fresh interpreter (worker.py), so set-up
time and peak memory are its own.  Set-up is timed from spawning a worker
to its ``ready`` line; it is sampled in SETUP_SAMPLES workers, all but
the last of which stop after set-up, and setup_s is their median.

With --trace 0 the result holds the end-to-end metrics, with --trace 1
the per-layer ones; see README.md.  Exits non-zero, printing no result,
when the package is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("perm_route", "family_route", "reject", "exhaustive")
SETUP_SAMPLES = 7
# seconds allowed beyond --seconds for the set-ups and the checks
DEADLINE_MARGIN_S = 150


class WorkerFailed(Exception):
    pass


def run_worker(argv: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds until its ready line, the rest of its stdout)."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(WORKER), *argv], stdout=subprocess.PIPE, text=True
    ) as proc:
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - start
            rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise WorkerFailed("worker passed the deadline")
    if ready != "ready\n" or proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    return setup, rest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "positroids" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'positroids'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + args.seconds + DEADLINE_MARGIN_S
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [] if args.trace else [
            run_worker(argv + ["--setup-only"], deadline)[0]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        setup, rest = run_worker(argv, deadline)
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    result = json.loads(rest.strip().splitlines()[-1])
    if not args.trace:
        setups.append(setup)
        print("setup samples: " + " ".join(f"{s:.3f}" for s in setups), file=sys.stderr)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
