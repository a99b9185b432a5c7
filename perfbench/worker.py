"""One workload in one fresh interpreter; started by run.py.

Set-up imports the package, builds the seeded inputs and runs one untimed
warm-up op per cell, then prints ``ready``: run.py times set-up from
spawning this process to that line.  With --setup-only it stops there.

The timed phase is one single-threaded closed loop over whole rounds.  A
round runs every op once, in an order shuffled per round from the seed,
so every cell samples the whole phase and drift on the host is spread
over all cells alike.  Rounds repeat until the next one would end more
than half a round past --seconds.  With --trace 1 each op of a round runs
untraced and traced back to back, and one counting round follows.

Every op is followed by one untimed run of the host-speed probe, and the
end-to-end times are the op latencies on the probe's scale: each over the
mean of the probes right before and after it (probe.py).

Outputs are checked after the timed phase: the first output of every op
by its independent check, and every later one by equality with the first.
The last line printed is one JSON object: correct, attempted, failed and
the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import probe  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = HERE / "out"


class Runner:
    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.rounds = 0
        self.attempted = self.failed = 0
        self.latencies: dict[str, list[float]] = {}
        # latency over the mean of the probes right before and after, in
        # reference ms
        self.ref_ms: dict[str, list[float]] = {}
        self.probe_s = probe.probe()  # the latest probe's latency
        self.first: dict[tuple[str, str], object] = {}
        self.raised: list[str] = []  # ops that failed
        self.wrong: list[str] = []  # outputs that failed a check

    def run_op(self, op: workloads.Op, counted: bool = True) -> float:
        """Run one op, then the probe; return the op's latency (0 if it
        failed).  Only ops of whole rounds count as attempted or failed.
        The probe after one op is the probe before the next."""
        self.attempted += counted
        try:
            output, seconds = op.run()
        except (Exception, SystemExit):
            self.failed += counted
            self.raised.append(f"{op.cell} {op.key} raised:\n{traceback.format_exc()}")
            return 0.0
        before, self.probe_s = self.probe_s, probe.probe()
        ref_ms = seconds / ((before + self.probe_s) / 2) * probe.REFERENCE_MS
        self.latencies.setdefault(op.cell, []).append(seconds)
        self.ref_ms.setdefault(op.cell, []).append(ref_ms)
        first = self.first.setdefault((op.cell, op.key), output)
        if output is not first and output != first:
            self.wrong.append(f"{op.cell} {op.key}: output differs between rounds")
        return seconds

    def warm_up(self) -> None:
        seen = set()
        for op in self.workload.ops:
            if op.cell not in seen:
                seen.add(op.cell)
                self.run_op(op, counted=False)
        self.latencies.clear()
        self.ref_ms.clear()

    def run_round(self, run_op=None) -> None:
        run_op = run_op or self.run_op
        ops = list(self.workload.ops)
        random.Random(f"{self.seed}:order:{self.rounds}").shuffle(ops)
        for op in ops:
            run_op(op)
        self.rounds += 1

    def run_for(self, seconds: float, run_op=None) -> float:
        """Whole rounds for about ``seconds``; returns the wall time taken."""
        start, rounds = perf_counter(), 0
        while True:
            self.run_round(run_op)
            rounds += 1
            elapsed = perf_counter() - start
            if elapsed + 0.5 * elapsed / rounds >= seconds:
                return elapsed

    def check(self) -> bool:
        """Check the first output of every op that did not fail."""
        for op in self.workload.ops:
            output = self.first.get((op.cell, op.key))
            if output is not None:
                problem = op.check(output)
                if problem:
                    self.wrong.append(f"{op.cell} {op.key}: {problem}")
        if self.workload.name == "exhaustive":
            problem = workloads.running_example_problem()
            if problem:
                self.wrong.append(problem)
        return not self.wrong


def timed_run(runner: Runner, seconds: float) -> dict:
    wall = runner.run_for(seconds)
    completed = runner.attempted - runner.failed
    ref_s = sum(map(sum, runner.ref_ms.values())) / 1000
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (completed / ref_s, "1/ref_s"),
        "lo_p50_ms": (statistics.median(runner.ref_ms[runner.workload.lo]), "ref_ms"),
        "hi_p50_ms": (statistics.median(runner.ref_ms[runner.workload.hi]), "ref_ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    print(f"{completed / wall:.2f} ops per wall second", file=sys.stderr)
    for cell, samples in runner.latencies.items():
        print(f"{cell:>20}  n={len(samples):4}  p50={1000 * statistics.median(samples):9.3f} ms"
              f"  {statistics.median(runner.ref_ms[cell]):9.3f} ref_ms", file=sys.stderr)
    return metrics


def traced_run(runner: Runner, seconds: float, out_file: Path) -> dict:
    """Whole rounds in which every op runs twice back to back, untraced and
    traced, in alternating order, for about two thirds of ``seconds``; then
    one counting round.  Pairing the two runs of an op keeps host drift out
    of the tracing overhead."""
    import tracing  # only traced runs pay for importing it

    tracer, counter = tracing.Tracer(), tracing.Counter()
    totals = {False: 0.0, True: 0.0}  # latency sums, untraced and traced
    traced_ops = 0

    def paired(op):
        nonlocal traced_ops
        for traced in (False, True) if traced_ops % 2 else (True, False):
            if traced:
                tracer.op = traced_ops
                with tracer.installed():
                    totals[True] += runner.run_op(op)
            else:
                totals[False] += runner.run_op(op)
        traced_ops += 1

    runner.run_for(2 * seconds / 3, paired)
    before = runner.attempted
    with counter.installed():
        runner.run_round()
    counted_ops = runner.attempted - before
    tracer.write(out_file)
    values = tracer.metrics(traced_ops)
    values.update(counter.metrics(counted_ops))
    values[tracing.OVERHEAD] = 100 * (totals[True] - totals[False]) / totals[False]
    print(f"{traced_ops} ops traced, {len(tracer.spans)} spans written to {out_file}",
          file=sys.stderr)
    return {name: (values[name], unit) for name, unit in tracing.PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(workload, args.seed)
    runner.warm_up()
    # keep the benchmark's own inputs out of the collector's scans, so
    # collections cost what the ops allocate, whatever the seed's inputs
    gc.collect()
    gc.freeze()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        out_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        metrics = traced_run(runner, args.seconds, out_file)
    else:
        metrics = timed_run(runner, args.seconds)
    correct = runner.check()
    for problem in (runner.raised + runner.wrong)[:20]:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
