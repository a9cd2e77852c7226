"""Seeded benchmark of the alpvreal package, one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload blackbox --seed 1 --seconds 25 --trace 0

Workloads are `blackbox`, `pipeline`, `reduce` and `simulate` (see
perfbench/README.md).  Each is a closed loop in one process: the next op
starts when the previous one has returned and been checked.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
prints the per-layer metrics of a traced run.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

This file uses the standard library only; the work happens in worker
processes (perfbench/worker.py), which this process starts, waits for,
and kills if they overrun.  The worker computes the op-time metrics; this
process measures the set-up time of several workers, half of them before
the measuring worker and half after it, and scales their median by the
factor the measuring worker took from its calibration kernel (see
perfbench/stats.py).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("blackbox", "pipeline", "reduce", "simulate")
SETUP_PROBES_EACH_SIDE = 6
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


class Worker:
    """A worker process whose set-up time is measured up to its ``ready`` line."""

    def __init__(self, args, deadline, extra=()):
        cmd = [
            sys.executable, str(WORKER),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
        ]
        start = perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(deadline - start, 0.0), self.proc.kill)
        self.timer.start()
        ready = self.proc.stdout.readline().split()
        self.setup_s = perf_counter() - start
        if len(ready) != 2 or ready[0] != "ready":
            self.finish()
            raise BenchError(f"worker did not become ready (exit code {self.proc.returncode})")
        self.digest = ready[1]

    def finish(self):
        """Wait for exit; return what the worker printed after ``ready``."""
        try:
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError(f"worker failed with exit code {self.proc.returncode}")
        return rest


def measure(args):
    deadline = perf_counter() + DEADLINE_S
    probes = []

    def probe():
        w = Worker(args, deadline, ("--setup-only",))
        w.finish()
        probes.append(w)

    if not args.trace:
        for _ in range(SETUP_PROBES_EACH_SIDE):
            probe()
    worker = Worker(args, deadline)
    lines = worker.finish().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    if not args.trace:
        for _ in range(SETUP_PROBES_EACH_SIDE):
            probe()
    workers = probes + [worker]
    digests = {w.digest for w in workers} | {result["digest"]}
    if len(digests) != 1:
        raise BenchError(f"set-up processes drew different inputs: {sorted(digests)}")
    return result, workers


def report(args, result, workers):
    metrics, notes = result["metrics"], result["notes"]
    env = result["env"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"inputs sha256={result['digest']} items/round={result['items']}")
    print(f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} " + " ".join(f"{k}={v}" for k, v in env["thread_env"].items()))
    if not args.trace:
        raw = statistics.median(w.setup_s for w in workers)
        metrics = {**metrics, "setup_s": {"value": raw * result["setup_scale"], "unit": "s"}}
        notes["setup_s"] = f"(median of {len(workers)} set-ups, raw {raw:.6g} s)"
        order = ("ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb")
        metrics = {name: metrics[name] for name in order}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']} {notes.get(name, '')}".rstrip())
    print(f"ops_attempted {result['attempted']}")
    print(f"ops_failed {result['failed']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "alpvreal" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'alpvreal'}", file=sys.stderr)
        return 2
    try:
        result, workers = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args, result, workers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
