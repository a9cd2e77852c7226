"""One workload process: set up, warm up, then time ops in whole rounds.

Started by `run.py`.  It prints ``ready <digest>`` once set-up (imports,
input generation, one warm-up op) is done; with ``--setup-only`` it exits
there.  Otherwise it runs the workload's round of
inputs again and again, each op followed by its untimed check, for
``--seconds`` of wall time, and prints one JSON line with the metrics.  With
``--trace 1`` the first half of the time runs untraced and the second half
traced, which gives both the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}
sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_rounds(ops, kernel, seconds, log, min_rounds=1, begin_op=None):
    """Whole rounds of ops for about `seconds` of wall time, and at least `min_rounds`.

    A new round starts only while one more round as long as the last one
    still fits.  The kernel is timed once before the first op and after
    every op and its check (see `stats`).  Returns (op times, kernel times, verdicts,
    rounds).
    """
    times, cal, passed = [], [stats.calibrate(kernel)], []
    rounds = 0
    start = perf_counter()
    round_s = 0.0
    while rounds < min_rounds or perf_counter() - start + round_s <= seconds:
        round_start = perf_counter()
        for op in ops:
            if begin_op is not None:
                begin_op(len(times))
            t0 = perf_counter()
            try:
                result = op.run()
                ok = True
            except Exception:
                ok = False
                log(traceback.format_exc())
            elapsed = perf_counter() - t0
            if ok:
                try:
                    op.check(result)
                except workloads.CheckFailed as exc:
                    ok = False
                    log(f"check failed: {type(op).__name__}: {exc}\n")
            times.append(elapsed)
            passed.append(ok)
            cal.append(stats.calibrate(kernel))
        rounds += 1
        round_s = perf_counter() - round_start
    return times, cal, passed, rounds


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {
            k: os.environ.get(k, "unset")
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Protocol lines go to the real stdout; the CLI's own report printing
    # goes to /dev/null so it cannot interleave with them.
    out = sys.stdout
    sys.stdout = open(os.devnull, "w")

    if Path(workloads.lib.__file__).resolve().parent != SRC / "alpvreal":
        raise SystemExit(f"imported alpvreal from {workloads.lib.__file__}, not from {SRC}")

    errors = []

    def log(text):
        if len(errors) < 20:
            errors.append(text)
            sys.stderr.write(text)

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-")
    try:
        items = inputs.build(args.workload, args.seed)
        digest = inputs.digest(items)
        ops = workloads.prepare(items, workdir)
        kernel = stats.KERNELS[args.workload]
        run_rounds(ops[:1], kernel, 0.0, log)
        print("ready", digest, file=out, flush=True)
        if args.setup_only:
            return

        result = {"digest": digest, "items": len(ops), "env": environment()}
        if args.trace:
            times, cal, passed, _ = run_rounds(ops, kernel, args.seconds / 2, log)
            rec = tracing.Recorder()
            tracing.install(rec)
            t_times, t_cal, t_passed, rounds = run_rounds(
                ops, kernel, args.seconds / 2, log, begin_op=rec.begin_op)
            layers = rec.summary(rounds)
            untraced = stats.summary(times, cal, passed, len(ops), kernel)[0]["ops_per_s"]
            traced = stats.summary(t_times, t_cal, t_passed, len(ops), kernel)[0]["ops_per_s"]
            layers["trace.ops_per_s_untraced"] = untraced
            layers["trace.ops_per_s_traced"] = traced
            layers["trace.overhead_pct"] = 100.0 * (untraced - traced) / untraced
            rec.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in tracing.LAYER_METRICS}
            result.update(notes={"trace.ops_per_s_traced": f"({rounds} traced rounds; "
                                                            "per-layer values are per round)"})
            passed = passed + t_passed
        else:
            times, cal, passed, rounds = run_rounds(ops, kernel, args.seconds, log, stats.MIN_ROUNDS)
            values, notes = stats.summary(times, cal, passed, len(ops), kernel)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
            notes["ops_per_s"] = f"({rounds} rounds) " + notes["ops_per_s"]
            result.update(notes=notes, setup_scale=kernel.ref_s / statistics.median(cal))
        result.update(metrics=metrics, attempted=len(passed), failed=passed.count(False))
        print(json.dumps(result), file=out, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
