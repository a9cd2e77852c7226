"""Spans and counts at the package's layer boundaries, for the traced run only.

`install` rebinds module-level names of `alpvreal` to recording wrappers:
the public names the benchmark calls, the names that `cli`, `realize`,
`ioeq`, `markov`, `switched` and `fileio` bound at import and call
internally, and the benchmark's own probe-callback hook.  The package source is never edited; the rebinding lives only
in the process that calls `install`.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Per-layer metrics the traced run reports, in print order, with units.
# Times and counts are per round of the workload's inputs.
LAYER_METRICS = (
    ("markov.oracle.calls", "count/round"),
    ("markov.oracle.distinct", "count/round"),
    ("markov.oracle.useful_ratio", "ratio"),
    ("markov.oracle.busy_s", "s/round"),
    ("model.simulate.calls", "count/round"),
    ("model.simulate.busy_s", "s/round"),
    ("model.us_per_step", "us"),
    ("ioeq.check_equation.busy_s", "s/round"),
    ("switched.switched_output.busy_s", "s/round"),
    ("hankel.build_hankel.busy_s", "s/round"),
    ("hankel.build_hankel.self_s", "s/round"),
    ("hankel.cells", "count/round"),
    ("markov.markov_table.busy_s", "s/round"),
    ("markov.table_entries", "count/round"),
    ("fileio.save_table.busy_s", "s/round"),
    ("fileio.load_table.busy_s", "s/round"),
    ("fileio.save_hankel.busy_s", "s/round"),
    ("fileio.load_hankel.busy_s", "s/round"),
    ("fileio.bytes_written", "B/round"),
    ("fileio.bytes_read", "B/round"),
    ("cli.markov.busy_s", "s/round"),
    ("cli.hankel.busy_s", "s/round"),
    ("cli.realize.busy_s", "s/round"),
    ("cli.analyze.busy_s", "s/round"),
    ("realize.kalman_ho.busy_s", "s/round"),
    ("linalg.svd.calls", "count/round"),
    ("linalg.svd.busy_s", "s/round"),
    ("linalg.svd_flops_computed", "flop/round"),
    ("realize.analyze.busy_s", "s/round"),
    ("realize.minimize.busy_s", "s/round"),
    ("realize.ext_cols_computed", "count/round"),
    ("realize.find_isomorphism.busy_s", "s/round"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_pct", "%"),
)


def svd_flops(shape, with_vectors):
    """Golub-Van Loan operation counts for a thin SVD of an a x b matrix, a >= b."""
    a, b = max(shape), min(shape)
    if with_vectors:
        return 14 * a * b * b + 8 * b ** 3
    return 4 * a * b * b - 4 * b ** 3 // 3


class Recorder:
    """In-memory spans (name, start, end, parent index, op id) and counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = -1
        self.seen = set()

    def begin_op(self, op_id):
        self.op = op_id
        self.seen = set()

    def wrap(self, name, fn, counter=None):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            if counter is not None:
                counter(self, args, result)
            return result

        return wrapper

    def oracle(self, probe):
        def count(rec, args, result):
            w = args[0]
            key = (w.scheduling.tobytes(), w.inputs.tobytes())
            if key not in rec.seen:
                rec.seen.add(key)
                rec.counts["markov.oracle.distinct"] += 1

        return self.wrap("markov.oracle", probe, count)

    def summary(self, rounds):
        """Per-round layer metrics from the spans and counters."""
        busy = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[idx]
        c = self.counts
        out = {
            "markov.oracle.calls": calls["markov.oracle"],
            "markov.oracle.distinct": c["markov.oracle.distinct"],
            "markov.oracle.useful_ratio": (
                c["markov.oracle.distinct"] / calls["markov.oracle"] if calls["markov.oracle"] else 0.0
            ),
            "model.simulate.calls": calls["model.simulate"],
            "model.us_per_step": (
                1e6 * busy["model.simulate"] / c["model.steps"] if c["model.steps"] else 0.0
            ),
            "hankel.build_hankel.self_s": self_time["hankel.build_hankel"],
            "linalg.svd.calls": calls["linalg.svd"],
        }
        for key in ("hankel.cells", "markov.table_entries", "fileio.bytes_written",
                    "fileio.bytes_read", "linalg.svd_flops_computed",
                    "realize.ext_cols_computed"):
            out[key] = c[key]
        for metric, _ in LAYER_METRICS:
            if metric.endswith(".busy_s"):
                out[metric] = busy[metric[: -len(".busy_s")]]
        for metric in out:
            if metric not in ("markov.oracle.useful_ratio", "model.us_per_step"):
                out[metric] /= rounds
        return out

    def write(self, path):
        with open(path, "w") as handle:
            handle.write("op,name,start_s,end_s,parent\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{op},{name},{start:.9f},{end:.9f},{parent}\n")


def _count(key, amount):
    def counter(rec, args, result):
        rec.counts[key] += amount(args, result)

    return counter


def _file_size(path):
    return os.path.getsize(path)


def install(rec):
    """Rebind the traced names in the package modules to `rec` wrappers."""
    import alpvreal
    from alpvreal import cli, fileio, ioeq, markov, realize, switched

    import workloads

    workloads.wrap_probe = rec.oracle

    cells = _count("hankel.cells", lambda args, H: H.data.size)
    steps = _count("model.steps", lambda args, res: args[2].length)
    patches = [
        (alpvreal, "build_hankel", "hankel.build_hankel", cells),
        (cli, "build_hankel", "hankel.build_hankel", cells),
        (alpvreal, "kalman_ho", "realize.kalman_ho", None),
        (cli, "kalman_ho", "realize.kalman_ho", None),
        (alpvreal, "analyze", "realize.analyze", None),
        (cli, "analyze", "realize.analyze", None),
        (alpvreal, "minimize", "realize.minimize", None),
        (alpvreal, "find_isomorphism", "realize.find_isomorphism", None),
        (alpvreal, "check_equation", "ioeq.check_equation", None),
        (alpvreal, "switched_output", "switched.switched_output", None),
        (alpvreal, "simulate", "model.simulate", steps),
        (markov, "simulate", "model.simulate", steps),
        (ioeq, "simulate", "model.simulate", steps),
        (switched, "simulate", "model.simulate", steps),
        (cli, "markov_table", "markov.markov_table",
         _count("markov.table_entries", lambda args, t: len(t.entries))),
        (cli, "cmd_markov", "cli.markov", None),
        (cli, "cmd_hankel", "cli.hankel", None),
        (cli, "cmd_realize", "cli.realize", None),
        (cli, "cmd_analyze", "cli.analyze", None),
        (fileio, "write_text", "fileio.write_text",
         _count("fileio.bytes_written", lambda args, _: len(args[1].encode()))),
        (fileio, "save_table", "fileio.save_table", None),
        (fileio, "save_hankel", "fileio.save_hankel", None),
        (fileio, "load_table", "fileio.load_table",
         _count("fileio.bytes_read", lambda args, _: _file_size(args[0]))),
        (fileio, "load_hankel", "fileio.load_hankel",
         _count("fileio.bytes_read", lambda args, _: _file_size(args[0])
                + _file_size(fileio.hankel_sidecar_path(args[0])))),
        (fileio, "load_system", "fileio.load_system",
         _count("fileio.bytes_read", lambda args, _: _file_size(args[0]))),
    ]
    for name in ("rank_factorize", "pseudoinverse", "range_basis", "row_basis", "numerical_rank"):
        with_vectors = name != "numerical_rank"
        flops = _count(
            "linalg.svd_flops_computed",
            lambda args, _, v=with_vectors: svd_flops(np.shape(args[0]), v) if min(np.shape(args[0])) else 0,
        )
        patches.append((realize, name, "linalg.svd", flops))
    patches.append((realize, "extended_reachability", "realize.extended_reachability",
                    _count("realize.ext_cols_computed", lambda args, R: R.shape[1])))
    patches.append((realize, "extended_observability", "realize.extended_observability",
                    _count("realize.ext_cols_computed", lambda args, O: O.shape[0])))
    for module, attr, span, counter in patches:
        setattr(module, attr, rec.wrap(span, getattr(module, attr), counter))
