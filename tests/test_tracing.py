"""The benchmark's tracer can rebind every package name it wraps.

`perfbench/tracing.py` rebinds module-level names of `alpvreal` by name, and
`perfbench/workloads.py` calls package names as `lib.<name>`, so deleting or
renaming one of them breaks the benchmark run.  These tests fail on such a
change without running the benchmark, and on a CLI that keeps its subcommand
handlers where a later rebinding cannot reach them.
"""

import pathlib
import re
import subprocess
import sys

import alpvreal
from alpvreal import cli, fileio

ROOT = pathlib.Path(__file__).resolve().parent.parent
INSTALL = (
    'import sys; sys.path[:0] = ["src", "perfbench"]; '
    "import tracing; tracing.install(tracing.Recorder())"
)


def test_tracer_installs():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_workloads_call_only_package_names():
    source = (ROOT / "perfbench" / "workloads.py").read_text()
    assert "import alpvreal as lib" in source
    names = set(re.findall(r"\blib\.([A-Za-z_]\w*)", source))
    assert {"build_hankel", "kalman_ho", "simulate"} <= names
    assert sorted(name for name in names if not hasattr(alpvreal, name)) == []


def test_rebound_cli_handler_runs_after_the_parser_exists(tmp_path, sigma_star, monkeypatch):
    system = tmp_path / "system.json"
    fileio.save_system(system, sigma_star)
    argv = ["markov", str(system), "--horizon", "3", "-o", str(tmp_path / "table.json")]
    assert cli.run(argv) == 0
    ran = []
    cmd_markov = cli.cmd_markov
    monkeypatch.setattr(cli, "cmd_markov", lambda args: ran.append(args.cmd) or cmd_markov(args))
    assert cli.run(argv) == 0
    assert ran == ["markov"]
    assert cli.build_parser() is cli.build_parser()


def test_traced_kalman_ho_realizes_a_system_window():
    """A system window is realized from its factors with the tracer installed.

    The tracer reads `np.shape(args[0])` of every call through `realize`'s
    bindings of the linalg wrappers, so a factored route that passed its
    factors as one tuple through any of those names would fail here.
    """
    code = "; ".join([
        'import sys; sys.path[:0] = ["src", "perfbench"]; import tracing',
        "rec = tracing.Recorder(); tracing.install(rec)",
        "import alpvreal as lib",
        "sys_ = lib.ALPVSystem(A=[[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],"
        " B=[[[1.0], [0.0]], [[0.0], [0.0]]], C=[[[1.0, 0.0]], [[0.0, 1.0]]])",
        "H = lib.build_hankel(sys_, 1, 2)",
        "assert H.factors is not None",
        "realized = lib.kalman_ho(H)",
        "names = sorted({span[0] for span in rec.spans})",
        "print(realized.n, rec.counts['linalg.svd_flops_computed'] > 0, *names)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "2", "True", "hankel.build_hankel", "linalg.svd", "realize.kalman_ho",
    ]


def test_traced_blackbox_ops_probe_through_the_callback():
    """One `Identify` and one `Equation` op of the benchmark pass their checks when traced.

    The tracer counts every probe that reaches the benchmark's callback and
    every distinct run among them.  Its cell count reads the traced window's
    `.data`, which probes every cell, repeats included, so the op must show
    more calls than distinct runs: a `.data` read that memoized probes, or a
    library that bypassed the callback, would fail here.
    """
    code = "; ".join([
        'import sys; sys.path[:0] = ["src", "perfbench"]; import tracing',
        "rec = tracing.Recorder(); tracing.install(rec)",
        "import inputs, workloads",
        "items = inputs.build('blackbox', 1)",
        "ops = [workloads.Identify(items[0]), workloads.Equation(items[-1])]",
        "[op.check(op.run()) for op in ops]",
        "summary = rec.summary(1)",
        "print(summary['markov.oracle.calls'], summary['markov.oracle.distinct'])",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    calls, distinct = map(float, proc.stdout.split())
    assert calls > distinct > 0
