"""The benchmark's tracer can rebind every package name it wraps.

`perfbench/tracing.py` rebinds module-level names of `alpvreal` by name, so
deleting or renaming one of them breaks the traced benchmark run.  This test
fails on such a change without running the benchmark.
"""

import pathlib
import subprocess
import sys

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
