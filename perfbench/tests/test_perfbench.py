"""Tests of the benchmark itself: its correctness gate, its inputs and its output.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
They are not part of the package's test suite, which lives in tests/.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import lib  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def sigma2():
    """D=2, n=2 minimal system whose Hankel rank is 1 at L=0 but 2 overall."""
    return lib.ALPVSystem(
        A=[[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        B=[[[1.0], [0.0]], [[0.0], [0.0]]],
        C=[[[1.0, 0.0]], [[0.0, 1.0]]],
    )


class BelowPlateau(workloads.Identify):
    """A black-box op realized from H_{0,1}, below the rank plateau of sigma2."""

    def run(self):
        realized = lib.kalman_ho(lib.build_hankel(self.sys, 0, 1))
        return realized, np.eye(realized.n)


def below_plateau_op():
    A, B, C = (np.stack(f) for f in (sigma2().A, sigma2().B, sigma2().C))
    return BelowPlateau({"system": (A, B, C)})


def test_gate_rejects_realization_below_rank_plateau():
    op = below_plateau_op()
    realized, T = op.run()
    assert realized.n == 2
    assert workloads.markov_deviation(op.sys, realized, 4) == pytest.approx(1.0)
    with pytest.raises(workloads.CheckFailed, match="Markov deviation"):
        op.check((realized, T))


def test_markov_tolerance_is_relative_to_the_largest_parameter():
    rng = np.random.default_rng(1)
    A, B, C = inputs.minimal_family(rng, 3, 2, 1, 1)
    big = workloads.as_system((A, 1e6 * B, C))
    scale = workloads.markov_scale(big, 6)
    assert scale > 1e6
    # Round-off of 1e-12 of the largest parameter passes; 1e-6 of it does not.
    workloads.check_markov(big, workloads.as_system((A, (1 + 1e-12) * 1e6 * B, C)), 3)
    with pytest.raises(workloads.CheckFailed, match="Markov deviation"):
        workloads.check_markov(big, workloads.as_system((A, (1 + 1e-6) * 1e6 * B, C)), 3)


def test_failed_op_is_counted_not_dropped():
    logged = []
    times, cal, passed, rounds = worker.run_rounds(
        [below_plateau_op()] * 3, stats.LOOP, 0.0, logged.append)
    assert (len(times), len(cal), passed, rounds) == (3, 4, [False] * 3, 1)
    assert len(logged) == 3


def test_scaling_and_tail_rule():
    ref = stats.LOOP.ref_s
    # An op between two kernel timings at half the reference speed counts half.
    assert stats.scaled_times([0.2, 0.2], [ref, 2 * ref, 2 * ref], ref) == pytest.approx([0.4 / 3, 0.1])
    assert [stats.tail_percentile(n) for n in (4, 12, 20, 36, 400)] == [50, 75, 90, 90, 99]


def test_markov_deviation_is_zero_for_an_isomorphic_copy():
    rng = np.random.default_rng(0)
    A, B, C = inputs.minimal_family(rng, 3, 2, 1, 2)
    T = rng.uniform(-1, 1, (3, 3)) + 3 * np.eye(3)
    Ti = np.linalg.inv(T)
    sys1 = workloads.as_system((A, B, C))
    sys2 = workloads.as_system((T @ A @ Ti, T @ B, C @ Ti))
    assert workloads.markov_deviation(sys1, sys2, 6) < 1e-12
    assert workloads.iso_residual(sys1, sys2, T) < 1e-12


def test_inputs_are_seeded_and_built_without_the_package():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import inputs; "
        "d = [inputs.digest(inputs.build(w, 7)) for w in inputs.WORKLOADS]; "
        "assert 'alpvreal' not in sys.modules; print(' '.join(d))"
    )
    runs = [
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True)
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout
    assert len(set(runs[0].stdout.split())) == len(inputs.WORKLOADS)


def bench(workload, trace, seed=1):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    lines = bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"] for line in lines)
    assert any(line.startswith("ops_attempted ") for line in lines)
    assert any(line.startswith("ops_failed 0") for line in lines)


def test_same_seed_gives_same_digest_and_counts():
    runs = [bench("blackbox", 1, seed=3) for _ in range(2)]
    digests = [[line for line in lines if line.startswith("inputs ")] for lines in runs]
    assert digests[0] == digests[1] and digests[0]
    counts = [
        {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()
         if v["unit"] in ("count/round", "B/round", "flop/round")}
        for lines in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["markov.oracle.calls"] > counts[0]["markov.oracle.distinct"] > 0
    assert counts[0]["fileio.bytes_written"] == 0


def test_run_refuses_a_tree_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
