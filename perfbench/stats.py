"""Machine-speed calibration and the summary statistics of a run.

On a shared virtual machine the CPU flickers between a fast and a slow
state: a 1 ms numpy loop takes either about its fast time or about twice
that, the two states alternating every few milliseconds, and the share of
time spent in the slow state drifts over minutes.  Any op longer than a few
milliseconds therefore runs at the average speed of the moment, and raw op
times of one input spread by 20-40% between runs.

A run therefore times a fixed bench-owned kernel right after every op, and
scales each op's wall time by the kernel's reference time over the mean
kernel time measured just before and just after it.  A scaled time is the
op's wall time at the speed at which the kernel takes its reference time,
so it is still in seconds; a change to the library moves the op time and
not the kernel, so it moves the scaled time by the same share.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_ROUNDS = 5

_rng = np.random.default_rng(0)
_KA = _rng.uniform(-1, 1, (6, 6))
_KX = _rng.uniform(-1, 1, 6)
_KM = _rng.uniform(-1, 1, (100, 300))


def _loop():
    y = _KX
    for _ in range(100):
        y = _KA @ y
        y /= np.linalg.norm(y)
    return y


def _svd():
    return np.linalg.svd(_KM, full_matrices=False)


class Kernel(NamedTuple):
    """A calibration kernel: its function, its time at the reference speed,
    and how many calls are timed after each op."""

    fn: Callable
    ref_s: float
    reps: int


# Reference times are the kernels' times in the fast state of the 2-vCPU
# x86-64 machine the baseline was measured on; they only set the scale.
LOOP = Kernel(_loop, 3.0e-4, 4)
SVD = Kernel(_svd, 7.5e-3, 3)
# Each workload is scaled by the kernel that does its kind of work: reduce
# spends its time in LAPACK SVDs, the others in interpreted loops over
# small matrices, and the two slow down by different shares.
KERNELS = {"blackbox": LOOP, "pipeline": LOOP, "reduce": SVD, "simulate": LOOP}


def calibrate(kernel):
    """Mean wall time of `kernel` over its `reps` calls, garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(kernel.reps):
            kernel.fn()
        return (perf_counter() - start) / kernel.reps
    finally:
        if enabled:
            gc.enable()


def scaled_times(times, cal, ref_s):
    """Each op time scaled to the speed at which the kernel takes `ref_s`.

    `cal` has one kernel time before the first op and one after every op;
    op i is scaled by the mean of the kernel times on either side of it.
    """
    cal = np.asarray(cal)
    return np.asarray(times) * ref_s / ((cal[:-1] + cal[1:]) / 2)


def tail_percentile(items):
    """Highest percentile of TAIL_LADDER with two inputs' worth of samples beyond it.

    It depends only on the number of inputs in a round, not on how many
    rounds fit into a run, so a faster change cannot move the tail to a
    higher percentile; with MIN_ROUNDS rounds it leaves at least ten
    samples beyond.
    """
    for p in reversed(TAIL_LADDER):
        if (100 - p) / 100 * items >= 2:
            return p
    return TAIL_LADDER[0]


def summary(times, cal, passed, items, kernel):
    """End-to-end metric values of one run, and the notes printed beside them."""
    scaled = scaled_times(times, cal, kernel.ref_s)
    ok = int(np.sum(passed))
    p = tail_percentile(items)
    tail = float(np.percentile(scaled, p))
    raw = np.asarray(times)
    values = {
        "ops_per_s": ok / float(np.sum(scaled)),
        "op_p50_ms": 1e3 * float(np.median(scaled)),
        "op_tail_ms": 1e3 * tail,
    }
    notes = {
        "ops_per_s": f"(raw {ok / float(np.sum(raw)):.6g} ops/s; kernel mean "
                     f"{1e3 * float(np.mean(cal)):.4g} ms against {1e3 * kernel.ref_s:g} ms)",
        "op_p50_ms": f"(raw {1e3 * float(np.median(raw)):.6g} ms)",
        "op_tail_ms": f"(p{p:g}, {int(np.sum(scaled > tail))} samples beyond, of {len(raw)} ops; "
                      f"raw {1e3 * float(np.percentile(raw, p)):.6g} ms)",
    }
    return values, notes
