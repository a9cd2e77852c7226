"""Detecting and removing redundant states.

We inflate a 1-dimensional system with one state no input reaches and one
state no output sees.  The rank tests on the Hankel factors localize both
defects exactly, and the two-step reduction (reachable subspace, then
observable quotient) returns a 1-dimensional system with the same
input-output behavior on every run we throw at it.
"""

import numpy as np

from alpvreal import (
    ALPVSystem,
    InputSequence,
    analyze,
    hankel_rank,
    minimize,
    simulate,
)

core = ALPVSystem(A=[[[0.5]], [[0.0]]], B=[[[1.0]], [[3.0]]], C=[[[1.0]], [[2.0]]])
rng = np.random.default_rng(11)

# state 2: never excited (zero B rows, no feedback from state 1)
# state 3: never seen (zero C columns, no feedforward into states 1-2)
A = []
B = []
C = []
for q in range(2):
    a = np.zeros((3, 3))
    a[0, 0] = core.A[q][0, 0]
    a[0, 1] = rng.uniform(-1, 1)  # unreachable state leaks INTO the core
    a[1, 1] = rng.uniform(-1, 1)
    a[2, 0] = rng.uniform(-1, 1)  # core leaks into the unobservable state
    a[2, 2] = rng.uniform(-1, 1)
    A.append(a)
    B.append(np.array([[core.B[q][0, 0]], [0.0], [rng.uniform(-1, 1)]]))
    C.append(np.array([[core.C[q][0, 0], rng.uniform(-1, 1), 0.0]]))
padded = ALPVSystem(A=A, B=B, C=C)

report = analyze(padded)
print("padded system:", report)
print("reach defect:", report.n - report.reach_rank, "| obs defect:", report.n - report.obs_rank)

small = minimize(padded)
print("\nafter minimize:", analyze(small))
print("dimension equals Hankel rank:", small.n == hankel_rank(padded, 2, 2))

worst = 0.0
for _ in range(200):
    length = int(rng.integers(1, 8))
    w = InputSequence(
        scheduling=rng.uniform(-1, 1, (length, 2)),
        inputs=rng.uniform(-1, 1, (length, 1)),
    )
    y_big = simulate(padded, np.zeros(3), w).final_output
    y_small = simulate(small, np.zeros(small.n), w).final_output
    worst = max(worst, float(np.max(np.abs(y_big - y_small))))
print(f"max output deviation over 200 random runs: {worst:.3e}")
