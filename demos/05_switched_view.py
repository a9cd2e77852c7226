"""One matrix family, two readings: scheduled blends vs. switched modes.

Restricting the scheduling vectors to the unit vectors e_1..e_D turns an
affine LPV system into a linear switched system with the identical matrix
family.  Nothing structural changes: dimensions, rank tests and Markov
parameters all coincide, and switched runs are just a special case of
scheduled runs.
"""

import numpy as np

from alpvreal import (
    ALPVSystem,
    SwitchedInput,
    analyze,
    markov_block,
    simulate,
    switched_output,
)

sys1 = ALPVSystem(A=[[[0.5]], [[0.0]]], B=[[[1.0]], [[3.0]]], C=[[[1.0]], [[2.0]]])

# a switched run: mode word 1 2 1, one impulse at time zero; it is the
# scheduled run whose rows are the unit vectors of its modes
sw = SwitchedInput(D=2, modes=(1, 2, 1), inputs=[[1.0], [0.0], [0.0]])
print("unit scheduling rows:")
print(sw.scheduling)

y_switched = switched_output(sys1, sw)
y_scheduled = simulate(sys1, [0.0], sw).final_output
print("switched output:", y_switched, "| via the scheduled run:", y_scheduled)

# switched probes read off the same Markov parameters the products give
probes = {}
for (j, i) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
    sw_probe = SwitchedInput(D=2, modes=(j, i), inputs=[[1.0], [0.0]])
    probes[(i, j)] = switched_output(sys1, sw_probe)[0]
M = np.array([[probes[(1, 1)], probes[(1, 2)]], [(probes[(2, 1)]), probes[(2, 2)]]])
print("\nM(eps) from switched probes:\n", M)
print("M(eps) from matrix products:\n", markov_block(sys1, ()))

# property transfer: same family, same analysis
print("\nanalysis (shared by both readings):", analyze(sys1))
