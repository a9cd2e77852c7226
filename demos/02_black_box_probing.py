"""Recovering Markov parameters from a black box.

Suppose all we can do is feed scheduling/input runs to an unknown map and
read the final output.  If the map admits a convolution representation,
every kernel coefficient is exposed by a finite probe: schedule the unit
vectors of the word and inject a unit input at time zero.  Here the black
box is secretly a random 3-state system, and the probes reproduce its
matrix products exactly.
"""

import numpy as np

from alpvreal import (
    ALPVSystem,
    markov_block,
    probe_kernel_coeff,
    system_oracle,
    words_up_to,
)

rng = np.random.default_rng(7)
D, n, m, p = 2, 3, 2, 1
hidden = ALPVSystem(
    A=[rng.uniform(-0.8, 0.8, (n, n)) for _ in range(D)],
    B=[rng.uniform(-1, 1, (n, m)) for _ in range(D)],
    C=[rng.uniform(-1, 1, (p, n)) for _ in range(D)],
)

# the only interface the rest of this script uses:
oracle = system_oracle(hidden)

print("probing kernel coefficients of the black box:")
for v in ((1, 2), (2, 1, 1)):
    probed = probe_kernel_coeff(oracle, v)
    print(f"  S{v} probed    =", np.round(probed, 6).ravel())

print("\nblock Markov parameters, probed vs. the hidden matrices:")
worst = 0.0
for v in words_up_to(3, D):
    probed = markov_block(oracle, v)
    direct = markov_block(hidden, v)
    worst = max(worst, np.max(np.abs(probed - direct)))
print(f"  checked all words up to length 3; max deviation = {worst:.3e}")
