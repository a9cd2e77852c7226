"""The linear-switched view: one active mode per step.

A switched input fixes a mode q(t) in 1..D at each step instead of a free
scheduling vector: it is the run with scheduling rows e_{q(t)}, on which the
matrix family acts as a linear switched system.  All structural properties
(dimension, reachability, observability, minimality, Markov parameters)
transfer verbatim because the matrix family is shared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import words as _w
from .errors import DimensionMismatch
from .model import ALPVSystem, InputSequence, _run
from .model import simulate  # noqa: F401  (perfbench/tracing.py rebinds switched.simulate)


@dataclass(frozen=True, eq=False, init=False)
class SwitchedInput(InputSequence):
    """The run with scheduling rows e_{q(t)} of a mode word over 1..D, kept as `modes`."""

    modes: tuple

    def __init__(self, D: int, modes, inputs):
        D = _w.check_alphabet(D)
        idx = _w._check_mode_array(modes, D)
        u = np.asarray(inputs, dtype=float)
        if u.ndim != 2:
            raise DimensionMismatch(f"inputs must be 2-d (steps x dim); got ndim {u.ndim}")
        object.__setattr__(self, "modes", tuple(idx.tolist()))
        super().__init__(scheduling=np.eye(D)[idx - 1], inputs=u)


def switched_output(sys: ALPVSystem, sw: SwitchedInput) -> np.ndarray:
    """Final output of the switched run from the zero initial state.

    The last output of the trajectory `simulate(sys, 0, sw)` forms, so the
    same number bit for bit, without the step after T: NonFiniteEntry is
    raised when a state up to x(T) or an output is not finite.
    """
    return _run(sys, np.zeros(sys.n), sw)[1][-1]
