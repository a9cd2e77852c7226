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
from .model import ALPVSystem, InputSequence, simulate


@dataclass(frozen=True, eq=False, init=False)
class SwitchedInput(InputSequence):
    """The run with scheduling rows e_{q(t)} of a mode word over 1..D, kept as `modes`."""

    modes: tuple

    def __init__(self, D: int, modes, inputs):
        D = _w.check_alphabet(D)
        modes = _w.check_word(modes, D)
        u = np.asarray(inputs, dtype=float)
        if u.ndim != 2:
            raise DimensionMismatch(f"inputs must be 2-d (steps x dim); got ndim {u.ndim}")
        sched = np.zeros((len(modes), D))
        sched[np.arange(len(modes)), np.fromiter(modes, np.intp, len(modes)) - 1] = 1.0
        object.__setattr__(self, "modes", modes)
        super().__init__(scheduling=sched, inputs=u)


def unit_schedule(modes, D: int) -> np.ndarray:
    """The scheduling rows e_{q_0}, ..., e_{q_t} of a mode word over 1..D.

    The word is checked here, and its rows are set one by one, which beats
    numpy indexing on the short words that probing asks for.
    """
    modes = _w.check_word(modes, D)
    sched = np.zeros((len(modes), D))
    for t, q in enumerate(modes):
        sched[t, q - 1] = 1.0
    return sched


def switched_output(sys: ALPVSystem, sw: SwitchedInput) -> np.ndarray:
    """Final output of the switched run from the zero initial state."""
    return simulate(sys, np.zeros(sys.n), sw).final_output
