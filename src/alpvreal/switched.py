"""The linear-switched view: one active mode per step.

A switched input fixes a mode q(t) in 1..D at each step instead of a free
scheduling vector; embedding it with unit vectors e_{q(t)} turns the same
matrix family into a linear switched system.  All structural properties
(dimension, reachability, observability, minimality, Markov parameters)
transfer verbatim because the matrix family is shared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import words as _w
from .errors import DimensionMismatch, NonFiniteEntry
from .model import ALPVSystem, InputSequence, simulate


@dataclass(frozen=True, eq=False)
class SwitchedInput:
    """A mode word over 1..D and one input vector per step."""

    D: int
    modes: tuple
    inputs: np.ndarray  # (T+1, m)

    def __post_init__(self):
        object.__setattr__(self, "modes", _w.check_word(self.modes, self.D))
        u = np.asarray(self.inputs, dtype=float)
        if u.ndim != 2:
            raise DimensionMismatch(f"inputs must be 2-d (steps x dim); got ndim {u.ndim}")
        if len(self.modes) < 1:
            raise DimensionMismatch("a switched input must have at least one step")
        if u.shape[0] != len(self.modes):
            raise DimensionMismatch(
                f"{len(self.modes)} modes but {u.shape[0]} input rows"
            )
        if not np.all(np.isfinite(u)):
            raise NonFiniteEntry("switched input contains NaN or Inf entries")
        object.__setattr__(self, "inputs", u)

    @property
    def length(self) -> int:
        return len(self.modes)

    @property
    def m(self) -> int:
        return self.inputs.shape[1]


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


def embed_switched_input(sw: SwitchedInput) -> InputSequence:
    """Replace each mode q by the unit scheduling vector e_q.

    The modes were checked when `sw` was built, so the rows of a word of any
    length take one index assignment.
    """
    sched = np.zeros((sw.length, sw.D))
    sched[np.arange(sw.length), np.subtract(sw.modes, 1)] = 1.0
    return InputSequence(scheduling=sched, inputs=sw.inputs)


def switched_output(sys: ALPVSystem, sw: SwitchedInput) -> np.ndarray:
    """Final output of the switched run from the zero initial state."""
    if sw.D != sys.D:
        raise DimensionMismatch(f"switched input has D={sw.D}, system has D={sys.D}")
    return simulate(sys, np.zeros(sys.n), embed_switched_input(sw)).final_output
