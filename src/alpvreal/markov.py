"""Markov parameters: kernel coefficients, block parameters, black-box probing.

The kernel coefficient of a word v = q_0 q_1 ... q_t (t >= 1) of a system is
the matrix product

    S(v) = C_{q_t} A_{q_{t-1}} ... A_{q_1} B_{q_0}

(with an empty A-chain read as the identity for |v| = 2).  The block Markov
parameter M(v) collects S(j v i) over all i, j in 1..D into a pD x mD matrix
and equals Ctilde * A_{v_k} ... A_{v_1} * Btilde for the stacked matrices
Ctilde = [C_1; ...; C_D], Btilde = [B_1, ..., B_D].

One kernel, `word_products`, gives every word-indexed product; one
assembly, `word_blocks`, lays out M(v) and Hankel windows from tables and oracles.

Both quantities are also recoverable from a black-box input-output map by
probing it with unit scheduling vectors: column l of S(v) is the response to
the run (e_{q_0}, e_l)(e_{q_1}, 0)...(e_{q_t}, 0).  This probing route never
touches the matrices, so comparing it against the product formulas is a
genuine two-sided consistency check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import words as _w
from .errors import DimensionMismatch, HorizonExceeded, WordTooShort
from .model import ALPVSystem, InputSequence, simulate, validate
from .switched import unit_schedule


@dataclass(frozen=True, eq=False)
class MarkovTable:
    """Kernel coefficients S(v) for every word with 2 <= |v| <= horizon."""

    D: int
    m: int
    p: int
    horizon: int
    entries: dict  # Word -> (p, m) ndarray


@dataclass(frozen=True, eq=False)
class IOOracle:
    """A black-box input-output map with declared dimensions.

    `fn` maps an InputSequence over R^D x R^m to a length-p output vector;
    a call that returns any other number of values raises DimensionMismatch.
    """

    fn: Callable
    D: int
    m: int
    p: int

    def __call__(self, w: InputSequence) -> np.ndarray:
        y = np.asarray(self.fn(w), dtype=float).reshape(-1)
        if y.size != self.p:
            raise DimensionMismatch(f"oracle returned {y.size} outputs, expected p={self.p}")
        return y


def system_oracle(sys: ALPVSystem) -> IOOracle:
    """The zero-initial-state input-output map of a system, as an oracle."""
    validate(sys)
    x0 = np.zeros(sys.n)

    def fn(w: InputSequence) -> np.ndarray:
        return simulate(sys, x0, w).final_output

    return IOOracle(fn=fn, D=sys.D, m=sys.m, p=sys.p)


def kernel_coeff(sys: ALPVSystem, v) -> np.ndarray:
    """S(v) of a system: the product C_{q_t} A_{q_{t-1}} ... A_{q_1} B_{q_0}."""
    validate(sys)
    v = _w.check_word(v, sys.D)
    if len(v) < 2:
        raise WordTooShort(f"kernel coefficients need |v| >= 2, got {len(v)}")
    P = sys.B[v[0] - 1]
    for q in v[1:-1]:
        P = sys.A[q - 1] @ P
    return sys.C[v[-1] - 1] @ P


def word_products(A3: np.ndarray, P0: np.ndarray, depth: int) -> list:
    """Level-batched products A_{v_k} ... A_{v_1} P0[i] for all words with |v| <= depth.

    A3 stacks the A_q.  Level k+1 is A3 @ level k with q varying fastest, and
    since appending q multiplies by A_q on the left, the products already
    come out in the enumeration order of the pairs (i, v).
    """
    levels = [P0]
    for _ in range(depth):
        P = levels[-1]
        levels.append((A3[None] @ P[:, None]).reshape(len(P) * len(A3), *P0.shape[1:]))
    return levels


def markov_table(sys: ALPVSystem, horizon: int) -> MarkovTable:
    """All kernel coefficients of a system up to the given word length.

    `word_products` runs from the stacked B_q; each level is closed with the C_q.
    """
    validate(sys)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    D = sys.D
    A3, B3, C3 = sys.stacked()
    entries = {}
    if horizon >= 2:
        for k, P in enumerate(word_products(A3, B3, horizon - 2), start=2):
            S = (C3[None] @ P[:, None]).reshape(len(P) * D, sys.p, sys.m)
            entries.update(zip(itertools.product(range(1, D + 1), repeat=k), S))
    return MarkovTable(D=D, m=sys.m, p=sys.p, horizon=horizon, entries=entries)


def stacked_input_matrix(sys: ALPVSystem) -> np.ndarray:
    """Btilde = [B_1, ..., B_D], shape n x mD."""
    validate(sys)
    return np.hstack(sys.B)


def stacked_output_matrix(sys: ALPVSystem) -> np.ndarray:
    """Ctilde = [C_1; ...; C_D], shape pD x n."""
    validate(sys)
    return np.vstack(sys.C)


def markov_block(source, v) -> np.ndarray:
    """M(v): the pD x mD block matrix with block (i, j) = S(j v i).

    `source` may be a system (product formula) or a MarkovTable (lookups);
    a table must cover words of length |v| + 2.
    """
    if isinstance(source, ALPVSystem):
        validate(source)
        v = _w.check_word(v, source.D)
        P = stacked_input_matrix(source)
        for q in v:
            P = source.A[q - 1] @ P
        return stacked_output_matrix(source) @ P
    v = _w.check_word(v, source.D)
    return word_blocks(source, [()], [v], len(v) + 2)


def word_blocks(source, row_words, col_words, longest: int) -> np.ndarray:
    """The matrix with block (r, c) = M(col_words[c] + row_words[r]) from a table or an oracle.

    A table must cover words of length `longest`.  The S(j v_c v_r i) fill one
    (rows*D, cols*D, p, m) array, i and j fastest, which one transpose lays out.
    """
    if isinstance(source, MarkovTable):
        if longest > source.horizon:
            raise HorizonExceeded(f"needs words of length {longest}, table has {source.horizon}")
        coeff = source.entries.__getitem__
    elif isinstance(source, IOOracle):
        coeff = lambda w: probe_kernel_coeff(source, w)
    else:
        raise TypeError(f"unsupported Markov source: {type(source).__name__}")
    letters = range(1, source.D + 1)
    S = np.array([[coeff((j,) + vc + vr + (i,)) for vc in col_words for j in letters]
                  for vr in row_words for i in letters])
    return S.transpose(0, 2, 1, 3).reshape(len(S) * source.p, -1)


def probe_kernel_coeff(oracle: IOOracle, v) -> np.ndarray:
    """Recover S(v) from a black-box map by unit-vector probing.

    Column l of S(v) is the oracle response to the switched run whose
    scheduling vectors are e_{q_0}, ..., e_{q_t} and whose only nonzero
    input is e_l at time 0.  Exact for any map with a convolution
    representation; no step sizes or differencing involved.
    """
    sched = unit_schedule(v, oracle.D)
    if len(sched) < 2:
        raise WordTooShort(f"kernel coefficients need |v| >= 2, got {len(sched)}")
    S = np.empty((oracle.p, oracle.m))
    for l in range(oracle.m):
        u = np.zeros((len(sched), oracle.m))
        u[0, l] = 1.0
        S[:, l] = oracle(InputSequence(scheduling=sched, inputs=u))
    return S


def probe_markov_block(oracle: IOOracle, v) -> np.ndarray:
    """Recover M(v) from a black-box map, one probe batch per block."""
    v = _w.check_word(v, oracle.D)
    return word_blocks(oracle, [()], [v], len(v) + 2)
