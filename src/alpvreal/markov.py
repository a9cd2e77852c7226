"""Markov parameters: kernel coefficients, block parameters, black-box probing.

The kernel coefficient of a word v = q_0 q_1 ... q_t (t >= 1) of a system is
the matrix product

    S(v) = C_{q_t} A_{q_{t-1}} ... A_{q_1} B_{q_0}

(with an empty A-chain read as the identity for |v| = 2).  The block Markov
parameter M(v) collects S(j v i) over all i, j in 1..D into a pD x mD matrix
and equals Ctilde * A_{v_k} ... A_{v_1} * Btilde for the stacked matrices
Ctilde = [C_1; ...; C_D], Btilde = [B_1, ..., B_D].

One kernel, `word_products`, gives every word-indexed product in enumeration
order; a `MarkovTable` keeps S(v) as one array in that order, and one assembly,
`word_blocks`, lays out M(v) and Hankel windows from tables and oracles.

Both quantities are also recoverable from a black-box input-output map by
probing it with unit scheduling vectors: column l of S(v) is the response to
the run (e_{q_0}, e_l)(e_{q_1}, 0)...(e_{q_t}, 0).  This probing route never
touches the matrices, so comparing it against the product formulas is a
genuine two-sided consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable

import numpy as np

from . import words as _w
from .errors import DimensionMismatch, HorizonExceeded, NonFiniteEntry, WordTooShort
from .model import ALPVSystem, InputSequence, _run
from .model import simulate  # noqa: F401  (perfbench/tracing.py rebinds markov.simulate)


def _check_finite(S: np.ndarray, word_at, D: int) -> np.ndarray:
    """Return S; NonFiniteEntry names S(word_at(r)) for the first p x m block r not finite."""
    finite = np.isfinite(S).all(axis=(-2, -1)).ravel()
    if not finite.all():
        v = word_at(int(np.argmin(finite)))
        raise NonFiniteEntry(f"S({_w.word_to_str(v, D)}) is not finite")
    return S


def _alphabet(source) -> int:
    """The D of a system, a MarkovTable or an IOOracle; TypeError for any other source."""
    if not isinstance(source, (ALPVSystem, MarkovTable, IOOracle)):
        raise TypeError(f"unsupported Markov source: {type(source).__name__}")
    return source.D


def _check_sizes(D, m: int, p: int) -> None:
    """D >= 1 (InvalidAlphabet) and m, p >= 1 (DimensionMismatch), as `ALPVSystem` requires."""
    _w.check_alphabet(D)
    if min(m, p) < 1:
        raise DimensionMismatch(f"input and output dimensions must be >= 1, got m={m}, p={p}")


@dataclass(frozen=True, eq=False)
class MarkovTable:
    """Kernel coefficients S(v) for every word with 2 <= |v| <= horizon.

    `coeffs` holds them in enumeration order: row r is S(v) for the word at
    0-based position N(1) + r.  `entries` is a derived read-only word -> S view.
    The constructor checks D, m, p >= 1 as `ALPVSystem` does and horizon >= 1
    (ValueError), the (N(horizon) - N(1), p, m) shape of `coeffs`
    (DimensionMismatch) and that every S(v) is finite (NonFiniteEntry).  It keeps
    its own read-only copy, so neither a write through it nor a later write to the
    caller's array can change a checked table.
    """

    D: int
    m: int
    p: int
    horizon: int
    coeffs: np.ndarray  # (N(horizon) - N(1), p, m)

    def __post_init__(self):
        _check_sizes(self.D, self.m, self.p)
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        coeffs, first = np.array(self.coeffs), _w.word_count(1, self.D)
        shape = (_w.word_count(self.horizon, self.D) - first, self.p, self.m)
        if coeffs.shape != shape:
            raise DimensionMismatch(f"coeffs has shape {coeffs.shape}, expected {shape}")
        _check_finite(coeffs, lambda r: _w.index_to_word(first + r + 1, self.D), self.D)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def level(self, k: int) -> np.ndarray:
        """The (D^k, p, m) coefficients of the words of length k, in enumeration order."""
        if not 2 <= k <= self.horizon:
            raise HorizonExceeded(f"no words of length {k} in a table of lengths 2..{self.horizon}")
        start = _w.word_count(k - 1, self.D) - _w.word_count(1, self.D)
        return self.coeffs[start:start + self.D**k]

    @cached_property
    def entries(self) -> MappingProxyType:
        words = _w.words_up_to(self.horizon, self.D)[_w.word_count(1, self.D):]
        return MappingProxyType(dict(zip(words, self.coeffs)))


@dataclass(frozen=True, eq=False)
class IOOracle:
    """A black-box input-output map with declared dimensions.

    `fn` maps an InputSequence over R^D x R^m to a length-p output vector;
    a call that returns any other number of values raises DimensionMismatch.
    D, m and p must be at least 1, as in `ALPVSystem`.  `fn` should be
    deterministic: `kalman_ho` probes each distinct run once and reuses its
    response, while the `.data` of an oracle window probes every cell,
    repeats included.
    """

    fn: Callable
    D: int
    m: int
    p: int

    def __post_init__(self):
        _check_sizes(self.D, self.m, self.p)

    def __call__(self, w: InputSequence) -> np.ndarray:
        y = np.asarray(self.fn(w), dtype=float).reshape(-1)
        if y.size != self.p:
            raise DimensionMismatch(f"oracle returned {y.size} outputs, expected p={self.p}")
        return y


def system_oracle(sys: ALPVSystem) -> IOOracle:
    """The zero-initial-state input-output map of a system, as an oracle.

    A call returns y(T), the last output of the trajectory `simulate(sys, 0, w)`
    forms, so the two agree bit for bit, without the step after T.  It raises
    NonFiniteEntry exactly when a state x(0..T) or an output y(0..T) is not
    finite; an overflow of x(T+1) alone is not reported.
    """
    x0 = np.zeros(sys.n)

    def fn(w: InputSequence) -> np.ndarray:
        return _run(sys, x0, w)[1][-1]

    return IOOracle(fn=fn, D=sys.D, m=sys.m, p=sys.p)


def kernel_coeff(sys: ALPVSystem, v) -> np.ndarray:
    """S(v) = C_{q_t} A_{q_{t-1}} ... A_{q_1} B_{q_0} of a system; NonFiniteEntry on overflow."""
    v = _w.check_word(v, sys.D)
    if len(v) < 2:
        raise WordTooShort(f"kernel coefficients need |v| >= 2, got {len(v)}")
    with np.errstate(over="ignore", invalid="ignore"):
        P = sys.B[v[0] - 1]
        for q in v[1:-1]:
            P = sys.A[q - 1] @ P
        return _check_finite(sys.C[v[-1] - 1] @ P, lambda _: v, sys.D)


def word_products(A3: np.ndarray, P0: np.ndarray, depth: int) -> np.ndarray:
    """Level-batched products A_{v_k} ... A_{v_1} P0[i] for all words with |v| <= depth.

    A3 stacks the A_q.  Level k+1 is A3 @ level k with q varying fastest, and
    since appending q multiplies by A_q on the left, the products already
    come out in the enumeration order of the pairs (i, v), concatenated here.
    """
    if depth < 0:
        raise ValueError(f"word-length bound must be >= 0, got depth={depth}")
    levels = [P0]
    for _ in range(depth):
        P = levels[-1]
        levels.append((A3[None] @ P[:, None]).reshape(len(P) * len(A3), *P0.shape[1:]))
    return np.concatenate(levels)


def markov_table(sys: ALPVSystem, horizon: int) -> MarkovTable:
    """All kernel coefficients of a system up to the given word length.

    `word_products` runs from the stacked B_q; its products are closed with the C_q.
    A coefficient that overflows raises NonFiniteEntry, and no warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        P = word_products(sys.A, sys.B, horizon - 2) if horizon >= 2 else sys.B[:0]
        coeffs = (sys.C[None] @ P[:, None]).reshape(-1, sys.p, sys.m)
    return MarkovTable(D=sys.D, m=sys.m, p=sys.p, horizon=horizon, coeffs=coeffs)


def stacked_input_matrix(sys: ALPVSystem) -> np.ndarray:
    """Btilde = [B_1, ..., B_D], shape n x mD."""
    return np.hstack(sys.B)


def stacked_output_matrix(sys: ALPVSystem) -> np.ndarray:
    """Ctilde = [C_1; ...; C_D], shape pD x n."""
    return np.vstack(sys.C)


def markov_block(source, v) -> np.ndarray:
    """M(v): the pD x mD block matrix with block (i, j) = S(j v i).

    `source` may be a system (product formula), a MarkovTable (one gather)
    or an IOOracle (probes); a table must cover words of length |v| + 2.
    Other sources raise TypeError; an S(j v i) that is not finite, NonFiniteEntry.
    """
    D = _alphabet(source)
    v = _w.check_word(v, D)
    if isinstance(source, ALPVSystem):
        with np.errstate(over="ignore", invalid="ignore"):
            P = stacked_input_matrix(source)
            for q in v:
                P = source.A[q - 1] @ P
            M = stacked_output_matrix(source) @ P
        words = [(j,) + v + (i,) for i in range(1, D + 1) for j in range(1, D + 1)]
        _check_finite(M.reshape(D, source.p, D, source.m).swapaxes(1, 2), words.__getitem__, D)
        return M
    return word_blocks(source, [()], [v])


def word_blocks(source, row_words, col_words, memo: dict | None = None) -> np.ndarray:
    """The matrix with block (r, c) = M(col_words[c] + row_words[r]) from a table or an oracle.

    A table must cover the longest word j v_c v_r i.  The S(j v_c v_r i) fill one
    (rows*D, cols*D, p, m) array, i and j fastest, which one transpose lays out.
    An oracle is probed at every cell, repeats included, unless a `memo` (word
    -> S block) is given: then only the distinct words not yet in it are probed,
    in first-occurrence order, and added to it.  The probes are checked once, as
    a whole: the first S(v) that is not finite raises NonFiniteEntry.
    """
    letters = range(1, source.D + 1)
    if isinstance(source, MarkovTable):
        longest = max(map(len, row_words)) + max(map(len, col_words)) + 2
        if longest > source.horizon:
            raise HorizonExceeded(f"needs words of length {longest}, table has {source.horizon}")
        # 0-based enumeration positions compose: pos(u w) = pos(u) D^|w| + pos(w)
        pos = lambda ws: np.array([_w.word_to_index(v, source.D) - 1 for v in ws])
        tails = [vr + (i,) for vr in row_words for i in letters]
        heads = pos([(j,) + vc for vc in col_words for j in letters])
        scale = source.D ** np.array([len(v) for v in tails])
        S = source.coeffs[np.outer(scale, heads) + pos(tails)[:, None] - _w.word_count(1, source.D)]
    else:
        words = [(j,) + vc + vr + (i,)  # probe order
                 for vr in row_words for i in letters for vc in col_words for j in letters]
        if memo is None:
            S = _probe(source, words)
        else:
            new = [v for v in dict.fromkeys(words) if v not in memo]
            memo.update(zip(new, _probe(source, new)))
            S = np.array([memo[v] for v in words])
        S = _check_finite(S, words.__getitem__, source.D)
        S = S.reshape(len(row_words) * source.D, -1, source.p, source.m)
    return S.transpose(0, 2, 1, 3).reshape(len(S) * source.p, -1)


def probe_kernel_coeff(oracle: IOOracle, v) -> np.ndarray:
    """Recover S(v) from a black-box map by unit-vector probing.

    Column l of S(v) is the oracle response to the switched run whose
    scheduling vectors are e_{q_0}, ..., e_{q_t} and whose only nonzero
    input is e_l at time 0.  Exact for any map with a convolution
    representation; no step sizes or differencing involved.  A response
    that is not finite raises NonFiniteEntry.
    """
    v = tuple(v)
    return _check_finite(_probe(oracle, [v]), lambda _: v, oracle.D)[0]


def _probe(oracle: IOOracle, words) -> np.ndarray:
    """S(v) of every word of a list by unit-vector probing, as (len(words), p, m).

    The symbols of all words are checked at once (InvalidWord names the first
    bad one), then their lengths (WordTooShort), before any probe runs.  Words
    of one length share one gather of unit scheduling rows and one set of m
    unit inputs, as read-only arrays of zeros and ones that need none of
    `InputSequence`'s checks.  The oracle is called word by word and, within a
    word, input column by input column, once per probe, repeats included.
    Nothing is checked for finiteness here.
    """
    D, m = oracle.D, oracle.m
    lengths = np.fromiter(map(len, words), np.intp, len(words))
    symbols = _w._check_mode_array([q for v in words for q in v], D)
    if len(words) and lengths.min() < 2:
        raise WordTooShort(f"kernel coefficients need |v| >= 2, got {lengths[lengths < 2][0]}")
    starts = np.cumsum(lengths) - lengths
    unit, columns = np.eye(D), np.arange(m)
    runs, slot = {}, np.empty(len(words), np.intp)  # word r is row slot[r] of its length's runs
    for k in set(lengths.tolist()):
        at = np.flatnonzero(lengths == k)
        slot[at] = np.arange(len(at))
        sched = unit[symbols[starts[at, None] + np.arange(k)] - 1]  # (words, k, D)
        u = np.zeros((m, k, m))
        u[columns, 0, columns] = 1.0  # u[l]: input e_l at time 0, zero after
        sched.flags.writeable = u.flags.writeable = False
        runs[k] = sched, u
    S = np.empty((len(words), oracle.p, m))
    for r, (k, i) in enumerate(zip(lengths.tolist(), slot.tolist())):
        sched, u = runs[k]
        for l in range(m):
            S[r, :, l] = oracle(InputSequence._unchecked(sched[i], u[l]))
    return S
