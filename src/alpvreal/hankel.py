"""Finite Hankel sub-matrices over the word enumeration, and their rank.

The (block-row i, block-column j) entry of the Hankel matrix of an
input-output map is the block Markov parameter M(v_j v_i), with v_1, v_2,
... the length-then-lexicographic enumeration of words.  Only finite
upper-left sub-matrices are ever materialized: `build_hankel(source, L, M)`
assembles the block rows for |v_i| <= L and block columns for |v_j| <= M,
giving an N(L)*pD x N(M)*mD matrix.

For a system source the sub-matrix factors exactly through the
word-indexed observability and reachability factors,

    H_{L,M} = Of @ Rf,   Of = [Ctilde A_v ; |v| <= L],   Rf = [A_v Btilde : |v| <= M],

with A_v = A_{v_k} ... A_{v_1} the transfer product of v = v_1 ... v_k and
inner dimension n.  `build_hankel(system)` closes one run of the A_v on both
sides and keeps only (Of, Rf), the window's `factors`, in O((a + b) n)
memory for an a x b window: its `data` is the product Of @ Rf, assembled on
first read and cached.  `kalman_ho` rank-factorizes such a window from its
factors, so realizing a system's window never assembles it; only reading
`.data` (saving the window, for one) does.  An oracle source is kept the
same way, unprobed: its `data` probes every cell on first read, repeats
included, while `kalman_ho` probes only the block columns of a column-word
search, each distinct run once.
Every rank decision on a system reads `factor_root` instead: an at most
n x n triangular K with K^T K equal to the Gram matrix Rf Rf^T (or Of^T Of,
from the transposed family), grown one word length at a time in
O(depth D n^3).  K has the factor's nonzero singular values, and a decision
on K ranks K itself, with the cutoff of K's own at most n x n shape, which
does not grow with the number of words.  `realize` ranks the depth n-1
roots to decide reachability and observability, and `hankel_singular_values`
and `hankel_rank` read the spectrum and rank of H_{L,M} off one core, the
product of two roots.  Products that overflow are left to the checks that
follow them, so an expansive system raises NonFiniteEntry and no warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import words as _w
from .errors import DimensionMismatch
from .linalg import DEFAULT_TOL, ToleranceConfig, as_matrix, numerical_rank, singular_values
from .markov import (
    ALPVSystem, IOOracle, _alphabet, _check_sizes, stacked_input_matrix, stacked_output_matrix,
    word_blocks, word_products,
)


def _check_bounds(L: int, M: int) -> None:
    if L < 0 or M < 0:
        raise ValueError(f"word-length bounds must be >= 0, got L={L}, M={M}")


@dataclass(frozen=True, eq=False)
class HankelBlockMatrix:
    """A Hankel sub-matrix plus the bounds and dimensions it was built for.

    D, m, p must be at least 1 as in `ALPVSystem`, and L, M at least 0
    (ValueError).  `data` must be the N(L)*pD x N(M)*mD matrix that L, M, D,
    m, p (a saved matrix's sidecar) imply, else DimensionMismatch; `shape`
    is read from the sizes.  Every window given as data (by a caller,
    `load_hankel`, or the table route of `build_hankel`) keeps a read-only
    copy made by this constructor, so neither a write through it nor a later
    write to the caller's array can change a checked window.  The two
    windows of `build_hankel` that hold a source instead are unassembled:
    one from a system holds only its read-only `factors` (Of, Rf), and its
    `data` is Of @ Rf; one from an oracle holds only its `oracle`, and its
    `data` is probed through `word_blocks` (every cell, repeats included,
    in that routine's order and with its NonFiniteEntry and
    DimensionMismatch).  Either is assembled on the first read of `data`,
    read-only, and the same array on every later read.  Every other window
    has `factors` and `oracle` None and no source that could disagree with
    its data.
    """

    L: int
    M: int
    D: int
    m: int
    p: int
    data: np.ndarray = field(repr=False)
    factors: tuple | None = field(default=None, init=False, repr=False)
    oracle: IOOracle | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        data = np.array(self.data)
        _check_sizes(self.D, self.m, self.p)
        _check_bounds(self.L, self.M)
        if data.shape != self.shape:
            raise DimensionMismatch(
                f"Hankel data is {data.shape} but the sidecar implies {self.shape}"
            )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @classmethod
    def _lazy(cls, factors=None, oracle=None, **sizes) -> "HankelBlockMatrix":
        """The unassembled window of a system or an oracle, over its checked sizes."""
        H = object.__new__(cls)
        H.__dict__.update(sizes, factors=factors, oracle=oracle)
        return H

    def __getattr__(self, name):
        # reached only for an attribute not in __dict__: the data of an unassembled window
        if name != "data" or (self.factors is None and self.oracle is None):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if self.factors is not None:
            Of, Rf = self.factors
            with np.errstate(over="ignore", invalid="ignore"):  # build_hankel checked the product
                data = Of @ Rf
        else:
            rows, cols = _w.words_up_to(self.L, self.D), _w.words_up_to(self.M, self.D)
            # a copy, as the constructor keeps: the window shares its data with no one
            data = np.array(word_blocks(self.oracle, rows, cols))
        data.flags.writeable = False
        self.__dict__["data"] = data
        return data

    @property
    def shape(self):
        D = self.D
        return (_w.word_count(self.L, D) * self.p * D, _w.word_count(self.M, D) * self.m * D)


def factor_root(A: np.ndarray, X: np.ndarray, depth: int) -> np.ndarray:
    """Root K of F = [A_{v_k} ... A_{v_1} X : |v| <= depth], meaning K^T K = F F^T.

    A stacks the D matrices A_q (n x n) and X is n x c.  Up to a column order,
    which F F^T ignores, F at depth k+1 is [X, A_1 F_k, ..., A_D F_k], so the
    stack [X^T; K_k A_1^T; ...; K_k A_D^T] is a root at depth k+1.  A stack
    with more rows than n is replaced by the triangular factor of its QR
    decomposition, which keeps K^T K.  K therefore has min(N(depth) c, n)
    rows, the singular values of F, and F's left singular vectors as its
    right singular vectors.  An expansive family overflows into a K that is
    not finite, which the `linalg` call that ranks it rejects.
    """
    if depth < 0:
        raise ValueError(f"word-length bound must be >= 0, got depth={depth}")
    n = X.shape[0]
    At = A.transpose(0, 2, 1)
    upper = np.triu(np.ones((n, n)))
    K = X.T
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(depth + 1):
            if level:
                K = np.concatenate([X.T, (K @ At).reshape(len(A) * len(K), n)])
            if len(K) > n:
                # R of mode="r", without its triu call: the upper triangle of the raw reflectors
                K = np.linalg.qr(K, mode="raw")[0].T[:n] * upper
    return K


def reachability_root(sys: ALPVSystem, depth: int) -> np.ndarray:
    """`factor_root` of Rf = [A_v Btilde : |v| <= depth]: K^T K = Rf Rf^T."""
    return factor_root(sys.A, stacked_input_matrix(sys), depth)


def observability_root(sys: ALPVSystem, depth: int) -> np.ndarray:
    """`factor_root` of Of^T, from the transposed stacks: K^T K = Of^T Of."""
    return factor_root(sys.A.transpose(0, 2, 1), stacked_output_matrix(sys).T, depth)


def build_hankel(source, L: int, M: int) -> HankelBlockMatrix:
    """Assemble H_{L,M} from a system, a MarkovTable, or an IOOracle.

    A system source closes one run of transfer products A_v, |v| <= max(L, M),
    with one matrix product per side: Ctilde [A_v, ...] and [A_v; ...] Btilde,
    and keeps the two factors (Of, Rf) as the window's `factors`, read-only,
    without assembling the window.  A window that overflows raises
    NonFiniteEntry here: its entries are bounded by n max|Of| max|Rf|, and
    only a window this bound leaves open is assembled (once, and kept) and
    checked.  A table source must cover words up to length L + M + 2.  An
    oracle source is kept as the window's `oracle` and not probed here.
    Reading `data` probes every cell once, N(L) N(M) D^2 m calls, so it is
    only sensible at small bounds; a probe that returns a non-finite S(v)
    raises NonFiniteEntry, and one of the wrong length DimensionMismatch, at
    that read.  `kalman_ho` probes only the block columns its column-word
    search needs, each distinct run once, and raises the same errors there.
    Any other source raises TypeError.
    """
    _check_bounds(L, M)
    D = _alphabet(source)
    sizes = dict(L=L, M=M, D=D, m=source.m, p=source.p)
    if isinstance(source, IOOracle):
        return HankelBlockMatrix._lazy(oracle=source, **sizes)
    if not isinstance(source, ALPVSystem):
        data = word_blocks(source, _w.words_up_to(L, D), _w.words_up_to(M, D))
        return HankelBlockMatrix(data=data, **sizes)
    n, pD, mD = source.n, source.p * D, source.m * D
    rows, cols = _w.word_count(L, D), _w.word_count(M, D)
    with np.errstate(over="ignore", invalid="ignore"):
        P = word_products(source.A, np.eye(n)[None], max(L, M))  # A_v for |v| <= max(L, M)
        Of = stacked_output_matrix(source) @ P[:rows].transpose(1, 0, 2).reshape(n, rows * n)
        Rf = P[:cols].reshape(cols * n, n) @ stacked_input_matrix(source)
        Of = Of.reshape(pD, rows, n).transpose(1, 0, 2).reshape(rows * pD, n)
        Rf = Rf.reshape(cols, n, mD).transpose(1, 0, 2).reshape(n, cols * mD)
        bound = n * np.abs(Of).max(initial=0.0) * np.abs(Rf).max(initial=0.0)
    Of.flags.writeable = Rf.flags.writeable = False
    H = HankelBlockMatrix._lazy(factors=(Of, Rf), **sizes)
    if not bound < 1e300:
        # |H_ij| <= n max|Of| max|Rf|; only a window this bound leaves open pays a pass
        # over its entries (errstate(over="raise") misses overflows in threaded BLAS)
        as_matrix(H.data)
    return H


def _core(sys: ALPVSystem, L: int, M: int) -> np.ndarray:
    """The at most n x n core K1 @ K2^T of H_{L,M}, for the roots K1 of Of and K2 of Rf.

    With H = Of @ Rf, Of = Q1 K1 and Rf^T = Q2 K2 (Q1, Q2 with orthonormal
    columns), so H and the core have the same nonzero singular values.
    """
    return observability_root(sys, L) @ reachability_root(sys, M).T


def hankel_rank(source, L: int, M: int, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank of H_{L,M}, the one Hankel-rank entry point.

    A system source ranks the core of H's factors and never assembles H; a
    table or oracle source ranks the assembled window.  Each takes the
    cutoff of the matrix it ranks.  The value certifies the rank of the
    full (infinite) Hankel matrix only together with the bounds used: it
    equals the full rank whenever some realization of dimension <= L + 1
    exists.
    """
    if isinstance(source, ALPVSystem):
        return numerical_rank(_core(source, L, M), tol)
    return numerical_rank(build_hankel(source, L, M).data, tol)


def hankel_singular_values(sys: ALPVSystem, L: int, M: int) -> np.ndarray:
    """Nonzero-part singular values of H_{L,M}: those of the core of its factors.

    The remaining singular values of H are exactly zero and are not
    returned.  A system whose core overflows raises NonFiniteEntry.
    """
    return singular_values(_core(sys, L, M))
