"""Finite Hankel sub-matrices over the word enumeration, and their rank.

The (block-row i, block-column j) entry of the Hankel matrix of an
input-output map is the block Markov parameter M(v_j v_i), with v_1, v_2,
... the length-then-lexicographic enumeration of words.  Only finite
upper-left sub-matrices are ever materialized: `build_hankel(source, L, M)`
assembles the block rows for |v_i| <= L and block columns for |v_j| <= M,
giving an N(L)*pD x N(M)*mD matrix.

For a system source the sub-matrix factors exactly through the
word-indexed observability and reachability factors,

    H_{L,M} = observability_factor(sys, L) @ reachability_factor(sys, M),

whose inner dimension is the state dimension n; the observability factor
is the dual family's reachability factor.  The same factors at depth n-1
decide reachability and observability in `realize`, and give
`hankel_singular_values` the spectrum without assembling the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import words as _w
from .linalg import DEFAULT_TOL, ToleranceConfig, numerical_rank
from .markov import ALPVSystem, stacked_input_matrix, word_blocks, word_products
from .model import dual, validate


@dataclass(frozen=True, eq=False)
class HankelBlockMatrix:
    """The assembled sub-matrix plus the bounds and dimensions it was built for."""

    L: int
    M: int
    D: int
    m: int
    p: int
    data: np.ndarray

    @property
    def shape(self):
        return self.data.shape


def reachability_factor(sys: ALPVSystem, depth: int) -> np.ndarray:
    """n x N(depth)*mD matrix whose block column for word v is A_{v_k} ... A_{v_1} Btilde."""
    validate(sys)
    A3, _, _ = sys.stacked()
    P = np.concatenate(word_products(A3, stacked_input_matrix(sys)[None], depth))
    return P.transpose(1, 0, 2).reshape(sys.n, P.shape[0] * P.shape[2])


def observability_factor(sys: ALPVSystem, depth: int) -> np.ndarray:
    """N(depth)*pD x n matrix whose block row for word v is Ctilde A_{v_k} ... A_{v_1}.

    That block is the dual's reachability block for the reversed word, transposed.
    """
    validate(sys)
    n, N, pD = sys.n, _w.word_count(depth, sys.D), sys.p * sys.D
    Rd = reachability_factor(dual(sys), depth).reshape(n, N, pD)
    return Rd[:, _w.reversal_positions(depth, sys.D)].transpose(1, 2, 0).reshape(N * pD, n)


def build_hankel(source, L: int, M: int) -> HankelBlockMatrix:
    """Assemble H_{L,M} from a system, a MarkovTable, or an IOOracle.

    A table source must cover words up to length L + M + 2.  An oracle
    source is probed once per coefficient and is only sensible at small bounds.
    """
    if L < 0 or M < 0:
        raise ValueError(f"word-length bounds must be >= 0, got L={L}, M={M}")
    if isinstance(source, ALPVSystem):
        data = observability_factor(source, L) @ reachability_factor(source, M)
    else:
        D = getattr(source, "D", 1)  # word_blocks refuses any other source with TypeError
        data = word_blocks(source, _w.words_up_to(L, D), _w.words_up_to(M, D), L + M + 2)
    return HankelBlockMatrix(L=L, M=M, D=source.D, m=source.m, p=source.p, data=data)


def hankel_rank(source, L: int, M: int, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank of the assembled sub-matrix.

    The value certifies the rank of the full (infinite) Hankel matrix only
    together with the bounds used: it equals the full rank whenever some
    realization of dimension <= L + 1 exists.
    """
    return numerical_rank(build_hankel(source, L, M).data, tol)


def hankel_singular_values(sys: ALPVSystem, L: int, M: int) -> np.ndarray:
    """Nonzero-part singular values of H_{L,M}, from the rank-n factors.

    With H = Of @ Rf and thin QR of each factor, the spectrum of H equals
    the spectrum of the small core R1 @ R2^T; the remaining singular values
    of H are exactly zero and are not returned.
    """
    validate(sys)
    Of = observability_factor(sys, L)
    Rf = reachability_factor(sys, M)
    r1 = np.linalg.qr(Of, mode="r")
    r2 = np.linalg.qr(Rf.T, mode="r")
    return np.linalg.svd(r1 @ r2.T, compute_uv=False)


def factored_hankel_rank(sys: ALPVSystem, L: int, M: int, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Rank of H_{L,M} computed from the factors, never assembling the matrix.

    Uses the same cutoff rule as `hankel_rank`, scaled by the dimensions the
    assembled matrix would have.
    """
    validate(sys)
    s = hankel_singular_values(sys, L, M)
    rows = _w.word_count(L, sys.D) * sys.p * sys.D
    cols = _w.word_count(M, sys.D) * sys.m * sys.D
    return tol.rank(s, (rows, cols))
