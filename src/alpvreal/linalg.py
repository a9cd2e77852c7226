"""Dense linear-algebra kernels with one shared numerical-rank rule.

Every rank decision in the package (Hankel ranks, reachability and
observability tests, factorizations, pseudoinverses) goes through the
functions of this module and the same singular-value cutoff, so that the
modules agree on what counts as zero.  The cutoff always scales with the
shape of the matrix being ranked: the system-side decisions of `hankel`
and `realize` pass the small roots of the Hankel factors here and are
ranked as the at most n x n matrices they are.  Wide matrices are
factored through their transpose, where the SVD is faster.

The factorizations share one SVD helper, a dense thin SVD; nothing here
draws random numbers.  A window whose factors Of @ Rf are known (a
system's, from `hankel.build_hankel`) is not decomposed whole:
`factored_rank_factorize` takes the SVD of the at most n x b core of the
factors and still decides the rank under the window's a x b cutoff.
`rank_factorize` and `numerical_rank` rank the searched block columns of
any other window under the whole window's cutoff when given its `shape`.
`numerical_rank` and `singular_values` share the dense values-only SVD.
Every route checks its matrices with `as_matrix` (NonFiniteEntry); no other
module calls the SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, NonFiniteEntry

ABS_FLOOR = 1e-300  # no singular value at or below this counts toward a rank


@dataclass(frozen=True)
class ToleranceConfig:
    """Cutoff rule for treating singular values as zero.

    A singular value counts toward the rank iff it exceeds
    ``max(ABS_FLOOR, rel_eps * max(rows, cols) * sigma_max)``; a shape with
    ``rel_eps * max(rows, cols) >= 1`` would discard every singular value
    and raises ValueError.  A sigma_max that is not finite, which a finite
    matrix with entries near the float64 limit gives when its norm
    overflows, raises NonFiniteEntry instead of making the cutoff infinite.
    """

    rel_eps: float = 1e-10

    def __post_init__(self):
        if not 0 < self.rel_eps < 1:
            raise ValueError(f"rel_eps must lie in (0, 1), got {self.rel_eps}")

    def cutoff(self, singular_values, shape) -> float:
        if self.rel_eps * max(shape) >= 1:
            raise ValueError(f"rel_eps {self.rel_eps} times the largest dimension of a {shape[0]}"
                             f" x {shape[1]} matrix is >= 1: no singular value can count")
        smax = float(singular_values[0]) if len(singular_values) else 0.0
        if not math.isfinite(smax):
            raise NonFiniteEntry(f"the largest singular value of a {shape[0]} x {shape[1]} matrix"
                                 " is not finite (overflow)")
        return max(ABS_FLOOR, self.rel_eps * max(shape) * smax)

    def rank(self, singular_values, shape) -> int:
        """Number of the descending `singular_values` of a `shape` matrix above the cutoff."""
        return int(np.sum(singular_values > self.cutoff(singular_values, shape)))


DEFAULT_TOL = ToleranceConfig()


def as_matrix(M) -> np.ndarray:
    """Coerce to a finite float64 2-d array, or raise InvalidMatrix."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise InvalidMatrix(f"expected a 2-d array, got ndim={A.ndim}")
    # min and max propagate NaN and need no entry-sized boolean temporary
    if A.size and not (np.isfinite(A.min()) and np.isfinite(A.max())):
        raise NonFiniteEntry("matrix contains NaN or Inf entries")
    return A


def _svd(M, tol: ToleranceConfig, shape=None):
    """Thin SVD ``(U, s, Vt)`` of M and its rank ``r`` under the shared cutoff.

    One dense thin SVD of M's tall orientation, transposed back for a wide
    M.  The cutoff is that of M's own shape, or of `shape` when given.
    """
    A = as_matrix(M)
    wide = A.shape[0] < A.shape[1]
    U, s, Vt = np.linalg.svd(A.T if wide else A, full_matrices=False)
    if wide:
        U, Vt = Vt.T, U.T
    return U, s, Vt, tol.rank(s, A.shape if shape is None else shape)


def singular_values(M) -> np.ndarray:
    """Descending singular values of M, the values-only SVD of its tall orientation."""
    A = as_matrix(M)
    return np.linalg.svd(A.T if A.shape[0] < A.shape[1] else A, compute_uv=False)


def numerical_rank(M, tol: ToleranceConfig = DEFAULT_TOL, shape=None) -> int:
    """Number of singular values above the shared cutoff of M's shape, or of `shape` when given."""
    return tol.rank(singular_values(M), np.shape(M) if shape is None else shape)


def pseudoinverse(M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with thresholded inversion."""
    U, s, Vt, r = _svd(M, tol)
    return (Vt[:r].T / s[:r]) @ U[:, :r].T


def rank_factorize(M, tol: ToleranceConfig = DEFAULT_TOL, shape=None):
    """Full-rank factorization ``M = O @ R`` with balanced SVD factors.

    Returns ``(O, R, r)`` where ``r`` is the numerical rank, ``O`` is
    rows x r and ``R`` is r x cols, both of full rank r, built as
    ``O = U sqrt(S)`` and ``R = sqrt(S) V^T`` from the truncated dense SVD.
    The rank is decided under the cutoff of M's own shape, or of `shape`
    when M is part of a larger matrix of that shape (the searched block
    columns of a Hankel window, in `kalman_ho`).
    """
    U, s, Vt, r = _svd(M, tol, shape)
    root = np.sqrt(s[:r])
    return U[:, :r] * root, root[:, None] * Vt[:r, :], r


def factored_rank_factorize(Of, Rf, tol: ToleranceConfig = DEFAULT_TOL):
    """`rank_factorize` of M = Of @ Rf from its factors, without forming M.

    With the QR decomposition Of = Q Rl (Q orthonormal columns) and the SVD
    U S V^T of the at most n x b core Rl @ Rf, M = (Q U) S V^T is an SVD of
    the a x b matrix M, so ``O = Q U_r sqrt(S_r)`` and ``R = sqrt(S_r) V_r^T``
    are its balanced factors.  The rank r is decided under the cutoff of
    M's own a x b shape, as for M itself.  Costs O((a + b) n^2) for an inner
    dimension n.  A core that overflows raises NonFiniteEntry, also when M
    itself is finite.
    """
    Of, Rf = as_matrix(Of), as_matrix(Rf)
    Q, Rl = np.linalg.qr(Of)
    with np.errstate(over="ignore", invalid="ignore"):
        core = Rl @ Rf
    V, s, Ut = np.linalg.svd(as_matrix(core).T, full_matrices=False)  # the core's tall orientation
    r = tol.rank(s, (Of.shape[0], Rf.shape[1]))
    root = np.sqrt(s[:r])
    return Q @ (Ut[:r].T * root), root[:, None] * V[:, :r].T, r


def range_basis(M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns spanning the column space of M."""
    U, _, _, r = _svd(M, tol)
    return U[:, :r]


def row_basis(M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal rows spanning the row space of M."""
    _, _, Vt, r = _svd(M, tol)
    return Vt[:r, :]
