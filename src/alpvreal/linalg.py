"""Dense linear-algebra kernels with one shared numerical-rank rule.

Every rank decision in the package (Hankel ranks, reachability and
observability tests, factorizations, pseudoinverses) goes through the same
singular-value cutoff so that the modules agree on what counts as zero.
Wide matrices, such as the n x N(n-1)mD reachability factors of the rank
tests, are factored through their transpose, where the SVD is faster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, NonFiniteEntry


@dataclass(frozen=True)
class ToleranceConfig:
    """Cutoff rule for treating singular values as zero.

    A singular value counts toward the rank iff it exceeds
    ``max(abs_floor, rel_eps * max(rows, cols) * sigma_max)``; a shape with
    ``rel_eps * max(rows, cols) >= 1`` would discard every singular value
    and raises ValueError.
    """

    rel_eps: float = 1e-10
    abs_floor: float = 1e-300

    def __post_init__(self):
        if not 0 < self.rel_eps < 1:
            raise ValueError(f"rel_eps must lie in (0, 1), got {self.rel_eps}")
        if not 0 <= self.abs_floor < np.inf:
            raise ValueError(f"abs_floor must be finite and >= 0, got {self.abs_floor}")

    def cutoff(self, singular_values, shape) -> float:
        if self.rel_eps * max(shape) >= 1:
            raise ValueError(f"rel_eps {self.rel_eps} times the largest dimension of a {shape[0]}"
                             f" x {shape[1]} matrix is >= 1: no singular value can count")
        smax = float(singular_values[0]) if len(singular_values) else 0.0
        return max(self.abs_floor, self.rel_eps * max(shape) * smax)

    def rank(self, singular_values, shape) -> int:
        """Number of the descending `singular_values` of a `shape` matrix above the cutoff."""
        return int(np.sum(singular_values > self.cutoff(singular_values, shape)))


DEFAULT_TOL = ToleranceConfig()


def as_matrix(M) -> np.ndarray:
    """Coerce to a finite float64 2-d array, or raise InvalidMatrix."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise InvalidMatrix(f"expected a 2-d array, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise NonFiniteEntry("matrix contains NaN or Inf entries")
    return A


def _svd(M, tol: ToleranceConfig):
    """Thin SVD ``(U, s, Vt)`` of M and its rank ``r`` under the shared cutoff."""
    A = as_matrix(M)
    wide = A.shape[0] < A.shape[1]
    U, s, Vt = np.linalg.svd(A.T if wide else A, full_matrices=False)
    if wide:
        U, Vt = Vt.T, U.T
    return U, s, Vt, tol.rank(s, A.shape)


def numerical_rank(M, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Number of singular values above the shared cutoff."""
    A = as_matrix(M)
    s = np.linalg.svd(A.T if A.shape[0] < A.shape[1] else A, compute_uv=False)
    return tol.rank(s, A.shape)


def pseudoinverse(M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with thresholded inversion."""
    U, s, Vt, r = _svd(M, tol)
    return (Vt[:r].T / s[:r]) @ U[:, :r].T


def rank_factorize(M, tol: ToleranceConfig = DEFAULT_TOL):
    """Full-rank factorization ``M = O @ R`` with balanced SVD factors.

    Returns ``(O, R, r)`` where ``r`` is the numerical rank, ``O`` is
    rows x r and ``R`` is r x cols, both of full rank r, built as
    ``O = U sqrt(S)`` and ``R = sqrt(S) V^T`` from the truncated SVD.
    """
    U, s, Vt, r = _svd(M, tol)
    root = np.sqrt(s[:r])
    return U[:, :r] * root, root[:, None] * Vt[:r, :], r


def range_basis(M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns spanning the column space of M."""
    U, _, _, r = _svd(M, tol)
    return U[:, :r]


def row_basis(M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal rows spanning the row space of M."""
    _, _, Vt, r = _svd(M, tol)
    return Vt[:r, :]
