"""Dense linear-algebra kernels with one shared numerical-rank rule.

Every rank decision in the package (Hankel ranks, reachability and
observability tests, factorizations, pseudoinverses) goes through the same
singular-value cutoff so that the modules agree on what counts as zero.
Wide matrices, such as the n x N(n-1)mD reachability factors of the rank
tests, are factored through their transpose, where the SVD is faster.

The factorizations share one SVD helper.  A matrix whose shorter side has
at least 64 entries, such as a Kalman-Ho Hankel window, is first factored
through a seeded Gaussian range sketch (Halko, Martinsson & Tropp, "Finding
structure with randomness", SIAM Review 2011), whose residual is checked
against a tenth of the rank cutoff; a window of rank n then costs O(ab n)
instead of a dense SVD.  Every other matrix, and every sketch that the
residual does not certify, takes the dense SVD.  `numerical_rank` needs no
singular vectors and always takes the dense values-only SVD.
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


def _sketched_svd(T, shape, tol: ToleranceConfig):
    """Truncated SVD of the tall a x b matrix T through a certified range sketch, or None.

    For widths k = 8, 16, 32, ... with 8k <= b: Q = orth(T Omega) for a
    Gaussian b x k Omega from a fixed seed, B = Q^T T, and the SVD
    U_B S V^T of the small k x b matrix B.  The sketch is accepted when S
    reaches the cutoff (taken from sigma_1(B) and the `shape` of the
    original matrix) within its k values, so the rank ends inside the
    width, and the residual E = T - Q B has ||E||_F <= cutoff / 10; then
    T = (Q U_B) S V^T + E.  By Weyl's inequality every singular value of T
    lies within ||E||_2 <= cutoff / 10 of the matching value of S (zero past
    the k-th), so the rank equals the dense rule's unless a singular value
    of T lies within 10% of the cutoff (sigma_1 moves by as little, which
    shifts the cutoff itself by a relative rel_eps * max(shape) / 10 at
    most).  Returns None when no width is certified.
    """
    b = T.shape[1]
    if b < 64:  # no width k >= 8 has 8k <= b
        return None
    rng = np.random.default_rng(0)  # a fixed seed keeps every result deterministic
    k = 8
    while 8 * k <= b:
        Q, _ = np.linalg.qr(T @ rng.standard_normal((b, k)))
        B = Q.T @ T
        Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
        cutoff = tol.cutoff(s, shape)
        if s[-1] <= cutoff:
            E = np.matmul(Q, B, out=np.empty_like(T))  # T's memory order: E -= T runs contiguously
            E -= T
            if np.linalg.norm(E) <= cutoff / 10:
                return Q @ Ub, s, Vt
        k *= 2
    return None


def _svd(M, tol: ToleranceConfig):
    """Thin SVD ``(U, s, Vt)`` of M and its rank ``r`` under the shared cutoff.

    The factors are exact only up to the rank: a matrix whose shorter side
    has at least 64 entries goes through `_sketched_svd` first, whose
    factors have as few columns as its certified sketch width and whose
    trailing singular values are those of the sketch.  Callers read the
    leading ``r`` columns, values and rows only.  The dense thin SVD is
    the fallback and the reference.
    """
    A = as_matrix(M)
    wide = A.shape[0] < A.shape[1]
    T = A.T if wide else A
    U, s, Vt = _sketched_svd(T, A.shape, tol) or np.linalg.svd(T, full_matrices=False)
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
    A low-rank matrix whose shorter side has at least 64 entries is factored
    through the certified range sketch of `_svd` in O(rows * cols * r) time;
    its rank equals that of the dense SVD unless a singular value lies
    within 10% of the cutoff.
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
