"""Dense linear-algebra kernels with one shared numerical-rank rule.

Every rank decision in the package (Hankel ranks, reachability and
observability tests, factorizations, pseudoinverses) goes through the
functions of this module and the same singular-value cutoff, so that the
modules agree on what counts as zero.  The cutoff always scales with the
shape of the matrix being ranked: the system-side decisions of `hankel`
and `realize` pass the small roots of the Hankel factors here and are
ranked as the at most n x n matrices they are.  Wide matrices are
factored through their transpose, where the SVD is faster.

The factorizations share one SVD helper.  A matrix whose shorter side has
at least 64 entries, such as a Kalman-Ho Hankel window, is first factored
through a seeded Gaussian range sketch (Halko, Martinsson & Tropp, "Finding
structure with randomness", SIAM Review 2011), whose residual is checked
against a tenth of the rank cutoff; a window of rank n then costs O(ab n)
instead of a dense SVD.  Every other matrix, and every sketch that the
residual does not certify, takes the dense SVD.  A window whose factors
Of @ Rf are known (a system's, from `hankel.build_hankel`) skips both:
`factored_rank_factorize` takes the SVD of the at most n x b core of the
factors and still decides the rank under the window's a x b cutoff, and
`rank_factorize` and `numerical_rank` rank the probed block columns of an
oracle window under the whole window's cutoff when given its `shape`.
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


def _sketched_svd(T, shape, tol: ToleranceConfig):
    """Truncated SVD of the tall a x b matrix T through a certified range sketch, or None.

    For widths k = 8, 16, 32, ... with 8k <= b: Q = orth(T Omega) for a
    Gaussian b x k Omega from a fixed seed, B = Q^T T, and the SVD
    U_B S V^T of the small k x b matrix B.  The sketch is accepted when S
    reaches the cutoff (taken from sigma_1(B) and the `shape` of the
    original matrix) within its k values, so the rank ends inside the
    width, and the residual E = T - Q B has ||E||_F <= cutoff / 10 (summed
    slab by slab in `_residual_norm`, never held whole); then
    T = (Q U_B) S V^T + E.  By Weyl's inequality every singular value of T
    lies within ||E||_2 <= cutoff / 10 of the matching value of S (zero past
    the k-th), so the rank equals the dense rule's unless a singular value
    of T lies within 10% of the cutoff (sigma_1 moves by as little, which
    shifts the cutoff itself by a relative rel_eps * max(shape) / 10 at
    most).  Returns None when no width is certified.
    """
    b = T.shape[1]
    rng = np.random.default_rng(0)  # a fixed seed keeps every result deterministic
    k = 8
    while 8 * k <= b:
        Q, _ = np.linalg.qr(T @ rng.standard_normal((b, k)))
        B = Q.T @ T
        Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
        cutoff = tol.cutoff(s, shape)
        if s[-1] <= cutoff and _residual_norm(T, Q, B) <= cutoff / 10:
            return Q @ Ub, s, Vt
        k *= 2
    return None


def _residual_norm(T, Q, B) -> float:
    """||Q B - T||_F, summed over slabs of at most 2**20 entries along T's contiguous axis.

    Only one slab of the residual exists at a time, so checking a sketch
    costs no second copy of the window T.
    """
    if T.flags.f_contiguous and not T.flags.c_contiguous:
        T, Q, B = T.T, B.T, Q.T  # the transposed residual has contiguous rows
    step = max(1, 2**20 // T.shape[1])
    total = 0.0
    for i in range(0, T.shape[0], step):
        E = Q[i : i + step] @ B
        E -= T[i : i + step]
        total += float(np.vdot(E, E))
    return total**0.5


def _svd(M, tol: ToleranceConfig, shape=None):
    """Thin SVD ``(U, s, Vt)`` of M and its rank ``r`` under the shared cutoff.

    The cutoff is that of M's own shape, or of `shape` when given.  The
    factors are exact only up to the rank: a matrix whose shorter side has
    at least 64 entries goes through `_sketched_svd` first, whose
    factors have as few columns as its certified sketch width and whose
    trailing singular values are those of the sketch.  Callers read the
    leading ``r`` columns, values and rows only.  The dense thin SVD is
    the fallback and the reference.
    """
    A = as_matrix(M)
    wide = A.shape[0] < A.shape[1]
    T = A.T if wide else A
    shape = A.shape if shape is None else shape
    sketched = _sketched_svd(T, shape, tol) if T.shape[1] >= 64 else None  # else no k has 8k <= b
    U, s, Vt = sketched or np.linalg.svd(T, full_matrices=False)
    if wide:
        U, Vt = Vt.T, U.T
    return U, s, Vt, tol.rank(s, shape)


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
    ``O = U sqrt(S)`` and ``R = sqrt(S) V^T`` from the truncated SVD.
    A low-rank matrix whose shorter side has at least 64 entries is factored
    through the certified range sketch of `_svd` in O(rows * cols * r) time;
    its rank equals that of the dense SVD unless a singular value lies
    within 10% of the cutoff.  The rank is decided under the cutoff of M's
    own shape, or of `shape` when M is part of a larger matrix of that shape
    (the probed block columns of a Hankel window, in `kalman_ho`).
    """
    U, s, Vt, r = _svd(M, tol, shape)
    root = np.sqrt(s[:r])
    return U[:, :r] * root, root[:, None] * Vt[:r, :], r


def factored_rank_factorize(Of, Rf, tol: ToleranceConfig = DEFAULT_TOL):
    """`rank_factorize` of M = Of @ Rf from its factors, without forming or sketching M.

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
