"""Rank tests, Kalman-Ho realization, reduction to minimality, isomorphism.

Minimality of an affine LPV system is equivalent to being both reachable
and observable, and both are decided by the rank of the Hankel factor
`reachability_factor(sys, n-1)`, whose block column for the word v is
A_{v_k} ... A_{v_1} [B_1, ..., B_D], and of the same factor for the dual
family (A_q^T, C_q^T, B_q^T), which gives observability and its reduction.
`extended_reachability` (R_{i+1} = [R_i, A_1 R_i, ..., A_D R_i]) spans the
same space but repeats every word; it is kept only as a test reference.

`kalman_ho` recovers a state-space family from a finite Hankel sub-matrix
H_{L,L+1}: rank-factorize H = O R, read [B_1..B_D] off the first mD
columns of R and [C_1;..;C_D] off the first pD rows of O, and solve for
each A_q from the column shift v |-> v q of the word enumeration.  The
factorization of an a x b window of rank n goes through the certified
range sketch of `linalg` and costs O(ab n) rather than a dense SVD.  When
rank H_{L,L} already equals the rank of the full Hankel matrix (guaranteed
as soon as some realization of dimension <= L+1 exists), the result is a
minimal realization of the underlying map.

Minimal realizations of the same map are unique up to a constant
(scheduling-independent) state isomorphism, which `find_isomorphism`
recovers from the observability factors and verifies on all defining
relations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import words as _w
from .errors import DimensionMismatch, NotIsomorphic, ShapeMismatch
from .hankel import HankelBlockMatrix, observability_factor, reachability_factor
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    numerical_rank,
    pseudoinverse,
    range_basis,
    rank_factorize,
    row_basis,  # not called here; perfbench/tracing.py rebinds realize.row_basis by name
)
from .model import ALPVSystem, dual, validate


@dataclass(frozen=True)
class AnalysisReport:
    """Ranks of the reachability/observability factors at depth n-1 and the derived flags."""

    reach_rank: int
    obs_rank: int
    n: int
    reachable: bool
    observable: bool
    minimal: bool


def extended_reachability(sys: ALPVSystem, depth: int) -> np.ndarray:
    """R_depth per the branching recursion; shape n x mD*(D+1)^depth."""
    validate(sys)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    R = np.hstack(sys.B)
    for _ in range(depth):
        R = np.hstack([R] + [Aq @ R for Aq in sys.A])
    return R


def extended_observability(sys: ALPVSystem, depth: int) -> np.ndarray:
    """O_depth = R_depth of the dual family, transposed; shape pD*(D+1)^depth x n."""
    return extended_reachability(dual(sys), depth).T


def analyze(sys: ALPVSystem, tol: ToleranceConfig = DEFAULT_TOL) -> AnalysisReport:
    """Rank the depth n-1 reachability and observability factors; the three flags.

    Depth n-1 is sharp: longer words cannot gain rank.  A zero-dimensional
    system is trivially minimal.
    """
    validate(sys)
    n = sys.n
    if n == 0:
        return AnalysisReport(0, 0, 0, True, True, True)
    reach = numerical_rank(reachability_factor(sys, n - 1), tol)
    obs = numerical_rank(observability_factor(sys, n - 1), tol)
    return AnalysisReport(
        reach_rank=reach,
        obs_rank=obs,
        n=n,
        reachable=reach == n,
        observable=obs == n,
        minimal=reach == n and obs == n,
    )


def kalman_ho(H: HankelBlockMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ALPVSystem:
    """Recover a system of dimension rank(H) from H_{L,L+1}.

    The column bound must be exactly L + 1: block column j of the shifted
    factor R_q is the block column of R at the position of the word v_j q,
    which must itself lie within the column enumeration.  `rank_factorize`
    finds the rank n through a certified range sketch once the window's
    shorter side reaches 64 entries, in O(ab n) for an a x b window; its
    rank is the dense SVD's unless a singular value of H lies within 10% of
    the cutoff.  The shift solve pseudo-inverts the n x N(L)mD block of R.
    """
    if H.M != H.L + 1:
        raise ShapeMismatch(
            f"Hankel column bound must be L+1: got L={H.L}, M={H.M}"
        )
    D, m, p, L = H.D, H.m, H.p, H.L
    O, R, n = rank_factorize(H.data, tol)
    n_rows, mD = _w.word_count(L, D), m * D
    Rbar_pinv = pseudoinverse(R[:, : n_rows * mD], tol)
    R3 = R.reshape(n, _w.word_count(L + 1, D), mD)
    shifted = R3[:, _w.shift_positions(L, D)]  # n x D x N(L) x mD: block (q, j) is v_j q
    A = [shifted[:, q].reshape(n, n_rows * mD) @ Rbar_pinv for q in range(D)]
    B = [R[:, (q - 1) * m : q * m] for q in range(1, D + 1)]
    C = [O[(q - 1) * p : q * p, :] for q in range(1, D + 1)]
    return ALPVSystem(A=A, B=B, C=C)


def reach_reduce(sys: ALPVSystem, tol: ToleranceConfig = DEFAULT_TOL):
    """Restrict to the reachable subspace; returns (reduced system, basis V).

    V has orthonormal columns spanning the depth n-1 reachability factor.
    That space is invariant under every A_q and contains every column of
    every B_q, so (V^T A_q V, V^T B_q, C_q V) reproduces the input-output map.
    """
    validate(sys)
    n = sys.n
    if n == 0:
        return sys, np.zeros((0, 0))
    V = range_basis(reachability_factor(sys, n - 1), tol)
    A = [V.T @ Aq @ V for Aq in sys.A]
    B = [V.T @ Bq for Bq in sys.B]
    C = [Cq @ V for Cq in sys.C]
    return ALPVSystem(A=A, B=B, C=C), V


def obs_reduce(sys: ALPVSystem, tol: ToleranceConfig = DEFAULT_TOL):
    """Quotient by the unobservable subspace; returns (reduced system, basis W).

    The reachability reduction of the dual family, dualized back: W = V^T
    has orthonormal rows spanning the row space of the observability factor,
    and the reduced family is (W A_q W^T, W B_q, C_q W^T).
    """
    reduced, V = reach_reduce(dual(sys), tol)
    return dual(reduced), V.T


def minimize(sys: ALPVSystem, tol: ToleranceConfig = DEFAULT_TOL) -> ALPVSystem:
    """Reachability reduction followed by observability reduction.

    The result is minimal and input-output equivalent to the argument; its
    dimension equals the Hankel rank at bounds (n-1, n-1) and does not
    depend on the reduction order.
    """
    reduced, _ = reach_reduce(sys, tol)
    reduced, _ = obs_reduce(reduced, tol)
    return reduced


def isomorphism_residual(sys1: ALPVSystem, sys2: ALPVSystem, T) -> float:
    """Worst relative defect of the relations A2_q T = T A1_q, B2_q = T B1_q, C2_q T = C1_q."""
    validate(sys1)
    validate(sys2)
    T = np.asarray(T, dtype=float)
    worst = 0.0
    for q in range(sys1.D):
        pairs = (
            (sys2.A[q] @ T, T @ sys1.A[q]),
            (sys2.B[q], T @ sys1.B[q]),
            (sys2.C[q] @ T, sys1.C[q]),
        )
        for lhs, rhs in pairs:
            scale = 1.0 + np.linalg.norm(lhs) + np.linalg.norm(rhs)
            worst = max(worst, np.linalg.norm(lhs - rhs) / scale)
    return worst


def find_isomorphism(
    sys1: ALPVSystem,
    sys2: ALPVSystem,
    tol: ToleranceConfig = DEFAULT_TOL,
    residual_tol: float = 1e-7,
) -> np.ndarray:
    """State transformation T with A2_q T = T A1_q, B2_q = T B1_q, C2_q T = C1_q.

    Both systems must be minimal with equal (D, n, m, p).  T is computed as
    pinv(O2) @ O1 from the depth n-1 observability factors and
    then verified on every relation; if any residual exceeds residual_tol,
    or T is singular, the systems are not related by a constant isomorphism
    (not equivalent, or not minimal) and NotIsomorphic is raised.
    residual_tol must be finite and >= 0.
    """
    if not 0 <= residual_tol < np.inf:
        raise ValueError(f"residual_tol must be finite and >= 0, got {residual_tol}")
    validate(sys1)
    validate(sys2)
    if sys1.dims != sys2.dims:
        raise DimensionMismatch(
            f"systems have different dimensions: {sys1.dims} vs {sys2.dims}"
        )
    n = sys1.n
    if n == 0:
        return np.zeros((0, 0))
    O1 = observability_factor(sys1, n - 1)
    O2 = observability_factor(sys2, n - 1)
    T = pseudoinverse(O2, tol) @ O1
    res = isomorphism_residual(sys1, sys2, T)
    if res > residual_tol:
        raise NotIsomorphic(
            f"relation residual {res:.3e} exceeds tolerance {residual_tol:.1e}"
        )
    if numerical_rank(T, tol) < n:
        raise NotIsomorphic("computed transformation is singular")
    return T
