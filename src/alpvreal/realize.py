"""Rank tests, Kalman-Ho realization, reduction to minimality, isomorphism.

Minimality of an affine LPV system is equivalent to being both reachable
and observable, and both are decided by the rank of the depth n-1 Hankel
factor Rf = [A_v Btilde : |v| <= n-1], whose block column for the word v
is A_{v_k} ... A_{v_1} [B_1, ..., B_D], and of the same factor for the dual
family (A_q^T, C_q^T, B_q^T), which gives observability and its reduction.
The factor has N(n-1)*mD columns, so it is never built here: what is ranked
is its at most n x n root from `hankel.factor_root`, which has the factor's
singular values and left singular vectors.  Every rank goes through
`linalg` with the cutoff of the matrix actually ranked, the root, so the
cutoff does not grow with the number of words.  A zero-dimensional system
takes the same path at depth 0, with empty roots.  `extended_reachability`
(R_{i+1} = [R_i, A_1 R_i, ..., A_D R_i]) spans the same space but repeats
every word; it is kept only as a test reference.

`kalman_ho` recovers a state-space family from a finite Hankel sub-matrix
H_{L,L+1}: rank-factorize H = O R, read [B_1..B_D] off the first mD
columns of R and [C_1;..;C_D] off the first pD rows of O, and solve for
each A_q from the column shift v |-> v q of the word enumeration.  The
factorization takes one of two routes, chosen by what the window holds.
A window built from a system holds only its factors H = Of Rf (inner
dimension the system's n), and is factored from them in O((a + b) n^2)
without ever being assembled.  Every other window (an oracle's, a table's,
one given as data or loaded from a file) is realized from a column-word
search: the block column of the empty word, then the extensions v q of
each word |v| <= L whose block column raised the rank, level by level
until a level raises nothing.  The raising columns span the Krylov closure
of Btilde's, so for a map of order n it reaches at most 1 + nD of the
N(L+1) block columns and gets the window's rank whenever that is the
map's.  An oracle window is probed, never assembled: block (v_r, v_c) is
M(v_c v_r), so column v q repeats column v at row q v_r whenever
|q v_r| <= L, and the search probes each distinct run once (720 probes
where its columns hold 936 at D=3, n=3, m=p=2, L=2); its shift solve runs
on the raising words and their extensions only.  A window given as data
has its block columns read off the data, and R = pinv(O) H over all of
them, so its shift is solved over every word |v| <= L, as a system
window's is.  Both routes decide the rank under the window's own a x b
cutoff; on a window without factors that is the rank of the searched
columns, which can differ from the whole window's either way when
singular values lie within about a decade of the cutoff (as noisy or
rounded data can have them).  When rank H_{L,L} already equals the rank
of the full Hankel matrix (guaranteed as soon as some realization of
dimension <= L+1 exists), the result is a minimal realization of the
underlying map.

Minimal realizations of the same map are unique up to a constant
(scheduling-independent) state isomorphism, which `find_isomorphism`
recovers from the joint root of both observability factors and verifies
on all defining relations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import words as _w
from .errors import DimensionMismatch, NonFiniteEntry, NotIsomorphic, ShapeMismatch
from .hankel import HankelBlockMatrix, factor_root, observability_root, reachability_root
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    factored_rank_factorize,
    numerical_rank,
    pseudoinverse,
    range_basis,  # not called here; perfbench/tracing.py rebinds realize.range_basis by name
    rank_factorize,
    row_basis,
)
from .markov import stacked_output_matrix, word_blocks
from .model import ALPVSystem, dual


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

    Each rank is the `numerical_rank` of the factor's at most n x n root,
    which has the factor's singular values; the cutoff is the root's own.
    Depth n-1 is sharp: longer words cannot gain rank.  A zero-dimensional
    system has 0 x 0 roots (depth 0) and is minimal.
    """
    n, depth = sys.n, max(sys.n - 1, 0)
    reach = numerical_rank(reachability_root(sys, depth), tol)
    obs = numerical_rank(observability_root(sys, depth), tol)
    return AnalysisReport(
        reach_rank=reach,
        obs_rank=obs,
        n=n,
        reachable=reach == n,
        observable=obs == n,
        minimal=reach == n and obs == n,
    )


def _block_columns(H: HankelBlockMatrix, words, memo: dict) -> np.ndarray:
    """The block columns of a factor-less window H for the column words `words`, side by side.

    They are read off `data` when H holds it (given as data, or an oracle
    window once assembled) and probed through `word_blocks` otherwise, each
    word not yet in `memo` once, with the same values either way.
    """
    data = vars(H).get("data")
    if data is None:
        return word_blocks(H.oracle, _w.words_up_to(H.L, H.D), words, memo)
    at = [_w.word_to_index(v, H.D) - 1 for v in words]
    return data.reshape(len(data), -1, H.m * H.D)[:, at].reshape(len(data), -1)


def _column_search(H: HankelBlockMatrix, tol: ToleranceConfig):
    """Rank-factorize the block columns of a factor-less window that a column-word search reaches.

    Level 0 is the empty word; level k+1 is the extensions v q, q = 1..D, of
    the words v of level k with |v| <= L whose block column raised the rank
    of the columns before it, and the search ends at the first level that
    raises nothing.  Words of length L + 1 are never grown, so only the
    final factorization ranks their columns.  Every rank is decided under
    the cutoff of H's own a x b shape.  Returns (O, R, n, base, shift): the
    rank factorization O R of the searched columns in search order (the
    empty word first), the positions `base` of the raising words with
    |v| <= L among them, and the (D, len(base)) positions `shift` of their
    extensions.  An oracle window keeps that R.  A window given as data
    (its `oracle` None) gets R = pinv(O) H, every block column in word
    order, with `base` and `shift` over every word |v| <= L.  The raising
    columns span the Krylov closure of the empty word's, so the order is
    the window's rank whenever that equals the Hankel rank of the map, and
    at most (1 + n D) block columns of N(L) D^2 m cells each are searched.
    On an oracle window one memo (word -> S block) serves all levels, so
    each distinct run j v_c v_r i is probed once, in first-occurrence order.
    """
    D, mD = H.D, H.m * H.D
    P, rank, probed = np.empty((H.shape[0], 0)), 0, 0
    base, shift, level, memo = [], [np.empty((0, D), np.intp)], [_w.EPSILON], {}
    while level:
        columns, grown = _block_columns(H, level, memo), []
        for k, v in enumerate(level):
            P = np.hstack([P, columns[:, k * mD : (k + 1) * mD]])
            if len(v) > H.L:
                continue  # never grown: the final factorization ranks it
            r = numerical_rank(P, tol, shape=H.shape)
            if r > rank:
                base.append(probed + k)
                grown.append(v)
            rank = r
        probed += len(level)
        shift.append(probed + np.arange(len(grown) * D).reshape(-1, D))
        level = [v + (q,) for v in grown for q in range(1, D + 1)]
    O, R, n = rank_factorize(P, tol, shape=H.shape)
    if H.oracle is not None:
        return O, R, n, np.array(base, np.intp), np.concatenate(shift).T
    R = pseudoinverse(O, tol) @ H.data
    return O, R, n, slice(0, _w.word_count(H.L, D)), _w.shift_positions(H.L, D)


def kalman_ho(H: HankelBlockMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ALPVSystem:
    """Recover a system of dimension rank(H) from H_{L,L+1}.

    The column bound must be exactly L + 1: block column j of the shifted
    factor R_q is the block column of R at the position of the word v_j q,
    which must itself lie within the column enumeration.  The rank
    factorization H = O R takes one of two routes, chosen by what H holds,
    both under the cutoff of H's own a x b shape.  A window from
    `build_hankel(system)` keeps its factors (Of, Rf), and
    `linalg.factored_rank_factorize` reads O and R off the QR of Of and the
    SVD of the at most n_sys x b core, in O((a + b) n_sys^2) for a system of
    dimension n_sys, never touching H.  Every other window (`factors` None:
    an oracle's, a table's, or one given as data) goes through a column-word
    search (`_column_search`): it reads at most 1 + n D of the window's
    N(L+1) block columns, the empty word's and the extensions v q of the
    words |v| <= L whose columns raised the rank, and factors those alone.
    An oracle window is probed there, each distinct run once, and never
    assembled (its columns are read off `data` instead, unprobed, once that
    has been read); a probe that is not finite raises NonFiniteEntry here.
    The search gives the dense window's order whenever rank H equals the
    Hankel rank of the map; its order is the rank of the searched columns,
    which can differ from `numerical_rank(H.data)` either way when singular
    values lie within about a decade of the cutoff.  The shift solve
    pseudo-inverts the block columns of R for the words |v| <= L and maps
    them to those of v q: on an oracle window the raising words only, on a
    window given as data all of them, with R = pinv(O) H.
    """
    if H.M != H.L + 1:
        raise ShapeMismatch(
            f"Hankel column bound must be L+1: got L={H.L}, M={H.M}"
        )
    D, m, p, L = H.D, H.m, H.p, H.L
    mD = m * D
    if H.factors is None:
        O, R, n, base, shift = _column_search(H, tol)
    else:
        O, R, n = factored_rank_factorize(*H.factors, tol)
        base, shift = slice(0, _w.word_count(L, D)), _w.shift_positions(L, D)
    k = shift.shape[1]  # words v whose block column is pseudo-inverted
    R3 = R.reshape(n, R.shape[1] // mD, mD)
    Rbar_pinv = pseudoinverse(R3[:, base].reshape(n, k * mD), tol)
    shifted = R3[:, shift]  # n x D x k x mD: block (q, j) is v_j q
    A = shifted.transpose(1, 0, 2, 3).reshape(D, n, k * mD) @ Rbar_pinv
    B = R[:, :mD].reshape(n, D, m).transpose(1, 0, 2)
    C = O[: p * D].reshape(D, p, n)
    return ALPVSystem(A=A, B=B, C=C)


def reach_reduce(sys: ALPVSystem, tol: ToleranceConfig = DEFAULT_TOL):
    """Restrict to the reachable subspace; returns (reduced system, basis V).

    V has orthonormal columns spanning the depth n-1 reachability factor:
    V^T is the `row_basis` of the factor's at most n x n root, whose row
    space is the factor's column space, under the root's own cutoff.  That
    space is invariant under every A_q and contains every column of every
    B_q, so (V^T A_q V, V^T B_q, C_q V) reproduces the input-output map.
    """
    V = row_basis(reachability_root(sys, max(sys.n - 1, 0)), tol).T
    return ALPVSystem(A=V.T @ sys.A @ V, B=V.T @ sys.B, C=sys.C @ V), V


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
    """Worst relative defect of the relations A2_q T = T A1_q, B2_q = T B1_q, C2_q T = C1_q.

    Each defect ||lhs - rhs|| / (1 + ||lhs|| + ||rhs||) (Frobenius, per q) is taken
    with both sides divided by max(1, their largest entry), so no norm overflows.
    A non-finite T, or a relation whose products overflow, raises NonFiniteEntry.
    """
    if sys1.dims != sys2.dims:
        raise DimensionMismatch(f"systems have different dimensions: {sys1.dims} vs {sys2.dims}")
    T, n = np.asarray(T, dtype=float), sys1.n
    if T.shape != (n, n):
        raise DimensionMismatch(f"T must be {n} x {n} for state dimension n={n}, got {T.shape}")
    as_matrix(T)
    norm = lambda X: np.linalg.norm(X, axis=(1, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = ((sys2.A @ T, T @ sys1.A), (sys2.B, T @ sys1.B), (sys2.C @ T, sys1.C))
    worst = 0.0
    for lhs, rhs in pairs:
        scale = np.abs([lhs, rhs]).max(axis=(0, 2, 3), initial=1.0)
        if not np.isfinite(scale).all():
            raise NonFiniteEntry("an isomorphism relation overflows")
        lhs, rhs = lhs / scale[:, None, None], rhs / scale[:, None, None]
        worst = max(worst, float(np.max(norm(lhs - rhs) / (1.0 / scale + norm(lhs) + norm(rhs)))))
    return worst


def find_isomorphism(
    sys1: ALPVSystem,
    sys2: ALPVSystem,
    tol: ToleranceConfig = DEFAULT_TOL,
    residual_tol: float = 1e-7,
) -> np.ndarray:
    """State transformation T with A2_q T = T A1_q, B2_q = T B1_q, C2_q T = C1_q.

    Both systems must be minimal with equal (D, n, m, p).  T is pinv(O2) @ O1
    for the depth n-1 observability factors O1, O2, computed without them:
    the joint root K = [K2, K1] of [O2, O1] (the observability root of the
    block-diagonal family of both systems) satisfies [O2, O1] = Q K for some
    Q with orthonormal columns, so T = pinv(K2) @ K1, under the cutoff of
    the block K2 itself.  T is then verified on every relation; if any
    residual exceeds residual_tol, or T is singular, the systems are not
    related by a constant isomorphism (not equivalent, or not minimal) and
    NotIsomorphic is raised.
    residual_tol must be finite and >= 0.
    """
    if not 0 <= residual_tol < np.inf:
        raise ValueError(f"residual_tol must be finite and >= 0, got {residual_tol}")
    if sys1.dims != sys2.dims:
        raise DimensionMismatch(
            f"systems have different dimensions: {sys1.dims} vs {sys2.dims}"
        )
    n = sys1.n
    At = np.zeros((sys1.D, 2 * n, 2 * n))
    At[:, :n, :n] = sys2.A.transpose(0, 2, 1)
    At[:, n:, n:] = sys1.A.transpose(0, 2, 1)
    Ct = np.hstack([stacked_output_matrix(sys2), stacked_output_matrix(sys1)]).T
    K = factor_root(At, Ct, max(n - 1, 0))  # 0 x 0 for n = 0, so T is 0 x 0
    T = pseudoinverse(K[:, :n], tol) @ K[:, n:]
    res = isomorphism_residual(sys1, sys2, T)
    if res > residual_tol:
        raise NotIsomorphic(
            f"relation residual {res:.3e} exceeds tolerance {residual_tol:.1e}"
        )
    if numerical_rank(T, tol) < n:
        raise NotIsomorphic("computed transformation is singular")
    return T
