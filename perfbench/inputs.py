"""Seeded benchmark inputs, built with numpy alone.

Nothing here imports the package under test, so a change to the library
cannot change which systems the benchmark draws.  Every random system is
accepted only when reference rank decisions, made on its extended
reachability and observability matrices with the library's cutoff rule
(singular values above ``REL_EPS * max(shape) * sigma_1``), sit at least
``MARGIN`` away from that cutoff, and, for minimal systems, when the Hankel
window H_{n-1,n} has sigma_n / sigma_1 above ``SV_GAP`` (the rule the test
suite uses for its populations).

The extended matrices grow like (D+1)^(n-1) columns, so their singular
values are computed from an n x n compression that is updated by one QR
per depth level: [K, A_1 K, ..., A_D K] has the same singular values as
[R_i, A_1 R_i, ..., A_D R_i] whenever K K^T = R_i R_i^T.

`build(workload, seed)` returns the round of items a workload cycles
through; `digest` hashes them so runs on two commits can show they used
identical inputs.
"""

from __future__ import annotations

import hashlib

import numpy as np

REL_EPS = 1e-10
MARGIN = 100.0
SV_GAP = 1e-4
WORKLOADS = ("blackbox", "pipeline", "reduce", "simulate")


class Rejected(Exception):
    """A draw whose rank decisions are too close to the cutoff."""


# -- reference linear algebra -------------------------------------------------

def _compress(K):
    """An n x min(n, cols) matrix with the same Gram matrix K K^T as K."""
    return np.linalg.qr(K.T, mode="r").T


def extended_singular_values(A, X, depth):
    """Singular values of [X], then [R, A_1 R, ..., A_D R] repeated `depth` times."""
    K = _compress(X)
    for _ in range(depth):
        K = _compress(np.hstack([K] + [Aq @ K for Aq in A]))
    return np.linalg.svd(K, compute_uv=False), K


def decided_rank(s, shape):
    """Rank under the library cutoff; Rejected if any value sits near it."""
    cut = REL_EPS * max(shape) * s[0]
    if np.any((s > cut / MARGIN) & (s < cut * MARGIN)):
        raise Rejected("singular value near the rank cutoff")
    return int(np.sum(s > cut))


def reach_rank(A, B):
    D, n, m = B.shape
    s, K = extended_singular_values(A, np.hstack(list(B)), n - 1)
    return decided_rank(s, (n, m * D * (D + 1) ** (n - 1))), K


def obs_rank(A, C):
    D, p, n = C.shape
    s, _ = extended_singular_values(A.transpose(0, 2, 1), np.hstack([Cq.T for Cq in C]), n - 1)
    return decided_rank(s, (n, p * D * (D + 1) ** (n - 1)))


def word_factor(A, X, depth):
    """[X, A_q X, A_q A_r X, ...] over all words of length <= depth."""
    level = [X]
    blocks = [X]
    for _ in range(depth):
        level = [Aq @ P for P in level for Aq in A]
        blocks.extend(level)
    return np.hstack(blocks)


def hankel_gap(A, B, C):
    """sigma_n / sigma_1 of H_{n-1,n}, from its two rank-n word factors."""
    n = A.shape[1]
    Rf = word_factor(A, np.hstack(list(B)), n)
    Of = word_factor(A.transpose(0, 2, 1), np.hstack([Cq.T for Cq in C]), n - 1)
    r1 = np.linalg.qr(Of.T, mode="r")
    r2 = np.linalg.qr(Rf.T, mode="r")
    s = np.linalg.svd(r1 @ r2.T, compute_uv=False)
    return s[n - 1] / s[0] if len(s) >= n else 0.0


# -- systems ------------------------------------------------------------------

def random_family(rng, n, D, m, p):
    return (
        rng.uniform(-1, 1, (D, n, n)),
        rng.uniform(-1, 1, (D, n, m)),
        rng.uniform(-1, 1, (D, p, n)),
    )


def minimal_family(rng, n, D, m, p):
    """A random minimal family whose rank decisions are far from the cutoff."""
    for _ in range(500):
        A, B, C = random_family(rng, n, D, m, p)
        try:
            if reach_rank(A, B)[0] != n or obs_rank(A, C) != n:
                continue
        except Rejected:
            continue
        if hankel_gap(A, B, C) > SV_GAP:
            return A, B, C
    raise RuntimeError(f"no well-conditioned minimal system for n={n}, D={D}")


def pad(rng, core, k_reach, k_obs):
    """Append k_reach unreachable, then k_obs unobservable states.

    The unreachable states have zero B rows and zero lower-left A blocks;
    the unobservable ones have zero C columns and zero upper-right A
    blocks, so both defects are exact in floating point.
    """
    A, B, C = core
    D, n, m = B.shape
    p = C.shape[1]
    k = k_reach
    A = np.concatenate(
        [np.concatenate([A, rng.uniform(-1, 1, (D, n, k))], axis=2),
         np.concatenate([np.zeros((D, k, n)), rng.uniform(-1, 1, (D, k, k))], axis=2)],
        axis=1,
    )
    B = np.concatenate([B, np.zeros((D, k, m))], axis=1)
    C = np.concatenate([C, rng.uniform(-1, 1, (D, p, k))], axis=2)
    n, k = n + k, k_obs
    A = np.concatenate(
        [np.concatenate([A, np.zeros((D, n, k))], axis=2),
         np.concatenate([rng.uniform(-1, 1, (D, k, n)), rng.uniform(-1, 1, (D, k, k))], axis=2)],
        axis=1,
    )
    B = np.concatenate([B, rng.uniform(-1, 1, (D, k, m))], axis=1)
    C = np.concatenate([C, np.zeros((D, p, k))], axis=2)
    return A, B, C


def minimal_order(A, B, C):
    """Order after reachability then observability reduction, as `minimize` does it."""
    r, K = reach_rank(A, B)
    V = np.linalg.svd(K, full_matrices=False)[0][:, :r]
    Ar = np.einsum("ji,qjk,kl->qil", V, A, V)
    return obs_rank(Ar, C @ V)


def padded_family(rng, n, D, k_reach, k_obs):
    """A padded non-minimal system whose planted ranks the reference confirms."""
    for _ in range(100):
        core = minimal_family(rng, n, D, 1, 1)
        A, B, C = pad(rng, core, k_reach, k_obs)
        N = n + k_reach + k_obs
        try:
            if (
                reach_rank(A, B)[0] == N - k_reach
                and obs_rank(A, C) == N - k_obs
                and minimal_order(A, B, C) == n
            ):
                return core, (A, B, C)
        except Rejected:
            continue
    raise RuntimeError(f"no padded system with exact planted ranks for n={n}, D={D}")


def contractive_family(rng, n, D, m, p):
    """Random family scaled so that sum_q ||A_q||_2 = 0.9.

    Any scheduling vector in [-1, 1]^D then gives a state map of norm at
    most 0.9, so long runs neither overflow nor vanish into denormals.
    """
    A, B, C = random_family(rng, n, D, m, p)
    A = A * (0.9 / sum(np.linalg.norm(Aq, 2) for Aq in A))
    return A, B, C


def reference_outputs(A, B, C, x0, sched, u):
    """Outputs y(0)..y(T) of the state recursion, written independently of the library.

    The per-step matrices sum_q p_q(t) A_q (and likewise B, C) are formed for
    all t at once; only the recursion itself loops.
    """
    At = np.einsum("tq,qij->tij", sched, A)
    bu = np.einsum("tq,qij,tj->ti", sched, B, u)
    Ct = np.einsum("tq,qij->tij", sched, C)
    xs = np.empty((sched.shape[0], x0.shape[0]))
    x = x0.copy()
    for t in range(sched.shape[0]):
        xs[t] = x
        x = At[t] @ x + bu[t]
    return np.einsum("tij,tj->ti", Ct, xs)


# -- workloads ----------------------------------------------------------------
# Each builder returns one round: the list of items a run cycles through in
# order.  The mix of sizes in a round is what the percentiles are taken over.

def _blackbox(rng):
    items = []
    for (n, D, m, p), count in (
        ((2, 2, 1, 1), 10),
        ((2, 2, 2, 2), 4),
        ((2, 3, 1, 1), 3),
        ((3, 2, 1, 1), 2),
        ((3, 2, 2, 2), 4),
        ((3, 3, 1, 1), 1),
    ):
        for _ in range(count):
            items.append({"kind": "identify", "system": minimal_family(rng, n, D, m, p)})
    for i in range(12):
        D = 1 + i % 2
        a, b, c = (rng.uniform(0.2, 1.0, D) * rng.choice([-1.0, 1.0], D) for _ in range(3))
        items.append({
            "kind": "equation",
            "scalar": (a, b, c),
            "exact": i < 6,
            "check_seed": int(rng.integers(2**31)),
        })
    return items


def _pipeline(rng):
    items = []
    for (n, D, m, p), count in (
        ((3, 2, 1, 1), 9),
        ((3, 2, 2, 2), 10),
        ((4, 2, 1, 1), 2),
        ((4, 2, 2, 2), 2),
        ((5, 2, 1, 1), 1),
        ((5, 2, 2, 2), 3),
        ((3, 3, 1, 1), 2),
        ((4, 3, 1, 1), 1),
    ):
        for _ in range(count):
            items.append({"kind": "pipeline", "system": minimal_family(rng, n, D, m, p)})
    return items


def _reduce(rng):
    items = []
    for (n, D, k_reach, k_obs), count in (
        ((4, 2, 2, 2), 3),
        ((5, 2, 2, 2), 2),
        ((6, 2, 3, 3), 1),
        ((4, 3, 2, 2), 3),
        ((5, 3, 2, 2), 3),
        ((6, 3, 2, 2), 1),
    ):
        for _ in range(count):
            core, padded = padded_family(rng, n, D, k_reach, k_obs)
            items.append({
                "kind": "reduce",
                "core": core,
                "system": padded,
                "planted": (k_reach, k_obs),
            })
    return items


def _simulate(rng):
    items = []
    systems = (contractive_family(rng, 8, 3, 2, 2), contractive_family(rng, 4, 2, 1, 1))
    for kind in ("simulate", "switched"):
        for A, B, C in systems:
            D, n, m = B.shape
            for steps in (1000, 1500, 2000):
                if kind == "simulate":
                    sched = rng.uniform(-1, 1, (steps, D))
                    x0 = rng.uniform(-1, 1, n)
                    modes = None
                else:
                    modes = rng.integers(1, D + 1, steps)
                    sched = np.eye(D)[modes - 1]
                    x0 = np.zeros(n)
                u = rng.uniform(-1, 1, (steps, m))
                items.append({
                    "kind": kind,
                    "system": (A, B, C),
                    "x0": x0,
                    "scheduling": sched,
                    "modes": modes,
                    "inputs": u,
                })
    return items


_BUILDERS = {
    "blackbox": _blackbox,
    "pipeline": _pipeline,
    "reduce": _reduce,
    "simulate": _simulate,
}


def build(workload: str, seed: int) -> list:
    """The round of inputs for one workload; the same seed gives the same items."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng)


def digest(items) -> str:
    """SHA-256 over every value of the items, in order."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, dict):
            for key in sorted(obj):
                h.update(key.encode())
                feed(obj[key])
        elif isinstance(obj, (list, tuple)):
            h.update(b"[%d" % len(obj))
            for x in obj:
                feed(x)
        elif isinstance(obj, np.ndarray):
            h.update(str(obj.shape).encode())
            h.update(np.ascontiguousarray(obj, dtype=float).tobytes())
        else:
            h.update(repr(obj).encode())

    feed(items)
    return h.hexdigest()
