"""Seeded property tests over random systems and matrices of every small shape.

Systems range over D in {1, 2, 3}, n in {0, ..., 4} and m, p in {1, 2}; D = 1
exercises the single-symbol word order and n = 0 the empty state space.  The
rank tests and reductions, which work on the Hankel factors, are checked
against the extended matrices of the branching recursion on random systems
with planted unreachable and unobservable states.  Low-rank matrices whose
shorter side reaches 64 take the range-sketch route of the SVD helper and
are checked against the dense rank rule.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from alpvreal import (
    DEFAULT_TOL,
    analyze,
    build_hankel,
    convolution_output,
    extended_observability,
    extended_reachability,
    find_isomorphism,
    isomorphism_residual,
    kernel_coeff,
    markov_block,
    markov_table,
    minimize,
    numerical_rank,
    obs_reduce,
    pseudoinverse,
    range_basis,
    rank_factorize,
    reach_reduce,
    row_basis,
    simulate,
    system_oracle,
    words_up_to,
)

from alpvreal import linalg, realize
from helpers import pad_unobservable, pad_unreachable, random_run, random_system

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=30)


@st.composite
def systems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_system(
        rng,
        D=draw(st.integers(1, 3)),
        n=draw(st.integers(0, 4)),
        m=draw(st.integers(1, 2)),
        p=draw(st.integers(1, 2)),
    )


@st.composite
def padded_systems(draw):
    """A random core (n <= 4) with 0-2 unreachable, then 0-2 unobservable states planted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    core = random_system(
        rng,
        D=draw(st.integers(1, 3)),
        n=draw(st.integers(1, 4)),
        m=draw(st.integers(1, 2)),
        p=draw(st.integers(1, 2)),
    )
    unreachable = pad_unreachable(core, draw(st.integers(0, 2)), rng)
    return pad_unobservable(unreachable, draw(st.integers(0, 2)), rng)


@SEEDED
@given(systems(), st.integers(1, 5))
def test_markov_table_matches_kernel_coeff(sys, horizon):
    table = markov_table(sys, horizon)
    words = [v for v in words_up_to(horizon, sys.D) if len(v) >= 2]
    assert sorted(table.entries) == sorted(words)
    for v in words:
        assert np.allclose(table.entries[v], kernel_coeff(sys, v), rtol=1e-12, atol=1e-12)


@SEEDED
@given(systems(), st.integers(0, 2**32 - 1))
def test_convolution_output_matches_simulation(sys, seed):
    rng = np.random.default_rng(seed)
    table = markov_table(sys, 6)
    for length in range(1, 7):
        w = random_run(rng, sys.D, sys.m, length)
        direct = simulate(sys, np.zeros(sys.n), w).final_output
        assert np.allclose(convolution_output(table, w), direct, rtol=1e-9, atol=1e-9)


@SEEDED
@given(systems(), st.integers(0, 2), st.integers(0, 3))
def test_hankel_routes_agree_on_random_systems(sys, L, M):
    from_system = build_hankel(sys, L, M).data
    from_table = build_hankel(markov_table(sys, L + M + 2), L, M).data
    per_cell = np.block(
        [
            [markov_block(sys, vj + vi) for vj in words_up_to(M, sys.D)]
            for vi in words_up_to(L, sys.D)
        ]
    )
    assert from_system.shape == per_cell.shape
    assert np.allclose(from_system, per_cell, rtol=1e-12, atol=1e-12)
    assert np.allclose(from_table, per_cell, rtol=1e-12, atol=1e-12)
    table = markov_table(sys, L + M + 2)
    table_cells = np.block(
        [
            [markov_block(table, vj + vi) for vj in words_up_to(M, sys.D)]
            for vi in words_up_to(L, sys.D)
        ]
    )
    assert np.array_equal(from_table, table_cells)
    if L + M <= 3:
        from_oracle = build_hankel(system_oracle(sys), L, M).data
        assert np.allclose(from_oracle, per_cell, rtol=1e-10, atol=1e-10)


@SEEDED
@given(systems(), st.integers(0, 3))
def test_extended_observability_matches_recursion(sys, depth):
    O = np.vstack(sys.C)
    for _ in range(depth):
        O = np.vstack([O] + [O @ Aq for Aq in sys.A])
    assert np.allclose(extended_observability(sys, depth), O, rtol=1e-12, atol=1e-12)


@SEEDED
@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_linalg_shapes_and_products(seed, rows, cols, inner):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
    r = min(rows, cols, inner)
    assert numerical_rank(M) == r

    P = pseudoinverse(M)
    assert P.shape == (cols, rows)
    assert np.allclose(M @ P @ M, M) and np.allclose(P @ M @ P, P)

    O, R, rank = rank_factorize(M)
    assert rank == r and O.shape == (rows, r) and R.shape == (r, cols)
    assert np.allclose(O @ R, M)

    V = range_basis(M)
    assert V.shape == (rows, r)
    assert np.allclose(V.T @ V, np.eye(r)) and np.allclose(V @ V.T @ M, M)

    W = row_basis(M)
    assert W.shape == (r, cols)
    assert np.allclose(W @ W.T, np.eye(r)) and np.allclose(M @ W.T @ W, M)


@st.composite
def low_rank_matrices(draw):
    """Rank 0-40 products whose shorter side (64-560) admits a range sketch.

    The sizes come from the drawn seed, so that they spread evenly over the
    ranges rather than crowding at their lower ends.  The planted singular
    values decay by up to four decades and the whole matrix is scaled by
    1e-3 to 1e6, so every value stays far from the cutoff.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    short = int(rng.integers(64, 561))
    long = short + int(rng.integers(0, 301))
    rows, cols = (short, long) if rng.random() < 0.5 else (long, short)
    r = int(rng.integers(0, 41))
    decay = np.logspace(0, -rng.uniform(0, 4), r)
    scale = 10.0 ** rng.uniform(-3, 6)
    return scale * (rng.normal(size=(rows, r)) * decay) @ rng.normal(size=(r, cols))


@SEEDED
@given(low_rank_matrices())
def test_rank_factorize_matches_the_dense_rank_rule(M):
    O, R, r = rank_factorize(M)
    assert r == DEFAULT_TOL.rank(np.linalg.svd(M, compute_uv=False), M.shape)
    assert O.shape == (M.shape[0], r) and R.shape == (r, M.shape[1])
    assert np.linalg.norm(O @ R - M) <= 1e-9 * (1 + np.linalg.norm(M))
    O2, R2, r2 = rank_factorize(M)
    assert r2 == r and np.array_equal(O2, O) and np.array_equal(R2, R)


@SEEDED
@given(low_rank_matrices())
def test_bases_of_large_low_rank_matrices(M):
    scale = 1 + np.linalg.norm(M)
    V, W = range_basis(M), row_basis(M)
    r = V.shape[1]
    assert W.shape == (r, M.shape[1]) and r == numerical_rank(M)
    assert np.linalg.norm(V.T @ V - np.eye(r)) <= 1e-10
    assert np.linalg.norm(W @ W.T - np.eye(r)) <= 1e-10
    assert np.linalg.norm(V @ (V.T @ M) - M) <= 1e-9 * scale
    assert np.linalg.norm((M @ W.T) @ W - M) <= 1e-9 * scale
    assert np.array_equal(range_basis(M), V) and np.array_equal(row_basis(M), W)


@SEEDED
@given(low_rank_matrices())
def test_sketch_certifies_when_a_width_above_the_rank_fits(M):
    T = M.T if M.shape[0] < M.shape[1] else M
    width = 8
    while width <= numerical_rank(M):
        width *= 2
    certified = linalg._sketched_svd(T, M.shape, DEFAULT_TOL) is not None
    assert certified == (8 * width <= T.shape[1])


@SEEDED
@given(padded_systems())
def test_analyze_ranks_match_extended_matrices(sys):
    report = analyze(sys)
    assert report.reach_rank == numerical_rank(extended_reachability(sys, sys.n - 1))
    assert report.obs_rank == numerical_rank(extended_observability(sys, sys.n - 1))


@SEEDED
@given(padded_systems())
def test_reductions_span_the_extended_matrices(sys):
    _, V = reach_reduce(sys)
    _, W = obs_reduce(sys)
    R = range_basis(extended_reachability(sys, sys.n - 1))
    O = range_basis(extended_observability(sys, sys.n - 1).T)
    assert np.allclose(V @ V.T, R @ R.T, rtol=0, atol=1e-8)
    assert np.allclose(W.T @ W, O @ O.T, rtol=0, atol=1e-8)


def test_decisions_never_build_extended_matrices(monkeypatch, sigma2):
    def refuse(sys, depth):
        raise AssertionError("a rank decision built an extended matrix")

    monkeypatch.setattr(realize, "extended_reachability", refuse)
    monkeypatch.setattr(realize, "extended_observability", refuse)
    rng = np.random.default_rng(5)
    padded = pad_unobservable(pad_unreachable(sigma2, 2, rng), 1, rng)
    report = analyze(padded)
    assert (report.n, report.reach_rank, report.obs_rank) == (5, 3, 4)
    small = minimize(padded)
    assert small.n == 2
    T = find_isomorphism(small, sigma2)
    assert isomorphism_residual(small, sigma2, T) < 1e-10
