import numpy as np
import pytest

from alpvreal import (
    DEFAULT_TOL,
    ALPVSystem,
    DimensionMismatch,
    NotIsomorphic,
    ShapeMismatch,
    analyze,
    build_hankel,
    extended_observability,
    extended_reachability,
    factored_hankel_rank,
    find_isomorphism,
    hankel_rank,
    isomorphism_residual,
    kalman_ho,
    markov_block,
    minimize,
    numerical_rank,
    obs_reduce,
    observability_factor,
    reach_reduce,
    reachability_factor,
    simulate,
    words_up_to,
)
from alpvreal import linalg

from helpers import (
    pad_unobservable,
    pad_unreachable,
    random_minimal_system,
    random_run,
    transform_system,
)


def markov_match(sys1, sys2, max_len, atol):
    assert sys1.D == sys2.D
    for v in words_up_to(max_len, sys1.D):
        if not np.allclose(markov_block(sys1, v), markov_block(sys2, v), atol=atol):
            return False
    return True


def io_match(sys1, sys2, rng, samples, max_len, atol):
    for _ in range(samples):
        w = random_run(rng, sys1.D, sys1.m, int(rng.integers(1, max_len + 1)))
        y1 = simulate(sys1, np.zeros(sys1.n), w).final_output
        y2 = simulate(sys2, np.zeros(sys2.n), w).final_output
        if not np.allclose(y1, y2, atol=atol):
            return False
    return True


def test_extended_matrices_fixture_values(sigma_star, sigma2):
    assert np.allclose(extended_reachability(sigma_star, 0), [[1.0, 3.0]])
    assert np.allclose(extended_observability(sigma_star, 0), [[1.0], [2.0]])
    assert np.allclose(extended_observability(sigma2, 0), np.eye(2))
    R1 = extended_reachability(sigma2, 1)
    assert R1.shape == (2, 2 * 3)  # mD * (D+1)^1
    assert numerical_rank(R1) == 2


def test_extended_matrices_zero_families(sigma2):
    no_input = ALPVSystem(A=sigma2.A, B=[np.zeros((2, 1))] * 2, C=sigma2.C)
    assert np.allclose(extended_reachability(no_input, 3), 0.0)
    no_output = ALPVSystem(A=sigma2.A, B=sigma2.B, C=[np.zeros((1, 2))] * 2)
    assert np.allclose(extended_observability(no_output, 3), 0.0)


def test_extended_matrix_growth(sigma2):
    for depth in range(3):
        assert extended_reachability(sigma2, depth).shape == (2, 2 * 3 ** depth)
        assert extended_observability(sigma2, depth).shape == (2 * 3 ** depth, 2)


def test_analyze_fixture(sigma_star):
    report = analyze(sigma_star)
    assert (report.reach_rank, report.obs_rank) == (1, 1)
    assert report.minimal and report.reachable and report.observable


def test_analyze_planted_defects(sigma_star):
    rng = np.random.default_rng(21)
    padded = pad_unobservable(sigma_star, 1, rng)
    report = analyze(padded)
    assert report.obs_rank == 1 and report.n == 2
    assert not report.observable and not report.minimal

    padded = pad_unreachable(sigma_star, 1, rng)
    report = analyze(padded)
    assert report.reach_rank == 1 and report.n == 2
    assert not report.reachable and not report.minimal


def test_analyze_zero_dimensional():
    sys = ALPVSystem(A=[np.zeros((0, 0))], B=[np.zeros((0, 1))], C=[np.zeros((1, 0))])
    report = analyze(sys)
    assert report.minimal and report.n == 0


def test_kalman_ho_rejects_wrong_column_bound(sigma_star):
    with pytest.raises(ShapeMismatch):
        kalman_ho(build_hankel(sigma_star, 1, 1))


def test_kalman_ho_zero_hankel():
    sys = ALPVSystem(
        A=[np.eye(2), np.eye(2)],
        B=[np.zeros((2, 1))] * 2,
        C=[np.zeros((1, 2))] * 2,
    )
    recovered = kalman_ho(build_hankel(sys, 1, 2))
    assert recovered.n == 0
    assert recovered.dims == (2, 0, 1, 1)
    assert analyze(recovered).minimal


def test_kalman_ho_roundtrip_fixtures(sigma_star, sigma2):
    rec = kalman_ho(build_hankel(sigma_star, 0, 1))
    assert rec.n == 1
    assert markov_match(sigma_star, rec, 2, 1e-9)

    rec2 = kalman_ho(build_hankel(sigma2, 1, 2))
    assert rec2.n == 2
    assert markov_match(sigma2, rec2, 4, 1e-9)


def test_kalman_ho_output_is_minimal(minimal_population):
    for sys in minimal_population[:10]:
        rec = kalman_ho(build_hankel(sys, sys.n - 1, sys.n))
        assert rec.n == sys.n
        report = analyze(rec)
        assert report.reachable and report.observable


def test_reach_reduce_planted(sigma_star):
    rng = np.random.default_rng(31)
    padded = pad_unreachable(sigma_star, 1, rng)
    reduced, V = reach_reduce(padded)
    assert reduced.n == 1
    assert V.shape == (2, 1)
    assert np.allclose(V.T @ V, np.eye(1))
    assert markov_match(padded, reduced, 2 * padded.n, 1e-9)


def test_obs_reduce_planted(sigma_star):
    rng = np.random.default_rng(32)
    padded = pad_unobservable(sigma_star, 1, rng)
    reduced, W = obs_reduce(padded)
    assert reduced.n == 1
    assert W.shape == (1, 2)
    assert markov_match(padded, reduced, 2 * padded.n, 1e-9)


def test_reduce_idempotent_on_clean_systems(minimal_population):
    for sys in minimal_population[:5]:
        assert reach_reduce(sys)[0].n == sys.n
        assert obs_reduce(sys)[0].n == sys.n


def test_reduce_zero_families():
    dead = ALPVSystem(A=[np.eye(3)], B=[np.zeros((3, 1))], C=[np.ones((1, 3))])
    assert reach_reduce(dead)[0].n == 0
    deaf = ALPVSystem(A=[np.eye(3)], B=[np.ones((3, 1))], C=[np.zeros((1, 3))])
    assert obs_reduce(deaf)[0].n == 0


def test_reduction_soundness_random(minimal_population):
    rng = np.random.default_rng(33)
    for sys in minimal_population[:4]:
        padded = pad_unobservable(pad_unreachable(sys, 1, rng), 1, rng)
        n = padded.n
        reduced, _ = reach_reduce(padded)
        r = reduced.n
        assert numerical_rank(extended_reachability(reduced, max(r - 1, 0))) == r
        assert io_match(padded, reduced, rng, 50, 2 * n + 1, 1e-8)
        reduced2, _ = obs_reduce(reduced)
        r2 = reduced2.n
        assert numerical_rank(extended_observability(reduced2, max(r2 - 1, 0))) == r2
        assert io_match(padded, reduced2, rng, 50, 2 * n + 1, 1e-8)


def test_minimize_fixture_paddings(sigma_star, sigma2):
    rng = np.random.default_rng(34)
    padded = pad_unobservable(pad_unreachable(sigma_star, 1, rng), 1, rng)
    small = minimize(padded)
    assert small.n == 1
    assert small.n == hankel_rank(padded, padded.n - 1, padded.n - 1)
    assert analyze(small).minimal
    assert io_match(padded, small, rng, 200, 2 * padded.n + 1, 1e-8)

    padded2 = pad_unreachable(sigma2, 1, rng)
    small2 = minimize(padded2)
    assert small2.n == 2
    assert small2.n == hankel_rank(padded2, padded2.n - 1, padded2.n - 1)


def test_minimize_preserves_minimal_systems(sigma_star):
    out = minimize(sigma_star)
    assert out.n == 1
    T = find_isomorphism(sigma_star, out)
    assert isomorphism_residual(sigma_star, out, T) < 1e-10


def test_minimize_zero_system():
    dead = ALPVSystem(
        A=[np.eye(3), 0.5 * np.eye(3)],
        B=[np.zeros((3, 1))] * 2,
        C=[np.zeros((1, 3))] * 2,
    )
    assert minimize(dead).n == 0


def test_minimize_dimension_matches_hankel_rank(minimal_population):
    rng = np.random.default_rng(35)
    for sys in minimal_population[:6]:
        padded = pad_unreachable(sys, 1, rng)
        assert minimize(padded).n == factored_hankel_rank(
            padded, padded.n - 1, padded.n - 1
        )


def test_reduction_order_does_not_change_dimension(minimal_population):
    rng = np.random.default_rng(36)
    for sys in minimal_population[:5]:
        padded = pad_unobservable(pad_unreachable(sys, 1, rng), 1, rng)
        forward = minimize(padded)
        swapped = reach_reduce(obs_reduce(padded)[0])[0]
        assert forward.n == swapped.n


def test_find_isomorphism_scaled_fixture(sigma_star):
    scaled = ALPVSystem(
        A=sigma_star.A,
        B=[2.0 * Bq for Bq in sigma_star.B],
        C=[0.5 * Cq for Cq in sigma_star.C],
    )
    T = find_isomorphism(sigma_star, scaled)
    assert np.allclose(T, [[2.0]], atol=1e-12)


def test_find_isomorphism_identity(sigma_star):
    assert np.allclose(find_isomorphism(sigma_star, sigma_star), np.eye(1))


def test_find_isomorphism_dimension_mismatch(sigma_star, sigma2):
    with pytest.raises(DimensionMismatch):
        find_isomorphism(sigma_star, sigma2)


def test_find_isomorphism_rejects_nonequivalent(sigma_star):
    other = ALPVSystem(A=sigma_star.A, B=[[[1.0]], [[4.0]]], C=sigma_star.C)
    with pytest.raises(NotIsomorphic):
        find_isomorphism(sigma_star, other)


def test_find_isomorphism_random_transforms(minimal_population):
    rng = np.random.default_rng(37)
    for sys in minimal_population[:8]:
        n = sys.n
        T_true = rng.uniform(-1, 1, (n, n)) + 2.0 * np.eye(n)
        other = transform_system(sys, T_true)
        T = find_isomorphism(sys, other)
        assert np.allclose(T, T_true, atol=1e-7 * (1 + np.abs(T_true).max()))


def markov_deviation(sys1, sys2, depth):
    """Largest |M1(v) - M2(v)| and largest |M1(v)| over all words with |v| <= 2 depth.

    Both are read off H_{depth,depth} = O R of the difference system, a
    block of rows at a time.
    """
    O = np.hstack([observability_factor(sys1, depth), -observability_factor(sys2, depth)])
    R = np.vstack([reachability_factor(sys1, depth), reachability_factor(sys2, depth)])
    n1, dev, top = sys1.n, 0.0, 0.0
    for i in range(0, len(O), 512):
        dev = max(dev, float(np.abs(O[i : i + 512] @ R).max()))
        top = max(top, float(np.abs(O[i : i + 512, :n1] @ R[:n1]).max()))
    return dev, top


@pytest.mark.parametrize("n, m, seed", [(5, 1, 51), (6, 1, 61), (4, 2, 42)])
def test_kalman_ho_on_sketched_windows(n, m, seed):
    sys = random_minimal_system(np.random.default_rng(seed), n=n, D=3, m=m, p=m)
    H = build_hankel(sys, n - 1, n)
    assert linalg._sketched_svd(H.data.T, H.shape, DEFAULT_TOL) is not None
    realized = kalman_ho(H)
    assert realized.n == n
    dev, top = markov_deviation(sys, realized, n)
    assert dev <= 1e-8 * max(1.0, top)
    T = find_isomorphism(sys, realized)
    assert isomorphism_residual(sys, realized, T) < 1e-7
