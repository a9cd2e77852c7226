import numpy as np
import pytest

from alpvreal import (
    InvalidMatrix,
    ToleranceConfig,
    numerical_rank,
    pseudoinverse,
    range_basis,
    rank_factorize,
    row_basis,
)


def test_rank_identity():
    assert numerical_rank(np.eye(3)) == 3


def test_rank_proportional_rows():
    assert numerical_rank([[1.0, 2.0], [2.0, 4.0]]) == 1


def test_rank_tiny_singular_value_below_cutoff():
    # sigma_2 = 1e-14 < 1e-10 * 2 * sigma_1
    assert numerical_rank([[1.0, 0.0], [0.0, 1e-14]]) == 1
    # a looser abs_floor or tighter rel_eps flips the decision
    assert numerical_rank([[1.0, 0.0], [0.0, 1e-14]], ToleranceConfig(rel_eps=1e-16)) == 2


@pytest.mark.parametrize("abs_floor", [np.nan, np.inf])
def test_tolerance_abs_floor_must_be_finite(abs_floor):
    with pytest.raises(ValueError):
        ToleranceConfig(abs_floor=abs_floor)


def test_rank_nonfinite_rejected():
    with pytest.raises(InvalidMatrix):
        numerical_rank([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidMatrix):
        pseudoinverse([[np.inf]])
    with pytest.raises(InvalidMatrix):
        rank_factorize(np.ones(3))  # not 2-d


def test_rank_of_random_products():
    rng = np.random.default_rng(7)
    for _ in range(25):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        r = int(rng.integers(0, min(rows, cols) + 1))
        M = rng.normal(size=(rows, r)) @ rng.normal(size=(r, cols))
        assert numerical_rank(M) == r


def test_pseudoinverse_diagonal():
    assert np.allclose(pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    assert np.allclose(pseudoinverse([[3.0]]), [[1.0 / 3.0]])


def test_pseudoinverse_zero_matrix():
    P = pseudoinverse(np.zeros((2, 3)))
    assert P.shape == (3, 2)
    assert np.all(P == 0)


def test_pseudoinverse_moore_penrose_identities():
    rng = np.random.default_rng(11)
    for _ in range(20):
        M = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        P = pseudoinverse(M)
        scale = 1.0 + np.linalg.norm(M)
        assert np.linalg.norm(M @ P @ M - M) <= 1e-8 * scale
        assert np.linalg.norm(P @ M @ P - P) <= 1e-8 * (1.0 + np.linalg.norm(P))
        assert np.linalg.norm((M @ P).T - M @ P) <= 1e-8
        assert np.linalg.norm((P @ M).T - P @ M) <= 1e-8


def test_pseudoinverse_involution_on_full_rank():
    rng = np.random.default_rng(13)
    for _ in range(20):
        M = rng.normal(size=(4, 3))  # full column rank a.s.
        back = pseudoinverse(pseudoinverse(M))
        assert np.linalg.norm(back - M) <= 1e-7 * np.linalg.norm(M)


def test_rank_factorize_shapes_and_residual():
    rng = np.random.default_rng(17)
    for _ in range(25):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        r = int(rng.integers(0, min(rows, cols) + 1))
        scale = 10.0 ** rng.integers(-3, 7)
        M = scale * rng.normal(size=(rows, r)) @ rng.normal(size=(r, cols))
        O, R, got = rank_factorize(M)
        assert got == r
        assert O.shape == (rows, r) and R.shape == (r, cols)
        assert numerical_rank(O) == r and numerical_rank(R) == r
        assert np.linalg.norm(O @ R - M) <= 1e-9 * (1.0 + np.linalg.norm(M))


def test_rank_factorize_degenerate():
    O, R, r = rank_factorize(np.zeros((2, 2)))
    assert r == 0 and O.shape == (2, 0) and R.shape == (0, 2)
    O, R, r = rank_factorize(np.eye(2))
    assert r == 2 and np.allclose(O @ R, np.eye(2))


def test_bases_are_orthonormal():
    rng = np.random.default_rng(19)
    M = rng.normal(size=(5, 2)) @ rng.normal(size=(2, 6))
    V = range_basis(M)
    W = row_basis(M)
    assert V.shape == (5, 2) and W.shape == (2, 6)
    assert np.allclose(V.T @ V, np.eye(2))
    assert np.allclose(W @ W.T, np.eye(2))
    # spans match: projecting M onto them loses nothing
    assert np.allclose(V @ V.T @ M, M)
    assert np.allclose(M @ W.T @ W, M)
