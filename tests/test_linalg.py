import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from alpvreal import (
    DEFAULT_TOL,
    InvalidMatrix,
    NonFiniteEntry,
    ToleranceConfig,
    numerical_rank,
    pseudoinverse,
    range_basis,
    rank_factorize,
    row_basis,
)
from alpvreal import linalg


def test_rank_identity():
    assert numerical_rank(np.eye(3)) == 3


def test_rank_proportional_rows():
    assert numerical_rank([[1.0, 2.0], [2.0, 4.0]]) == 1


def test_rank_tiny_singular_value_below_cutoff():
    # sigma_2 = 1e-14 < 1e-10 * 2 * sigma_1
    assert numerical_rank([[1.0, 0.0], [0.0, 1e-14]]) == 1
    # a looser abs_floor or tighter rel_eps flips the decision
    assert numerical_rank([[1.0, 0.0], [0.0, 1e-14]], ToleranceConfig(rel_eps=1e-16)) == 2


def test_rank_nonfinite_rejected():
    with pytest.raises(InvalidMatrix):
        numerical_rank([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidMatrix):
        pseudoinverse([[np.inf]])
    with pytest.raises(InvalidMatrix):
        rank_factorize(np.ones(3))  # not 2-d



@pytest.mark.parametrize("route", [numerical_rank, pseudoinverse, rank_factorize, range_basis])
def test_finite_matrix_whose_largest_singular_value_overflows_raises(route):
    # Every entry is finite, but sigma_1 = 2e308 is not: no cutoff can be taken from it.
    with pytest.raises(NonFiniteEntry, match="largest singular value of a 2 x 2 matrix"):
        route(np.full((2, 2), 1e308))
    with pytest.raises(NonFiniteEntry):
        DEFAULT_TOL.rank(np.array([np.inf, 1.0]), (2, 2))

def test_finiteness_check_needs_no_entry_sized_temporary():
    for bad in (np.nan, np.inf, -np.inf):
        M = np.ones((3, 4))
        M[2, 1] = bad
        with pytest.raises(NonFiniteEntry):
            linalg.as_matrix(M)
    assert linalg.as_matrix(np.zeros((0, 5))).shape == (0, 5)
    M = np.ones((2000, 2000))
    tracemalloc.start()
    try:
        linalg.as_matrix(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # a boolean mask of M alone would take 4 MB


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


@pytest.mark.parametrize("rel_eps, shape", [(0.5, (1, 2)), (0.1, (10, 3)), (0.25, (4, 4))])
def test_tolerance_that_discards_every_singular_value_is_rejected(rel_eps, shape):
    M = np.ones(shape)
    tol = ToleranceConfig(rel_eps=rel_eps)
    for decide in (numerical_rank, pseudoinverse, range_basis, rank_factorize):
        with pytest.raises(ValueError, match=rf"rel_eps {rel_eps} .* {shape[0]} x {shape[1]} "):
            decide(M, tol)
    # just inside the bound the largest singular value still counts
    assert numerical_rank(M, ToleranceConfig(rel_eps=0.99 / max(shape))) == 1


@pytest.mark.parametrize("M", [
    np.random.default_rng(23).normal(size=(200, 600)),
    np.linalg.qr(np.random.default_rng(24).normal(size=(600, 200)), mode="r"),  # a triangular root
], ids=["wide", "root"])
def test_full_rank_matrices_take_one_dense_svd(M):
    O, R, r = rank_factorize(M)
    wide = M.shape[0] < M.shape[1]
    U, s, Vt = np.linalg.svd(M.T if wide else M, full_matrices=False)  # the tall orientation
    if wide:
        U, Vt = Vt.T, U.T
    root = np.sqrt(s)
    assert r == 200
    assert np.array_equal(O, U * root) and np.array_equal(R, root[:, None] * Vt)
    assert np.array_equal(range_basis(M), U) and np.array_equal(row_basis(M), Vt)
    assert np.array_equal(pseudoinverse(M), (Vt.T / s) @ U.T)


def test_large_zero_matrix_has_rank_zero():
    M = np.zeros((100, 300))
    O, R, r = rank_factorize(M)
    assert r == 0 and O.shape == (100, 0) and R.shape == (0, 300)
    assert range_basis(M).shape == (100, 0) and row_basis(M).shape == (0, 300)
    assert np.array_equal(pseudoinverse(M), np.zeros((300, 100)))


def test_large_matrix_input_checks():
    rng = np.random.default_rng(29)
    M = rng.normal(size=(100, 3)) @ rng.normal(size=(3, 300))
    bad = M.copy()
    bad[7, 11] = np.nan
    loose = ToleranceConfig(rel_eps=0.004)  # 0.004 * 300 >= 1
    for decide in (pseudoinverse, range_basis, row_basis, rank_factorize):
        with pytest.raises(InvalidMatrix):
            decide(bad)
        with pytest.raises(ValueError, match=r"rel_eps 0.004 .* 100 x 300 "):
            decide(M, loose)


def test_only_linalg_applies_the_cutoff():
    """Every other module ranks through linalg's functions, so each cutoff is the ranked matrix's."""
    offenders = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("rank", "cutoff")):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_linalg_calls_the_svd():
    """Every singular value of the package comes from linalg's one helper, behind `as_matrix`."""
    offenders = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r"\bnp\.linalg\.svd\b", line):
                offenders.append(f"{path.name}:{lineno}")
    assert offenders == []
