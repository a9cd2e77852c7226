import numpy as np
import pytest

from alpvreal import (
    DimensionMismatch,
    HorizonExceeded,
    IOOracle,
    WordTooShort,
    build_hankel,
    convolution_output,
    kernel_coeff,
    markov_block,
    markov_table,
    probe_kernel_coeff,
    probe_markov_block,
    system_oracle,
    words_up_to,
)

from helpers import random_run, transform_system


def test_kernel_coeff_fixture_values(sigma_star):
    assert np.allclose(kernel_coeff(sigma_star, (1, 2)), [[2.0]])
    assert np.allclose(kernel_coeff(sigma_star, (1, 1, 1)), [[0.5]])
    assert np.allclose(kernel_coeff(sigma_star, (1, 2, 1)), [[0.0]])


def test_kernel_coeff_word_too_short(sigma_star):
    with pytest.raises(WordTooShort):
        kernel_coeff(sigma_star, (1,))


def test_markov_block_fixture_values(sigma_star):
    assert np.allclose(markov_block(sigma_star, ()), [[1.0, 3.0], [2.0, 6.0]])
    assert np.allclose(markov_block(sigma_star, (1,)), [[0.5, 1.5], [1.0, 3.0]])
    assert np.allclose(markov_block(sigma_star, (2,)), np.zeros((2, 2)))


def test_markov_block_blocks_are_kernel_coeffs(sigma2):
    # block (i, j) of M(v) is S(j v i)
    v = (2, 1)
    M = markov_block(sigma2, v)
    p, m = sigma2.p, sigma2.m
    for i in range(1, 3):
        for j in range(1, 3):
            blk = M[(i - 1) * p : i * p, (j - 1) * m : j * m]
            assert np.allclose(blk, kernel_coeff(sigma2, (j,) + v + (i,)))


def test_markov_table_complete_and_consistent(sigma2):
    table = markov_table(sigma2, 5)
    assert len(table.entries) == sum(2 ** k for k in range(2, 6))
    for v, S in table.entries.items():
        assert np.allclose(S, kernel_coeff(sigma2, v))


def test_markov_block_from_table_matches_system(sigma_star, sigma2):
    for sys in (sigma_star, sigma2):
        table = markov_table(sys, 6)
        for v in words_up_to(4, sys.D):
            assert np.allclose(markov_block(table, v), markov_block(sys, v), atol=1e-12)


def test_markov_block_table_horizon_guard(sigma_star):
    table = markov_table(sigma_star, 3)
    with pytest.raises(HorizonExceeded):
        markov_block(table, (1, 1))


def test_probing_matches_products_on_fixture(sigma_star):
    oracle = system_oracle(sigma_star)
    assert np.allclose(probe_markov_block(oracle, ()), [[1.0, 3.0], [2.0, 6.0]], atol=1e-10)
    assert np.allclose(probe_kernel_coeff(oracle, (1, 1, 1)), [[0.5]], atol=1e-10)
    assert np.allclose(
        probe_markov_block(oracle, (1, 1)), [[0.25, 0.75], [0.5, 1.5]], atol=1e-10
    )


def test_probing_zero_oracle():
    oracle = IOOracle(fn=lambda w: np.zeros(2), D=2, m=1, p=2)
    assert np.allclose(probe_kernel_coeff(oracle, (1, 2)), np.zeros((2, 1)))
    assert np.allclose(probe_markov_block(oracle, (1,)), np.zeros((4, 2)))


def test_probing_matches_products_random_population(random_population):
    for sys in random_population[:12]:
        oracle = system_oracle(sys)
        for v in words_up_to(3, sys.D):
            assert np.allclose(
                probe_markov_block(oracle, v), markov_block(sys, v), atol=1e-9
            )


def test_equal_markov_parameters_give_equal_io_maps(sigma2):
    # an isomorphic copy has identical kernel values; its convolution outputs
    # must then agree everywhere up to the table horizon
    rng = np.random.default_rng(8)
    T = rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2)
    other = transform_system(sigma2, T)
    n = sigma2.n
    for v in words_up_to(2 * n - 1, 2):
        assert np.allclose(markov_block(sigma2, v), markov_block(other, v), atol=1e-10)
    t1 = markov_table(sigma2, 2 * n)
    t2 = markov_table(other, 2 * n)
    for _ in range(30):
        w = random_run(rng, 2, 1, int(rng.integers(1, 2 * n + 1)))
        assert np.allclose(
            convolution_output(t1, w), convolution_output(t2, w), atol=1e-9
        )


@pytest.mark.parametrize("outputs", [[1.0], [1.0, 2.0, 3.0]])
def test_oracle_output_length_must_equal_p(outputs):
    oracle = IOOracle(fn=lambda w: np.array(outputs), D=2, m=1, p=2)
    with pytest.raises(DimensionMismatch, match="oracle returned .* expected p=2"):
        probe_kernel_coeff(oracle, (1, 2))
    with pytest.raises(DimensionMismatch):
        build_hankel(oracle, 0, 1)
