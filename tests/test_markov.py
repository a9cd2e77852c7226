import warnings

import numpy as np
import pytest

from alpvreal import (
    ALPVSystem,
    DimensionMismatch,
    HorizonExceeded,
    InvalidAlphabet,
    InputSequence,
    IOOracle,
    MarkovTable,
    NonFiniteEntry,
    WordTooShort,
    build_hankel,
    convolution_output,
    hankel_rank,
    kernel_coeff,
    markov_block,
    markov_table,
    probe_kernel_coeff,
    simulate,
    system_oracle,
    word_count,
    word_to_index,
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


def test_markov_table_levels_follow_the_word_enumeration(sigma2):
    table = markov_table(sigma2, 4)
    assert table.coeffs.shape == (len(words_up_to(4, 2)) - 3, 1, 1)
    for k in range(2, 5):
        words = [v for v in words_up_to(k, 2) if len(v) == k]
        assert np.array_equal(table.level(k), [kernel_coeff(sigma2, v) for v in words])
    for k in (1, 5):
        with pytest.raises(HorizonExceeded):
            table.level(k)


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
    assert np.allclose(markov_block(oracle, ()), [[1.0, 3.0], [2.0, 6.0]], atol=1e-10)
    assert np.allclose(probe_kernel_coeff(oracle, (1, 1, 1)), [[0.5]], atol=1e-10)
    assert np.allclose(
        markov_block(oracle, (1, 1)), [[0.25, 0.75], [0.5, 1.5]], atol=1e-10
    )


def test_probing_zero_oracle():
    oracle = IOOracle(fn=lambda w: np.zeros(2), D=2, m=1, p=2)
    assert np.allclose(probe_kernel_coeff(oracle, (1, 2)), np.zeros((2, 1)))
    assert np.allclose(markov_block(oracle, (1,)), np.zeros((4, 2)))


def test_probing_matches_products_random_population(random_population):
    for sys in random_population[:12]:
        oracle = system_oracle(sys)
        for v in words_up_to(3, sys.D):
            assert np.allclose(
                markov_block(oracle, v), markov_block(sys, v), atol=1e-9
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
        build_hankel(oracle, 0, 1).data


def test_table_rejects_coefficients_of_the_wrong_shape(sigma2):
    t = markov_table(sigma2, 3)
    with pytest.raises(DimensionMismatch, match=r"expected \(12, 1, 1\)"):
        MarkovTable(D=2, m=1, p=1, horizon=3, coeffs=t.coeffs[:-1])
    with pytest.raises(DimensionMismatch):
        MarkovTable(D=2, m=1, p=1, horizon=2, coeffs=t.coeffs)
    with pytest.raises(DimensionMismatch):
        MarkovTable(D=2, m=1, p=2, horizon=3, coeffs=t.coeffs)


def test_table_rejects_a_non_finite_coefficient(sigma2):
    coeffs = markov_table(sigma2, 3).coeffs.copy()
    coeffs[word_to_index((2, 1, 2), 2) - 1 - word_count(1, 2), 0, 0] = np.nan
    with pytest.raises(NonFiniteEntry, match=r"^S\(212\) is not finite$"):
        MarkovTable(D=2, m=1, p=1, horizon=3, coeffs=coeffs)


def test_table_coeffs_are_read_only(sigma2):
    coeffs = markov_table(sigma2, 3).coeffs.copy()
    t = MarkovTable(D=2, m=1, p=1, horizon=3, coeffs=coeffs)
    assert coeffs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        t.coeffs[0] = np.nan
    with pytest.raises(ValueError, match="read-only"):
        t.level(3)[0] = np.nan
    w = random_run(np.random.default_rng(3), 2, 1, 3)
    assert np.isfinite(convolution_output(t, w)).all()


def test_table_keeps_its_own_copy_of_the_coefficients():
    c = markov_table(ALPVSystem(A=[[[0.5]]], B=[[[1.0]]], C=[[[1.0]]]), 3).coeffs.copy()
    t = MarkovTable(D=1, m=1, p=1, horizon=3, coeffs=c)
    c[0] = np.nan
    w = random_run(np.random.default_rng(3), 1, 1, 3)
    assert np.isfinite(convolution_output(t, w)).all()


def test_overflowing_table_raises():
    expansive = ALPVSystem(A=[[[1e3]]], B=[[[1.0]]], C=[[[1.0]]])
    # S(1^k) = 1e3^(k-2) first exceeds the float range at k = 105
    with np.errstate(over="ignore"), pytest.raises(NonFiniteEntry, match=f"S\\({'1' * 105}\\)"):
        markov_table(expansive, 120)


def _no_output(w):
    raise AssertionError("an oracle of invalid sizes was called")


@pytest.mark.parametrize(
    "make, error, match",
    [
        (lambda: MarkovTable(D=0, m=1, p=1, horizon=2, coeffs=np.zeros((0, 1, 1))),
         InvalidAlphabet, "alphabet size"),
        (lambda: MarkovTable(D=2, m=0, p=1, horizon=2, coeffs=np.zeros((4, 1, 0))),
         DimensionMismatch, "got m=0"),
        (lambda: MarkovTable(D=2, m=1, p=0, horizon=2, coeffs=np.zeros((4, 0, 1))),
         DimensionMismatch, "p=0"),
        (lambda: MarkovTable(D=2, m=1, p=1, horizon=0, coeffs=np.zeros((0, 1, 1))),
         ValueError, "horizon must be >= 1, got 0"),
        (lambda: IOOracle(_no_output, D=0, m=1, p=1), InvalidAlphabet, "alphabet size"),
        (lambda: IOOracle(_no_output, D=2, m=0, p=1), DimensionMismatch, "got m=0"),
        (lambda: IOOracle(_no_output, D=2, m=1, p=0), DimensionMismatch, "p=0"),
    ],
    ids=["table-D", "table-m", "table-p", "table-horizon", "oracle-D", "oracle-m", "oracle-p"],
)
def test_sources_reject_sizes_a_system_rejects(make, error, match):
    """Tables and oracles take D, m, p >= 1 (and a table horizon >= 1) with a system's error types."""
    with pytest.raises(error, match=match):
        make()


def test_overflowing_system_coefficients_raise_without_a_warning():
    sys = ALPVSystem(A=[[[1e200]]], B=[[[1.0]]], C=[[[1.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteEntry, match=r"^S\(1111\) is not finite$"):
            markov_block(sys, (1, 1))
        with pytest.raises(NonFiniteEntry, match=r"^S\(1111\) is not finite$"):
            kernel_coeff(sys, (1, 1, 1, 1))


def test_every_route_names_the_same_first_overflowing_coefficient():
    # only B_2 is nonzero and only A_2 is large, so S(q0 q1 q2 q3) overflows iff q0 = q1 = q2 = 2
    sys = ALPVSystem(A=[[[1.0]], [[1e200]]], B=[[[0.0]], [[1.0]]], C=[[[1.0]], [[1.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (
            lambda: kernel_coeff(sys, (2, 2, 2, 1)),
            lambda: markov_block(sys, (2, 2)),
            lambda: markov_table(sys, 4),
        ):
            with pytest.raises(NonFiniteEntry, match=r"^S\(2221\) is not finite$"):
                route()
        assert np.array_equal(markov_block(sys, (1, 2)), [[0.0, 1e200], [0.0, 1e200]])


def test_probes_of_a_non_finite_map_raise():
    oracle = IOOracle(fn=lambda w: [np.nan], D=2, m=1, p=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteEntry, match=r"^S\(12\) is not finite$"):
            probe_kernel_coeff(oracle, (1, 2))
        with pytest.raises(NonFiniteEntry, match=r"^S\(111\) is not finite$"):
            markov_block(oracle, (1,))


@pytest.mark.parametrize(
    "call",
    [lambda s: markov_block(s, (1,)), lambda s: build_hankel(s, 1, 1), lambda s: hankel_rank(s, 1, 1)],
    ids=["markov_block", "build_hankel", "hankel_rank"],
)
def test_unsupported_source_is_one_type_error(call):
    with pytest.raises(TypeError, match="^unsupported Markov source: str$"):
        call("x")



def _recording_oracle(D, m):
    """A zero map with p = 1 that records each probe as (mode word, input column)."""
    calls = []

    def fn(w):
        modes = w.scheduling.argmax(axis=1)
        assert np.array_equal(w.scheduling, np.eye(D)[modes])  # unit scheduling rows
        (l,) = np.flatnonzero(w.inputs[0])
        assert w.inputs[0, l] == 1.0 and not w.inputs[1:].any()  # e_l at time 0 only
        calls.append(("".join(str(q + 1) for q in modes), int(l)))
        return [0.0]

    return IOOracle(fn=fn, D=D, m=m, p=1), calls


def test_oracle_windows_probe_in_word_then_column_order():
    # H_{0,1}, D = 2, m = 2: for row word vr = eps, each last letter i, each
    # column word vc in eps, 1, 2 and each first letter j, probe j vc vr i on
    # input column 0, then 1.  Every probe runs once per cell, repeats included.
    oracle, calls = _recording_oracle(D=2, m=2)
    H = build_hankel(oracle, 0, 1)
    assert not calls  # probed at the first read of its data
    H.data
    words = "11 21 111 211 121 221 12 22 112 212 122 222".split()
    assert calls == [(v, l) for v in words for l in (0, 1)]


def test_oracle_window_repeats_probes_of_equal_concatenations():
    oracle, calls = _recording_oracle(D=2, m=1)
    build_hankel(oracle, 1, 1).data
    assert len(calls) == (word_count(1, 2) * 2) ** 2 == 36
    # 9 cells of 4 probes; the middles vc vr = 1 and 2 each come from two cells
    assert len(set(calls)) == 7 * 4
    assert calls[:6] == [("11", 0), ("21", 0), ("111", 0), ("211", 0), ("121", 0), ("221", 0)]


def test_oracle_markov_block_probes_in_word_then_column_order():
    oracle, calls = _recording_oracle(D=2, m=2)
    markov_block(oracle, (2, 1))
    words = "1211 2211 1212 2212".split()
    assert calls == [(v, l) for v in words for l in (0, 1)]
    calls.clear()
    probe_kernel_coeff(oracle, (2, 1, 1))
    assert calls == [("211", 0), ("211", 1)]


def test_probe_runs_are_read_only():
    seen = []
    oracle = IOOracle(fn=lambda w: seen.append(w) or [0.0], D=2, m=1, p=1)
    build_hankel(oracle, 0, 1).data
    assert len(seen) == 12
    for w in seen:
        with pytest.raises(ValueError, match="read-only"):
            w.inputs[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            w.scheduling[0, 0] = 2.0


def test_system_oracle_raises_exactly_when_a_state_up_to_T_or_y_T_is_not_finite():
    # x(1) = 1, x(2) = 1e200, x(3) = inf on the run (e_1, 1), (e_1, 0), (e_1, 0).
    w = InputSequence(scheduling=np.ones((3, 1)), inputs=[[1.0], [0.0], [0.0]])
    grows = ALPVSystem(A=[[[1e200]]], B=[[[1.0]]], C=[[[1.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert system_oracle(grows)(w) == [1e200]  # only x(T+1) overflows
        with pytest.raises(NonFiniteEntry):
            simulate(grows, [0.0], w)
        with pytest.raises(NonFiniteEntry):  # y(2) = 1e400
            system_oracle(ALPVSystem(A=[[[1e200]]], B=[[[1.0]]], C=[[[1e200]]]))(w)
        longer = InputSequence(scheduling=np.ones((4, 1)), inputs=np.eye(4, 1))
        with pytest.raises(NonFiniteEntry):  # x(3) = inf, y(3) = inf
            system_oracle(grows)(longer)
