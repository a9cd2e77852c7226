import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from alpvreal import (
    ALPVSystem,
    DimensionMismatch,
    HorizonExceeded,
    InputSequence,
    InvalidAlphabet,
    MarkovTable,
    NonFiniteEntry,
    SwitchedInput,
    convolution_output,
    kernel_coeff,
    markov_block,
    markov_table,
    simulate,
    switched_output,
)
from alpvreal import model

from helpers import contractive, input_from_pairs, random_run, random_system, reference_simulate


def test_validate_fixture_ok(sigma_star):
    rebuilt = ALPVSystem(A=sigma_star.A, B=sigma_star.B, C=sigma_star.C)
    assert rebuilt.dims == sigma_star.dims
    for name in "ABC":
        assert np.array_equal(getattr(rebuilt, name), getattr(sigma_star, name))


def test_validate_reports_reshaped_matrix(sigma_star):
    with pytest.raises(DimensionMismatch, match=r"B\[2\]"):
        ALPVSystem(
            A=sigma_star.A,
            B=[sigma_star.B[0], np.zeros((2, 1))],
            C=sigma_star.C,
        )


def test_validate_empty_alphabet():
    with pytest.raises(InvalidAlphabet, match="at least one scheduling coordinate"):
        ALPVSystem(A=[], B=[], C=[])


def test_validate_nonfinite():
    with pytest.raises(NonFiniteEntry, match=r"^A\[1\] contains NaN or Inf entries$"):
        ALPVSystem(A=[[[np.nan]]], B=[[[1.0]]], C=[[[1.0]]])


def test_a_family_of_scalars_builds_the_nested_stacks():
    flat = ALPVSystem(A=[0.5, -0.25], B=[1.0, 3.0], C=[1.0, 2.0])
    nested = ALPVSystem(A=[[[0.5]], [[-0.25]]], B=[[[1.0]], [[3.0]]], C=[[[1.0]], [[2.0]]])
    for name in "ABC":
        got, expected = getattr(flat, name), getattr(nested, name)
        assert got.shape == expected.shape == (2, 1, 1) and np.array_equal(got, expected)
        assert not got.flags.writeable


def test_caller_arrays_do_not_reach_a_built_system():
    A = np.array([[0.5]])
    sys = ALPVSystem(A=[A], B=[[[1.0]]], C=[[[1.0]]])
    A[0, 0] = 0.9
    assert A.flags.writeable
    assert kernel_coeff(sys, (1, 1, 1))[0, 0] == 0.5
    assert markov_table(sys, 3).level(3)[0, 0, 0] == 0.5
    # nor do they reach a built run: y(2) = S(111) u(0) = 0.5 on every route
    sched, u = np.ones((3, 1)), np.array([[1.0], [0.0], [0.0]])
    runs = [InputSequence(scheduling=sched, inputs=u), SwitchedInput(D=1, modes=[1, 1, 1], inputs=u)]
    sched[0, 0], u[0, 0] = np.nan, 2.0
    for w in runs:
        assert convolution_output(markov_table(sys, 3), w)[0] == 0.5
        assert simulate(sys, [0.0], w).final_output[0] == 0.5
    assert switched_output(sys, runs[1])[0] == 0.5


@pytest.mark.parametrize("name", "ABC")
def test_family_is_read_only(name):
    sys = ALPVSystem(A=[[[0.5]], [[0.25]]], B=[[[1.0]], [[3.0]]], C=[[[1.0]], [[2.0]]])
    with pytest.raises(ValueError, match="read-only"):
        getattr(sys, name)[1][0, 0] = 0.9
    with pytest.raises(ValueError, match="read-only"):
        getattr(sys, name)[...] = 0.0
    # S(222) = C_2 A_2 B_2 = 2 * 0.25 * 3 on every route
    w = input_from_pairs([((0, 1), (1,)), ((0, 1), (0,)), ((0, 1), (0,))])
    assert simulate(sys, [0.0], w).final_output[0] == 1.5
    assert kernel_coeff(sys, (2, 2, 2))[0, 0] == 1.5
    assert markov_block(sys, (2,))[1, 1] == 1.5
    assert markov_table(sys, 3).entries[(2, 2, 2)][0, 0] == 1.5
    # a run keeps read-only arrays too, so the switched run stays the run of its modes
    sw = SwitchedInput(D=2, modes=[2, 2, 2], inputs=w.inputs)
    for run in (w, sw):
        for array in (run.scheduling, run.inputs):
            with pytest.raises(ValueError, match="read-only"):
                array[1] = 0.5
    assert switched_output(sys, sw)[0] == 1.5


def test_simulate_hand_recursion(sigma_star):
    w = input_from_pairs([((1, 0), (2,)), ((0, 1), (0,))])
    res = simulate(sigma_star, [0.0], w)
    assert res.states.shape == (3, 1)
    assert res.outputs.shape == (2, 1)
    assert res.states[1, 0] == pytest.approx(2.0)
    assert res.outputs[1, 0] == pytest.approx(4.0)


def test_simulate_zero_state_no_feedthrough(sigma_star):
    w = input_from_pairs([((0.3, -0.7), (5.0,))])
    res = simulate(sigma_star, [0.0], w)
    assert res.outputs[0, 0] == 0.0


def test_simulate_initial_state_readout(sigma_star):
    w = input_from_pairs([((1, 0), (0,))])
    assert simulate(sigma_star, [1.0], w).outputs[0, 0] == pytest.approx(1.0)


def test_simulate_final_input_never_matters(sigma_star):
    rng = np.random.default_rng(0)
    w = random_run(rng, 2, 1, 4)
    altered = InputSequence(
        scheduling=w.scheduling,
        inputs=np.vstack([w.inputs[:-1], [[123.0]]]),
    )
    r1 = simulate(sigma_star, [0.4], w)
    r2 = simulate(sigma_star, [0.4], altered)
    assert np.array_equal(r1.outputs, r2.outputs)


def test_simulate_overflow_raises():
    sys = ALPVSystem(A=[[[1e200]]], B=[[[1.0]]], C=[[[1.0]]])
    w = InputSequence(scheduling=np.ones((5, 1)), inputs=np.array([[1.0]] + [[0.0]] * 4))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteEntry):
        simulate(sys, [0.0], w)


@pytest.mark.parametrize("gain, schedule", [(1e200, 1.0), (1.0, 1e300)])
def test_simulate_overflow_raises_only_nonfinite_entry(gain, schedule):
    sys = ALPVSystem(A=[[[gain]]], B=[[[1.0]]], C=[[[1.0]]])
    w = InputSequence(
        scheduling=np.full((5, 1), schedule), inputs=np.array([[1.0]] + [[0.0]] * 4)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteEntry):
            simulate(sys, [0.0], w)


def test_convolution_output_overflow_raises_without_a_warning():
    # S(11) = S(111) = 1e300 are finite, but the output sums terms near 1e320
    table = MarkovTable(D=1, m=1, p=1, horizon=3, coeffs=[[[1e300]], [[1e300]]])
    w = InputSequence(scheduling=[[1e10]] * 3, inputs=[[1.0]] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteEntry, match="convolution output is not finite"):
            convolution_output(table, w)


def test_a_batch_raises_when_one_run_overflows():
    # Run 1 reaches x(3) = 1e400 from x(0) = 1e100; the others stay finite.
    sys = ALPVSystem(A=[[[1e100]]], B=[[[1.0]]], C=[[[1.0]]])
    sched, inputs = np.ones((4, 3, 1)), np.zeros((4, 3, 1))
    states = np.zeros((5, 3, 1))
    states[0, :, 0] = [0.0, 1e100, 1e-300]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteEntry):
            model._trajectory(sys, states, sched, inputs)
        states[0, 1, 0] = 1.0  # now only x(4), the step after T, would overflow
        assert model._trajectory(sys, states, sched, inputs)[-1, 1, 0] == 1e300


def test_simulate_memory_stays_far_below_a_stack_of_step_matrices():
    rng = np.random.default_rng(64)
    n, steps = 64, 5000
    sys = contractive(random_system(rng, n=n, D=2, m=1, p=1))
    w = random_run(rng, 2, 1, steps)
    tracemalloc.start()
    try:
        simulate(sys, np.zeros(n), w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # All the steps' matrices A(p(t)) at once would take 8 * steps * n^2 bytes, 164 MB.
    assert peak < 16 * 2**20


def test_simulate_in_segments_final_input_never_matters(sigma_star):
    # A 1000-step run takes segments; the final input enters no transfer.
    rng = np.random.default_rng(0)
    w = random_run(rng, 2, 1, 1000)
    altered = InputSequence(
        scheduling=w.scheduling,
        inputs=np.vstack([w.inputs[:-1], [[123.0]]]),
    )
    outputs = simulate(sigma_star, [0.4], w).outputs
    assert np.array_equal(simulate(sigma_star, [0.4], altered).outputs, outputs)


def test_simulate_in_segments_memory_stays_far_below_a_stack_of_step_matrices():
    rng = np.random.default_rng(16)
    n, steps = 16, 20000
    sys = contractive(random_system(rng, n=n, D=2, m=1, p=1))
    w = random_run(rng, 2, 1, steps)
    tracemalloc.start()
    try:
        simulate(sys, np.zeros(n), w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # All the steps' matrices A(p(t)) at once would take 8 * steps * n^2 bytes, 41 MB.
    assert peak < 10 * 2**20


@pytest.mark.parametrize("n, steps", [(4, 63), (21, 300)])
def test_short_runs_and_wide_states_take_one_segment(n, steps):
    rng = np.random.default_rng(n)
    sys = contractive(random_system(rng, n=n, D=2, m=1, p=1))
    x0, w = rng.uniform(-1, 1, n), random_run(rng, 2, 1, steps)
    with mock.patch.object(model, "_segment_length", lambda L, n: L):
        one = simulate(sys, x0, w)
    res = simulate(sys, x0, w)
    assert np.array_equal(res.states, one.states) and np.array_equal(res.outputs, one.outputs)


def test_simulate_overflowing_transfers_of_a_zero_trajectory():
    # The 1000-step transfer of A = 1e10 is infinite, but from the zero state
    # with zero input every state is 0, as the step-by-step recursion gives.
    sys = ALPVSystem(A=[[[1e10]]], B=[[[1.0]]], C=[[[1.0]]])
    w = InputSequence(scheduling=np.ones((1000, 1)), inputs=np.zeros((1000, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = simulate(sys, [0.0], w)
    assert not res.states.any() and not res.outputs.any()


@pytest.mark.parametrize("gain", [0.5, 2.0, 4.0, 1e10, 1e200])
@pytest.mark.parametrize("x0, u0", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
def test_simulate_raises_exactly_when_the_recursion_is_not_finite(gain, x0, u0):
    # A(p) = gain * p with p in [0.5, 1]: over 1500 steps gain 2 stays finite
    # (near 1e250), gain 4 overflows, and from zero everything stays 0.
    sys = ALPVSystem(A=[[[gain]]], B=[[[1.0]]], C=[[[1.0]]])
    w = InputSequence(
        scheduling=np.random.default_rng(3).uniform(0.5, 1.0, (1500, 1)),
        inputs=np.array([[u0]] + [[0.0]] * 1499),
    )
    with np.errstate(all="ignore"):
        ref = reference_simulate(sys, [x0], w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.isfinite(ref.states).all():
            res = simulate(sys, [x0], w)
            assert np.all(np.abs(res.states - ref.states) <= 1e-12 * (1 + np.abs(ref.states)))
        else:
            with pytest.raises(NonFiniteEntry):
                simulate(sys, [x0], w)


def test_simulate_runs_an_empty_state_space_in_segments():
    sys = ALPVSystem(
        A=[np.zeros((0, 0))] * 2, B=[np.zeros((0, 1))] * 2, C=[np.zeros((1, 0))] * 2
    )
    w = random_run(np.random.default_rng(0), 2, 1, 1000)
    res = simulate(sys, [], w)
    assert res.states.shape == (1001, 0)
    assert np.array_equal(res.outputs, np.zeros((1000, 1)))


def test_simulate_nonfinite_initial_state_raises(sigma_star):
    w = InputSequence(scheduling=[[1.0, 0.0], [0.0, 1.0]], inputs=[[0.0], [0.0]])
    for x0 in ([np.nan], [np.inf]):
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteEntry):
            simulate(sigma_star, x0, w)


def test_simulate_dimension_mismatch(sigma_star):
    w = input_from_pairs([((1, 0, 0), (0,))])
    with pytest.raises(DimensionMismatch):
        simulate(sigma_star, [0.0], w)
    w = input_from_pairs([((1, 0), (0,))])
    with pytest.raises(DimensionMismatch):
        simulate(sigma_star, [0.0, 0.0], w)


def test_simulate_deterministic(sigma_star):
    rng = np.random.default_rng(5)
    w = random_run(rng, 2, 1, 6)
    a = simulate(sigma_star, [0.0], w)
    b = simulate(sigma_star, [0.0], w)
    assert np.array_equal(a.outputs, b.outputs)
    assert np.array_equal(a.states, b.states)


def test_convolution_fixture_value(sigma_star):
    table = markov_table(sigma_star, 2)
    w = input_from_pairs([((1, 0), (2,)), ((0, 1), (7.0,))])
    # only the k=0 term survives: S(12) * p1(0) p2(1) * u(0) = 2*1*1*2
    assert convolution_output(table, w)[0] == pytest.approx(4.0)


def test_convolution_zero_inputs_and_short_runs(sigma_star):
    table = markov_table(sigma_star, 4)
    rng = np.random.default_rng(1)
    w = InputSequence(scheduling=rng.uniform(-1, 1, (4, 2)), inputs=np.zeros((4, 1)))
    assert np.allclose(convolution_output(table, w), 0.0)
    w1 = random_run(rng, 2, 1, 1)
    assert np.allclose(convolution_output(table, w1), 0.0)


def test_convolution_horizon_guard(sigma_star):
    table = markov_table(sigma_star, 2)
    rng = np.random.default_rng(2)
    with pytest.raises(HorizonExceeded):
        convolution_output(table, random_run(rng, 2, 1, 3))


def test_convolution_matches_simulation(sigma_star, sigma2):
    rng = np.random.default_rng(3)
    for sys in (sigma_star, sigma2):
        table = markov_table(sys, 6)
        for _ in range(20):
            w = random_run(rng, sys.D, sys.m, int(rng.integers(1, 7)))
            direct = simulate(sys, np.zeros(sys.n), w).final_output
            assert np.allclose(direct, convolution_output(table, w), atol=1e-9)


def test_output_affine_in_each_scheduling_vector():
    # the zero-state output is affine in each p(i) with the others fixed
    # (terms driven by inputs after position i do not involve p(i)), so
    # affine combinations pass through; at the final position the constant
    # part vanishes and the map is homogeneous linear
    rng = np.random.default_rng(4)
    sys = random_system(rng, n=3, D=2, m=2, p=2)
    x0 = np.zeros(3)
    base = random_run(rng, 2, 2, 5)

    def with_sched(pos, vec):
        sched = base.scheduling.copy()
        sched[pos] = vec
        return simulate(sys, x0, InputSequence(sched, base.inputs)).final_output

    for pos in range(5):
        pa = rng.uniform(-1, 1, 2)
        pb = rng.uniform(-1, 1, 2)
        alpha, beta = 1.7, -0.7  # affine: alpha + beta = 1
        mixed = with_sched(pos, alpha * pa + beta * pb)
        assert np.allclose(
            mixed, alpha * with_sched(pos, pa) + beta * with_sched(pos, pb), atol=1e-10
        )
    pa = rng.uniform(-1, 1, 2)
    pb = rng.uniform(-1, 1, 2)
    alpha, beta = 0.7, -1.3  # unconstrained: linear at the last position
    mixed = with_sched(4, alpha * pa + beta * pb)
    assert np.allclose(
        mixed, alpha * with_sched(4, pa) + beta * with_sched(4, pb), atol=1e-10
    )


def test_output_linear_in_each_input():
    rng = np.random.default_rng(6)
    sys = random_system(rng, n=3, D=2, m=2, p=1)
    x0 = np.zeros(3)
    base = random_run(rng, 2, 2, 5)
    for pos in range(4):
        ua = rng.uniform(-1, 1, 2)
        ub = rng.uniform(-1, 1, 2)
        alpha, beta = 2.0, 0.25

        def with_input(vec):
            u = base.inputs.copy()
            u[pos] = vec
            return simulate(sys, x0, InputSequence(base.scheduling, u)).final_output

        zero = with_input(np.zeros(2))
        mixed = with_input(alpha * ua + beta * ub)
        lin = alpha * (with_input(ua) - zero) + beta * (with_input(ub) - zero) + zero
        assert np.allclose(mixed, lin, atol=1e-10)


def test_input_sequence_invariants():
    with pytest.raises(DimensionMismatch):
        InputSequence(scheduling=np.zeros((0, 2)), inputs=np.zeros((0, 1)))
    with pytest.raises(DimensionMismatch):
        InputSequence(scheduling=np.zeros((2, 2)), inputs=np.zeros((3, 1)))
    with pytest.raises(NonFiniteEntry):
        InputSequence(scheduling=[[np.inf]], inputs=[[0.0]])
