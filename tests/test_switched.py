import numpy as np
import pytest

from alpvreal import (
    ALPVSystem,
    DimensionMismatch,
    InputSequence,
    InvalidWord,
    SwitchedInput,
    analyze,
    markov_block,
    switched_output,
    words_up_to,
)
from helpers import unit_schedule


def test_embed_unit_vectors():
    seq = SwitchedInput(D=2, modes=(1, 2), inputs=[[4.0], [5.0]])
    assert isinstance(seq, InputSequence)
    assert np.allclose(seq.scheduling, [[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(seq.inputs, [[4.0], [5.0]])
    single = SwitchedInput(D=3, modes=(1,), inputs=[[0.0]])
    assert np.allclose(single.scheduling, [[1.0, 0.0, 0.0]])


@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_embed_rows_are_the_unit_schedule(D):
    rng = np.random.default_rng(D)
    for length in (1, 2, 7, 64, 2000):
        modes = tuple(int(q) for q in rng.integers(1, D + 1, length))
        sw = SwitchedInput(D=D, modes=modes, inputs=np.zeros((length, 1)))
        assert np.array_equal(sw.scheduling, unit_schedule(modes, D))


@pytest.mark.parametrize("modes, inputs", [((1,), [1.0, 2.0]), ((1, 2), np.zeros((2, 1, 1)))])
def test_switched_input_rejects_inputs_that_are_not_2d(modes, inputs):
    with pytest.raises(DimensionMismatch, match=r"^inputs must be 2-d \(steps x dim\); got ndim"):
        SwitchedInput(D=2, modes=modes, inputs=inputs)


def test_embed_rejects_bad_mode():
    with pytest.raises(InvalidWord):
        SwitchedInput(D=2, modes=(3,), inputs=[[0.0]])


@pytest.mark.parametrize("mode", [1.7, 5, float("inf"), -float("inf"), float("nan")])
def test_switched_input_rejects_bad_mode_at_construction(mode):
    with pytest.raises(InvalidWord, match=f"symbol {mode!r} outside alphabet 1..2"):
        SwitchedInput(D=2, modes=(mode, 2), inputs=[[0.0], [0.0]])


def test_switched_output_fixture_values(sigma_star):
    assert switched_output(
        sigma_star, SwitchedInput(D=2, modes=(1, 1), inputs=[[1.0], [0.0]])
    )[0] == pytest.approx(1.0)
    assert switched_output(
        sigma_star, SwitchedInput(D=2, modes=(1, 2), inputs=[[1.0], [0.0]])
    )[0] == pytest.approx(2.0)


def test_switched_output_zero_inputs(sigma2):
    sw = SwitchedInput(D=2, modes=(1, 2, 2, 1), inputs=np.zeros((4, 1)))
    assert np.allclose(switched_output(sigma2, sw), 0.0)


def test_switched_output_alphabet_mismatch(sigma_star):
    with pytest.raises(DimensionMismatch):
        switched_output(sigma_star, SwitchedInput(D=3, modes=(1,), inputs=[[0.0]]))


def probe_block_via_switched(sys, v):
    """Assemble M(v) from switched runs only: probes (j, v..., i) with a unit
    input at time 0."""
    D, m, p = sys.D, sys.m, sys.p
    blocks = []
    for i in range(1, D + 1):
        row = []
        for j in range(1, D + 1):
            modes = (j,) + tuple(v) + (i,)
            S = np.empty((p, m))
            for l in range(m):
                u = np.zeros((len(modes), m))
                u[0, l] = 1.0
                S[:, l] = switched_output(sys, SwitchedInput(D=D, modes=modes, inputs=u))
            row.append(S)
        blocks.append(row)
    return np.block(blocks)


def test_switched_probes_reproduce_markov_blocks(sigma_star, sigma2, random_population):
    for sys in (sigma_star, sigma2, *random_population[:6]):
        for v in words_up_to(2, sys.D):
            assert np.allclose(
                probe_block_via_switched(sys, v), markov_block(sys, v), atol=1e-10
            )


def test_property_transfer_same_matrix_family(random_population):
    # the switched view shares the matrix family verbatim, so rebuilding the
    # system from it must reproduce the analysis flags and the dimension
    for sys in random_population[:10]:
        switched_view = ALPVSystem(A=sys.A, B=sys.B, C=sys.C)
        assert switched_view.n == sys.n
        assert analyze(switched_view) == analyze(sys)
