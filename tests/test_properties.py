"""Seeded property tests over random systems and matrices of every small shape.

Systems range over D in {1, 2, 3}, n in {0, ..., 4} and m, p in {1, 2}; D = 1
exercises the single-symbol word order and n = 0 the empty state space.
`simulate`, which takes its scheduling contractions in blocks of steps and
cuts long blocks into segments, is checked against the per-step recursion of
`helpers.reference_simulate` on runs of length 1 and of a drawn length up to 40
(n up to 5), on runs of up to 3000 steps (n up to 8), which take many segments
after a ragged head, under every segment length of runs up to 300 steps (one,
two or many segments), and on runs that cross block boundaries with one
segment per block (n = 128) and with segments (n = 16); `switched_output` on
runs of up to 3000 steps; batches of 1 to 5 runs of one length from distinct
start states (n = 0 included) against each run's own `simulate`.
`system_oracle` and `switched_output` give
`simulate`'s final output bit for bit on unit-scheduling runs (n = 0 and runs
of 1 to 300 steps included) and to 1e-12 on free scheduling runs.  The rank
tests and reductions, which work on the n x n roots of the Hankel factors,
are checked against the extended matrices of the branching recursion on
random systems with planted unreachable and unobservable states, and the
roots' spectra against the dense factors and Hankel matrices; a seeded corpus of 500 such systems checks every
rank, reduced order and realized order against those references.  Low-rank
matrices whose shorter side is 64 to 560 are factored, and their bases
taken, under the dense rank rule.  Kalman-Ho from a system window's factors
is checked against the same window given as data, which is realized from a
column-word search, and both against the dense full-window reference
`helpers.dense_kalman_ho`.  A system window's data, assembled on
first read, is its factors' product bit for bit.  A family given as one 3-d
array and as a list of matrices builds the same stacks, and fails with the
same error and message when a matrix is misshapen, not finite, missing, or
has no inputs or outputs.  The residual of a random equation (D <= 3, m <= 2,
order <= 2, exponents <= 2) at the last time of 1 to 5 stacked runs is each
run's scalar reference residual bit for bit, and so is that of each run alone.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alpvreal import (
    DEFAULT_TOL,
    AffineIOEquation,
    ALPVSystem,
    DimensionMismatch,
    HankelBlockMatrix,
    InputSequence,
    InvalidAlphabet,
    MarkovTable,
    NonFiniteEntry,
    SchedulingPoly,
    SwitchedInput,
    analyze,
    build_hankel,
    convolution_output,
    extended_observability,
    extended_reachability,
    factored_hankel_rank,
    find_isomorphism,
    hankel_rank,
    hankel_singular_values,
    io_span_dimension,
    isomorphism_residual,
    kalman_ho,
    kernel_coeff,
    markov_block,
    markov_table,
    minimize,
    numerical_rank,
    observability_root,
    obs_reduce,
    pseudoinverse,
    range_basis,
    rank_factorize,
    reach_reduce,
    reachability_root,
    row_basis,
    simulate,
    switched_output,
    system_oracle,
    words_up_to,
)

from alpvreal import hankel, ioeq, linalg, markov, model, realize
from helpers import (
    contractive, dense_kalman_ho, observability_factor, pad_unobservable, pad_unreachable,
    random_minimal_system, random_run, random_system, reachability_factor, reference_residual,
    reference_simulate, unit_schedule,
)

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=30)


@st.composite
def systems(draw, max_n=4):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_system(
        rng,
        D=draw(st.integers(1, 3)),
        n=draw(st.integers(0, max_n)),
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
@given(systems(), st.sampled_from("ABC"), st.integers(0, 2), st.integers(1, 2))
def test_constructor_names_the_first_misshapen_matrix(sys, name, index, extra):
    """A well-shaped family builds; one grown matrix is named when the family is built.

    n, m and p are read from the rows of A[1], the columns of B[1] and the
    rows of C[1], so growing the other side of a matrix (the rows of a B_q,
    the columns of an A_q or C_q) makes that matrix the first one to misfit.
    """
    assert ALPVSystem(A=sys.A, B=sys.B, C=sys.C).dims == sys.dims
    q = index % sys.D
    family = {"A": list(sys.A), "B": list(sys.B), "C": list(sys.C)}
    M = family[name][q]
    grown = (M.shape[0] + extra, M.shape[1]) if name == "B" else (M.shape[0], M.shape[1] + extra)
    family[name][q] = np.ones(grown)
    with pytest.raises(DimensionMismatch, match=rf"^{name}\[{q + 1}\]: expected shape"):
        ALPVSystem(**family)


def _outcome(**family):
    """The stacks a family builds, or the type and message of the error it raises."""
    try:
        sys = ALPVSystem(**family)
    except (DimensionMismatch, InvalidAlphabet, NonFiniteEntry) as exc:
        return type(exc), str(exc)
    return sys.A, sys.B, sys.C


@SEEDED
@given(systems(), st.sampled_from("ABC"), st.integers(0, 2),
       st.sampled_from(["grow one", "grow all", "nan", "inf", "drop", "m=0", "p=0"]))
def test_stacked_and_listed_families_fail_alike(sys, name, index, fault):
    """A family as one 3-d array or as a list of matrices raises the same error, word for word.

    The 3-d array is tested in one pass and, when it fails, taken apart by
    the same per-matrix loop that checks a list, which names the culprit.
    A family whose matrices no longer share a shape exists only as a list.
    """
    family = {k: [np.array(M) for M in getattr(sys, k)] for k in "ABC"}
    q = index % sys.D
    M = family[name][q]
    if fault in ("grow one", "grow all"):
        # growing the side that n, m and p are not read from makes the matrix misfit
        rows, cols = (1, 0) if name == "B" else (0, 1)
        family[name] = [
            np.ones((M.shape[0] + rows, M.shape[1] + cols)) if fault == "grow all" or i == q else M
            for i, M in enumerate(family[name])
        ]
    elif fault in ("nan", "inf"):
        assume(M.size)
        M.flat[index % M.size] = np.nan if fault == "nan" else -np.inf
    elif fault == "drop":
        family[name] = family[name][:-1]
    else:
        k, axis = ("B", 1) if fault == "m=0" else ("C", 0)
        family[k] = [np.take(M, [], axis=axis) for M in family[k]]
    listed = _outcome(**family)
    assert isinstance(listed[0], type) and issubclass(listed[0], Exception)
    if all(len({M.shape for M in f}) <= 1 for f in family.values()):
        shapes = {k: f[0].shape if f else (0, 0) for k, f in family.items()}
        stacked = {k: np.array(f).reshape(len(f), *shapes[k]) for k, f in family.items()}
        assert _outcome(**stacked) == listed


@SEEDED
@given(systems(), st.integers(0, 2**32 - 1))
def test_stacked_and_listed_families_build_the_same_stacks(sys, seed):
    stacked = {k: np.array(getattr(sys, k)) for k in "ABC"}
    listed = {k: list(v) for k, v in stacked.items()}
    built = [_outcome(**stacked), _outcome(**listed), _outcome(**{"A": stacked["A"], **listed})]
    for stacks in built:
        for X, Y in zip(stacks, built[0]):
            assert np.array_equal(X, Y) and not X.flags.writeable
    rng = np.random.default_rng(seed)
    for X in stacked.values():  # a later write to the caller's array does not reach the system
        X[...] = rng.uniform(-1, 1, X.shape)
    assert all(np.array_equal(X, Y) for X, Y in zip(built[0], (sys.A, sys.B, sys.C)))


@SEEDED
@given(systems(), st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_a_built_system_ignores_edits_to_its_source_arrays(sys, seed, L):
    """Every route reads the one stored family after the caller overwrites its arrays.

    A is handed over as one (D, n, n) array and B, C as lists of matrices.
    After construction every source array is overwritten in place; simulate,
    markov_table, kernel_coeff, markov_block and build_hankel(system) must
    still agree with each other and with the untouched system.  No
    constructor may change whether a caller's array is writable.
    """
    rng = np.random.default_rng(seed)
    sources = {"A": np.array(sys.A), "B": [np.array(M) for M in sys.B]}
    sources["C"] = [np.array(M) for M in sys.C]
    built = ALPVSystem(**sources)
    for family in sources.values():
        for M in family:
            assert M.flags.writeable
            M[...] = rng.uniform(-1, 1, M.shape)
    horizon = 2 * L + 3
    table = markov_table(built, horizon)
    assert np.array_equal(table.coeffs, markov_table(sys, horizon).coeffs)
    for v in words_up_to(horizon - 2, sys.D):
        assert np.allclose(markov_block(built, v), markov_block(table, v), rtol=1e-12, atol=1e-12)
        if len(v) >= 2:
            assert np.allclose(kernel_coeff(built, v), table.entries[v], rtol=1e-12, atol=1e-12)
    H = build_hankel(built, L, L + 1).data
    assert np.allclose(H, build_hankel(table, L, L + 1).data, rtol=1e-12, atol=1e-12)
    w = random_run(rng, sys.D, sys.m, horizon)
    y = simulate(built, np.zeros(sys.n), w).final_output
    assert np.allclose(y, convolution_output(table, w), rtol=1e-9, atol=1e-9)
    coeffs, data = table.coeffs.copy(), H.copy()
    MarkovTable(D=sys.D, m=sys.m, p=sys.p, horizon=horizon, coeffs=coeffs)
    HankelBlockMatrix(L=L, M=L + 1, D=sys.D, m=sys.m, p=sys.p, data=data)
    assert coeffs.flags.writeable and data.flags.writeable


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


def assert_matches_reference_simulation(sys, x0, w):
    res, ref = simulate(sys, x0, w), reference_simulate(sys, x0, w)
    for got, expected in ((res.states, ref.states), (res.outputs, ref.outputs)):
        assert got.shape == expected.shape
        assert np.all(np.abs(got - expected) <= 1e-12 * (1 + np.abs(expected)))


def assert_batch_matches_simulate(sys, rng, runs, length):
    """R runs of one length from R start states, stacked through `model._trajectory`.

    Each run's states x(0..T) and outputs must match its own `simulate` to
    1e-12 relative; a batch oracle would build on this entry point.
    """
    X0 = rng.uniform(-1, 1, (runs, sys.n))
    ws = [random_run(rng, sys.D, sys.m, length) for _ in range(runs)]
    states = np.empty((length + 1, runs, sys.n))
    states[0] = X0
    outputs = model._trajectory(
        sys, states, np.stack([w.scheduling for w in ws], 1), np.stack([w.inputs for w in ws], 1)
    )
    assert outputs.shape == (length, runs, sys.p)
    for r, w in enumerate(ws):
        res = simulate(sys, X0[r], w)
        for got, expected in ((states[:-1, r], res.states[:-1]), (outputs[:, r], res.outputs)):
            assert np.all(np.abs(got - expected) <= 1e-12 * (1 + np.abs(expected)))


@SEEDED
@given(systems(max_n=5), st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 5))
def test_simulate_matches_the_per_step_recursion(sys, seed, steps, runs):
    sys = contractive(sys)
    rng = np.random.default_rng(seed)
    for length in (1, steps):
        w = random_run(rng, sys.D, sys.m, length)
        assert_matches_reference_simulation(sys, rng.uniform(-1, 1, sys.n), w)
        assert_batch_matches_simulate(sys, rng, runs, length)


def test_simulate_matches_the_per_step_recursion_across_step_blocks():
    # A state dimension with blocks of about 16 steps keeps the run short.
    n = math.isqrt(model._BLOCK_ENTRIES // 16)
    block = model._BLOCK_ENTRIES // n**2
    rng = np.random.default_rng(1618)
    sys = contractive(random_system(rng, n=n, D=2, m=2, p=2))
    x0 = rng.uniform(-1, 1, n)
    # The final step opens a fourth block of step matrices.
    w = random_run(rng, 2, 2, 3 * block + 1)
    assert_matches_reference_simulation(sys, x0, w)
    altered = InputSequence(
        scheduling=w.scheduling, inputs=np.vstack([w.inputs[:-1], [[1e6, -1e6]]])
    )
    outputs = simulate(sys, x0, w).outputs
    assert np.array_equal(simulate(sys, x0, altered).outputs, outputs)


@SEEDED
@given(systems(max_n=8), st.integers(0, 2**32 - 1), st.integers(64, 3000))
def test_simulate_in_segments_matches_the_per_step_recursion(sys, seed, steps):
    sys = contractive(sys)
    rng = np.random.default_rng(seed)
    w = random_run(rng, sys.D, sys.m, steps)
    assert_matches_reference_simulation(sys, rng.uniform(-1, 1, sys.n), w)


@SEEDED
@given(systems(max_n=8), st.integers(0, 2**32 - 1), st.integers(1, 300), st.data())
def test_simulate_matches_the_per_step_recursion_under_any_segment_length(sys, seed, steps, data):
    seg = data.draw(st.integers(1, steps))
    sys = contractive(sys)
    rng = np.random.default_rng(seed)
    w = random_run(rng, sys.D, sys.m, steps)
    with mock.patch.object(model, "_segment_length", lambda L, n: min(seg, L)):
        assert_matches_reference_simulation(sys, rng.uniform(-1, 1, sys.n), w)


def test_simulate_in_segments_matches_the_per_step_recursion_across_step_blocks():
    n = 16
    block = model._BLOCK_ENTRIES // n**2
    rng = np.random.default_rng(1619)
    sys = contractive(random_system(rng, n=n, D=3, m=2, p=2))
    # Two full blocks and a third of 100 steps, each cut into segments.
    w = random_run(rng, 3, 2, 2 * block + 100)
    assert_matches_reference_simulation(sys, rng.uniform(-1, 1, n), w)


@SEEDED
@given(systems(max_n=8), st.integers(0, 2**32 - 1), st.integers(64, 3000))
def test_long_switched_runs_match_the_per_step_recursion(sys, seed, steps):
    sys = contractive(sys)
    rng = np.random.default_rng(seed)
    modes = tuple(int(q) for q in rng.integers(1, sys.D + 1, steps))
    sw = SwitchedInput(D=sys.D, modes=modes, inputs=rng.uniform(-1, 1, (steps, sys.m)))
    w = InputSequence(scheduling=unit_schedule(modes, sys.D), inputs=sw.inputs)
    ref = reference_simulate(sys, np.zeros(sys.n), w).outputs[-1]
    assert np.all(np.abs(switched_output(sys, sw) - ref) <= 1e-12 * (1 + np.abs(ref)))


def _final_output_routes(sys, seed, steps):
    """Assert that the oracle and `switched_output` give simulate's final output on seeded runs.

    On the unit-scheduling runs (a SwitchedInput, and the same rows as a plain
    InputSequence) they must agree bit for bit; on a run with free scheduling
    vectors, to 1e-12 relative.
    """
    rng = np.random.default_rng(seed)
    oracle, x0 = system_oracle(sys), np.zeros(sys.n)
    modes = tuple(int(q) for q in rng.integers(1, sys.D + 1, steps))
    sw = SwitchedInput(D=sys.D, modes=modes, inputs=rng.uniform(-1, 1, (steps, sys.m)))
    unit = InputSequence(scheduling=unit_schedule(modes, sys.D), inputs=sw.inputs)
    y = simulate(sys, x0, sw).final_output
    assert np.array_equal(simulate(sys, x0, unit).final_output, y)
    for route in (switched_output(sys, sw), oracle(sw), oracle(unit)):
        assert np.array_equal(route, y)
    w = random_run(rng, sys.D, sys.m, steps)
    ref = simulate(sys, x0, w).final_output
    assert np.all(np.abs(oracle(w) - ref) <= 1e-12 * (1 + np.abs(ref)))


@SEEDED
@given(systems(max_n=8), st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 5, 8, 64, 65, 300]))
def test_oracle_and_switched_output_give_the_final_output_of_simulate(sys, seed, steps):
    _final_output_routes(contractive(sys), seed, steps)


@pytest.mark.parametrize("steps", [1, 2, 64, 300])
def test_final_output_routes_of_an_empty_state_space(steps):
    sys = ALPVSystem(A=np.zeros((2, 0, 0)), B=np.zeros((2, 0, 1)), C=np.zeros((2, 1, 0)))
    _final_output_routes(sys, steps, steps)
    sw = SwitchedInput(D=2, modes=(1,) * steps, inputs=np.ones((steps, 1)))
    assert np.array_equal(switched_output(sys, sw), [0.0])
    for runs in range(1, 6):
        assert_batch_matches_simulate(sys, np.random.default_rng(runs), runs, steps)


@st.composite
def equations(draw):
    """A random equation: D <= 3, m <= 2, order <= 2, up to 3 monomials a coefficient."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D, m, order = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 2))

    def poly():
        terms = [(rng.uniform(-2, 2), {(int(rng.integers(order + 1)), int(rng.integers(1, D + 1))):
                                       int(rng.integers(0, 3)) for _ in range(rng.integers(0, 4))})
                 for _ in range(rng.integers(0, 4))]
        return SchedulingPoly.from_terms(terms, order, D)

    return AffineIOEquation(order=order, m=m, D=D,
                            output_coeffs=[poly() for _ in range(order + 1)],
                            input_coeffs=[[poly() for _ in range(m)] for _ in range(order)])


@SEEDED
@given(equations(), st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
def test_stacked_residuals_match_the_scalar_reference(eq, seed, runs, extra):
    rng = np.random.default_rng(seed)
    length = eq.order + extra
    sched = rng.uniform(-2, 2, (length, runs, eq.D))
    inputs = rng.uniform(-2, 2, (length, runs, eq.m))
    y = rng.uniform(-2, 2, (length, runs))
    got = ioeq._residual(eq, sched, inputs, y)
    assert got.shape == (runs,)
    for r in range(runs):
        ref = reference_residual(eq, InputSequence(sched[:, r], inputs[:, r]), y[:, r])
        alone = ioeq._residual(eq, sched[:, r], inputs[:, r], y[:, r])
        bits = [np.float64(x).tobytes() for x in (got[r], alone, ref)]
        assert bits[0] == bits[1] == bits[2]


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
@given(systems(), st.integers(0, 2), st.integers(0, 3))
def test_a_system_window_is_its_factors_product(sys, L, M):
    """The data of a system window is Of @ Rf bit for bit, assembled once and read-only."""
    H = build_hankel(sys, L, M)
    Of, Rf = H.factors
    data = H.data
    assert data.shape == H.shape and data is H.data and not data.flags.writeable
    assert np.array_equal(data, Of @ Rf)
    reference = observability_factor(sys, L) @ reachability_factor(sys, M)
    assert np.allclose(data, reference, rtol=1e-12, atol=1e-12)
    given_data = HankelBlockMatrix(L=L, M=M, D=sys.D, m=sys.m, p=sys.p, data=data)
    assert given_data.factors is None and np.array_equal(given_data.data, data)


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
    Of, Rf = rng.normal(size=(rows, inner)), rng.normal(size=(inner, cols))
    M = Of @ Rf
    r = min(rows, cols, inner)
    assert numerical_rank(M) == r

    P = pseudoinverse(M)
    assert P.shape == (cols, rows)
    assert np.allclose(M @ P @ M, M) and np.allclose(P @ M @ P, P)

    for O, R, rank in (rank_factorize(M), linalg.factored_rank_factorize(Of, Rf)):
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
    """Rank 0-40 products whose shorter side (64-560) is far above their rank.

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


def realizable_window(kind, seed):
    """(system, L, minimal source) of one kind, for a window H_{L,L+1} built from the system.

    Sizes are drawn from `seed`: D <= 3, m, p <= 2 and cores of n <= 4.
    "minimal" sources at L = n-1; "padded" cores with 0-2 unreachable and
    0-2 unobservable states at any L < core order, so also below the rank
    plateau; "tall" windows of p = 3 > m = 1 at D <= 2; "empty" systems of
    n = 0; and "large" windows at D = 3, L = 3, whose shorter side is at
    least 120.
    """
    rng = np.random.default_rng(seed)
    D, n, m, p = (int(rng.integers(1, hi)) for hi in (4, 5, 3, 3))
    if kind == "padded":
        core = random_system(rng, D=D, n=n, m=m, p=p)
        k, j = (int(x) for x in rng.integers(0, 3, 2))
        return pad_unobservable(pad_unreachable(core, k, rng), j, rng), int(rng.integers(0, n)), False
    if kind == "empty":
        return random_system(rng, D=D, n=0, m=m, p=p), int(rng.integers(0, 3)), True
    if kind == "tall":
        sys = random_minimal_system(rng, n=min(n, 3), D=min(D, 2), m=1, p=3)
        return sys, sys.n - 1, True
    if kind == "large":
        return random_minimal_system(rng, n=n, D=3, m=m, p=p), 3, True
    return random_minimal_system(rng, n=n, D=D, m=m, p=p), n - 1, True


@pytest.mark.parametrize("kind", ["minimal", "padded", "tall", "empty", "large"])
@settings(SEEDED, max_examples=10)
@given(st.integers(0, 2**32 - 1))
@example(42)  # "padded": D = 1, m = 2, p = 1 at L = 2, below the plateau
def test_factored_and_window_realizations_agree(kind, seed):
    """`kalman_ho` from a system window's factors against the same window given as data.

    The data-only copy has no factors and is realized from a column-word
    search; `helpers.dense_kalman_ho`, which factors the whole data, is the
    reference for both.  All three give the rank of the window under the
    window's own cutoff, and both routes give the reference's Markov
    parameters within the C03 tolerance at every L, below the rank plateau
    too.  On a minimal source they are the source's own, with realizations
    related by an isomorphism.
    """
    sys, L, minimal = realizable_window(kind, seed)
    H = build_hankel(sys, L, L + 1)
    given = HankelBlockMatrix(L=L, M=L + 1, D=sys.D, m=sys.m, p=sys.p, data=H.data.copy())
    assert H.factors is not None and given.factors is None
    dense = dense_kalman_ho(given)
    assert dense.n == numerical_rank(H.data)
    scale = max(1.0, float(np.abs(H.data).max(initial=0.0)))
    W = build_hankel(dense, L, L + 1).data
    for realized in (kalman_ho(H), kalman_ho(given)):
        assert realized.n == dense.n
        assert np.abs(W - build_hankel(realized, L, L + 1).data).max(initial=0.0) <= 1e-8 * scale
        if minimal:
            assert realized.n == sys.n
            assert np.abs(W - H.data).max(initial=0.0) <= 1e-8 * scale
            T = find_isomorphism(dense, realized)
            assert isomorphism_residual(dense, realized, T) < 1e-7


@SEEDED
@given(padded_systems())
def test_analyze_ranks_match_extended_matrices(sys):
    report = analyze(sys)
    assert report.reach_rank == numerical_rank(extended_reachability(sys, sys.n - 1))
    assert report.obs_rank == numerical_rank(extended_observability(sys, sys.n - 1))


@SEEDED
@given(padded_systems(), st.integers(0, 2), st.integers(0, 3))
def test_factor_roots_carry_the_dense_spectra(sys, L, M):
    """Each root has its factor's singular values at every depth 0..n-1, and two roots H's."""
    for depth in range(sys.n):
        for root, factor in (
            (reachability_root(sys, depth), reachability_factor(sys, depth)),
            (observability_root(sys, depth), observability_factor(sys, depth)),
        ):
            dense = np.linalg.svd(factor, compute_uv=False)
            assert root.shape == (len(dense), sys.n)
            s = np.linalg.svd(root, compute_uv=False)
            assert np.allclose(s, dense, rtol=0, atol=1e-12 * dense[0])
    s = hankel_singular_values(sys, L, M)
    dense = np.linalg.svd(build_hankel(sys, L, M).data, compute_uv=False)
    assert np.allclose(s, dense[: len(s)], rtol=0, atol=1e-12 * dense[0])
    assert np.all(dense[len(s):] <= 1e-12 * dense[0])


@SEEDED
@given(padded_systems())
def test_reductions_span_the_extended_matrices(sys):
    _, V = reach_reduce(sys)
    _, W = obs_reduce(sys)
    R = range_basis(extended_reachability(sys, sys.n - 1))
    O = range_basis(extended_observability(sys, sys.n - 1).T)
    assert np.allclose(V @ V.T, R @ R.T, rtol=0, atol=1e-8)
    assert np.allclose(W.T @ W, O @ O.T, rtol=0, atol=1e-8)


def _verdict_corpus(count, seed):
    """Seeded (core order r, system) pairs.

    Each core has D <= 3, m, p <= 2 and n <= 4 (n = 0 for every 25th), and at
    most two unreachable or unobservable states in all are planted on it.
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        core = random_system(rng, n=0 if k % 25 == 0 else None)
        planted = int(rng.integers(0, 3))
        unreachable = int(rng.integers(0, planted + 1))
        padded = pad_unobservable(pad_unreachable(core, unreachable, rng), planted - unreachable, rng)
        yield core.n, padded


def test_verdict_corpus_matches_the_references():
    """500 systems: every rank, reduced order and realized order against a brute-force reference.

    `analyze` against the extended matrices at depth n-1, `minimize` against
    the rank of the table Hankel window at the planted core order r, which
    some realization of dimension r certifies, and `kalman_ho` on the systems
    found minimal against their own order.
    """
    minimal = 0
    for r, sys in _verdict_corpus(500, seed=2024):
        n, depth = sys.n, max(sys.n - 1, 0)
        report = analyze(sys)
        reach = numerical_rank(extended_reachability(sys, depth))
        obs = numerical_rank(extended_observability(sys, depth))
        assert (report.reach_rank, report.obs_rank) == (reach, obs), sys
        assert report.minimal == (reach == obs == n)
        order = hankel_rank(markov_table(sys, 2 * r), r - 1, r - 1) if r else 0
        assert minimize(sys).n == order, sys
        if report.minimal:
            minimal += 1
            assert kalman_ho(build_hankel(sys, depth, depth + 1)).n == n, sys
    assert minimal >= 100


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


def test_system_decisions_never_build_the_factors(monkeypatch):
    """At D=3, n=14 a depth-13 factor has 7,174,452 columns; every decision reads roots.

    `word_products` is the one recursion that yields word-indexed products, in
    `build_hankel(system)` and `markov_table` among others; with both modules'
    bindings refusing, and `build_hankel` itself refusing before `hankel_rank`,
    a decision that builds a factor or assembles the window by any route fails.
    """

    def refuse(*args):
        raise AssertionError("a decision built word-indexed products")

    rng = np.random.default_rng(0)
    core = random_minimal_system(rng, n=11, D=3, m=1, p=1, sv_gap=1e-2)
    padded = pad_unobservable(pad_unreachable(core, 2, rng), 1, rng)
    monkeypatch.setattr(hankel, "word_products", refuse)
    monkeypatch.setattr(markov, "word_products", refuse)
    with pytest.raises(AssertionError, match="word-indexed products"):
        hankel.build_hankel(padded, 0, 0)
    report = analyze(padded)
    assert (report.n, report.reach_rank, report.obs_rank, report.minimal) == (14, 12, 13, False)
    small = minimize(padded)
    assert small.n == 11
    T = find_isomorphism(small, core)
    assert isomorphism_residual(small, core, T) < 1e-10
    assert factored_hankel_rank(padded, 13, 13) == 11
    assert io_span_dimension(padded, 14) == 11
    monkeypatch.setattr(hankel, "build_hankel", refuse)
    assert hankel_rank(padded, 13, 13) == 11


def test_rank_cutoff_does_not_grow_with_the_word_count():
    """At D=3 the depth n-1 factor of an n=21 system has 3 N(20) > 1.5e10 columns.

    A cutoff scaled by that width (rel_eps 1e-10) would discard every
    singular value; each decision ranks its root under the root's own cutoff.
    """
    rng = np.random.default_rng(0)
    core = random_minimal_system(rng, n=18, D=3, m=1, p=1, sv_gap=1e-2)
    padded = pad_unobservable(pad_unreachable(core, 2, rng), 1, rng)
    report = analyze(padded)
    assert (report.n, report.reach_rank, report.obs_rank) == (21, 19, 20)
    small = minimize(padded)
    assert small.n == 18
    assert hankel_rank(padded, 20, 20) == 18
    assert isomorphism_residual(small, core, find_isomorphism(small, core)) < 1e-10

    wide = random_system(rng, n=20, D=3, m=1, p=1)
    s = np.linalg.svd(reachability_root(wide, 19), compute_uv=False)
    assert s[-1] / s[0] > 1e-2
    report = analyze(wide)
    assert (report.reach_rank, report.obs_rank) == (20, 20)
