import numpy as np
import pytest

from alpvreal import (
    AffineIOEquation,
    ALPVSystem,
    DimensionMismatch,
    InputSequence,
    MissingVariable,
    NonFiniteEntry,
    OutputDimNotScalar,
    SchedulingPoly,
    TrajectoryTooShort,
    ZeroLeadingCoefficient,
    check_equation,
    equation_residual,
    io_span_dimension,
    markov_table,
    simulate,
)

from alpvreal import ioeq

from conftest import make_eq1
from helpers import (
    random_run, random_system, reference_check_equation, reference_residual, scaled_poly,
)


def test_poly_evaluate_examples():
    poly = SchedulingPoly.from_terms([(1.0, {(0, 1): 1, (1, 1): 1})], 1, 1)
    assert poly.evaluate({(0, 1): 2.0, (1, 1): 3.0}) == pytest.approx(6.0)
    const = SchedulingPoly.constant(1.0, 2, 2)
    assert const.evaluate({}) == pytest.approx(1.0)
    square = SchedulingPoly.from_terms([(2.0, {(0, 1): 2})], 0, 1)
    assert square.evaluate({(0, 1): 3.0}) == pytest.approx(18.0)


def test_poly_missing_variable():
    poly = SchedulingPoly.from_terms([(1.0, {(0, 1): 1})], 0, 1)
    with pytest.raises(MissingVariable):
        poly.evaluate({})


def test_poly_drops_zero_coefficients():
    poly = SchedulingPoly.from_terms(
        [(1.0, {(0, 1): 1}), (-1.0, {(0, 1): 1}), (0.0, {})], 1, 1
    )
    assert poly.is_zero


def test_equation_requires_consistent_shapes(eq1):
    with pytest.raises(ValueError):
        AffineIOEquation(
            order=1,
            m=1,
            D=1,
            output_coeffs=(SchedulingPoly.constant(1.0, 1, 1),),
            input_coeffs=((SchedulingPoly.zero(1, 1),),),
        )
    zero = SchedulingPoly.zero(1, 1)
    for rows, message in (((), r"^need 1 input coefficient rows, got 0$"),
                          (((zero, zero),), r"^each input coefficient row needs 1 entries$")):
        with pytest.raises(ValueError, match=message):
            AffineIOEquation(order=1, m=1, D=1, output_coeffs=eq1.output_coeffs,
                             input_coeffs=rows)


@pytest.mark.parametrize(
    "exps, message",
    [({(2, 1): 1}, r"^shift 2 outside 0\.\.1$"), ({(0, 2): 1}, r"^coordinate 2 outside 1\.\.1$")],
    ids=["shift", "coordinate"],
)
def test_poly_rejects_variables_out_of_range(exps, message):
    with pytest.raises(ValueError, match=message):
        SchedulingPoly.from_terms([(1.0, exps)], 1, 1)


def test_residual_rejects_a_run_of_other_length_or_dimensions(eq1):
    w = InputSequence(scheduling=[[1.0]] * 3, inputs=[[0.0]] * 3)
    with pytest.raises(DimensionMismatch, match=r"^outputs cover 4 steps but the run has 3$"):
        equation_residual(eq1, w, np.zeros(4))
    for D, m in ((2, 1), (1, 2)):
        w = InputSequence(scheduling=np.ones((3, D)), inputs=np.zeros((3, m)))
        with pytest.raises(DimensionMismatch, match=rf"run has \(D={D}, m={m}\)"):
            equation_residual(eq1, w, np.zeros(3))


def test_residual_fixture_trajectory(sigma1, eq1, eq1_perturbed):
    w = InputSequence(scheduling=[[2.0], [3.0], [1.0]], inputs=[[1.0], [0.0], [0.0]])
    out = simulate(sigma1, [0.0], w).outputs
    assert out[:, 0] == pytest.approx([0.0, 6.0, 3.0])
    assert equation_residual(eq1, w, out) == pytest.approx(0.0, abs=1e-12)
    assert equation_residual(eq1_perturbed, w, out) == pytest.approx(-0.6)


def test_residual_trajectory_too_short(eq1, sigma1):
    w = InputSequence(scheduling=[[1.0], [1.0]], inputs=[[0.0], [0.0]])
    out = simulate(sigma1, [0.0], w).outputs
    with pytest.raises(TrajectoryTooShort):
        equation_residual(eq1, w, out)


def test_residual_rejects_vector_outputs(eq1):
    w = InputSequence(scheduling=[[1.0]] * 3, inputs=[[0.0]] * 3)
    with pytest.raises(OutputDimNotScalar):
        equation_residual(eq1, w, np.zeros((3, 2)))
    with pytest.raises(OutputDimNotScalar, match="must be a vector of scalar outputs"):
        equation_residual(eq1, w, np.zeros((3, 1, 1)))


def test_residual_stable_under_longer_history(sigma1, eq1):
    # a satisfied equation holds at every terminal time t > order, whatever
    # happened earlier in the run
    rng = np.random.default_rng(41)
    w = random_run(rng, 1, 1, 9)
    out = simulate(sigma1, [0.0], w).outputs
    for t in range(2, 9):
        prefix = InputSequence(w.scheduling[: t + 1], w.inputs[: t + 1])
        res = equation_residual(eq1, prefix, out[: t + 1])
        assert abs(res) < 1e-12 * (1 + np.max(np.abs(out)))


def test_check_equation_fixture(sigma1, eq1, eq1_perturbed):
    report = check_equation(eq1, sigma1, trials=100, seed=42)
    assert report.satisfied and report.max_residual < 1e-10
    report_bad = check_equation(eq1_perturbed, sigma1, trials=100, seed=42)
    assert not report_bad.satisfied


def test_check_equation_needs_a_trial(sigma1, eq1_perturbed):
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials"):
            check_equation(eq1_perturbed, sigma1, trials=trials)


def test_check_equation_scale_invariant_verdict(sigma1, eq1, eq1_perturbed):
    for factor in (1e-6, 1.0, 1e6):
        scaled = AffineIOEquation(
            order=1,
            m=1,
            D=1,
            output_coeffs=tuple(scaled_poly(p, factor) for p in eq1.output_coeffs),
            input_coeffs=tuple(
                tuple(scaled_poly(p, factor) for p in row) for row in eq1.input_coeffs
            ),
        )
        assert check_equation(scaled, sigma1, trials=50, seed=7).satisfied
        scaled_bad = AffineIOEquation(
            order=1,
            m=1,
            D=1,
            output_coeffs=tuple(scaled_poly(p, factor) for p in eq1_perturbed.output_coeffs),
            input_coeffs=tuple(
                tuple(scaled_poly(p, factor) for p in row) for row in eq1_perturbed.input_coeffs
            ),
        )
        assert not check_equation(scaled_bad, sigma1, trials=50, seed=7).satisfied


def test_check_equation_zero_leading_coefficient(sigma1, eq1):
    broken = AffineIOEquation(
        order=1,
        m=1,
        D=1,
        output_coeffs=(SchedulingPoly.zero(1, 1), eq1.output_coeffs[1]),
        input_coeffs=eq1.input_coeffs,
    )
    with pytest.raises(ZeroLeadingCoefficient):
        check_equation(broken, sigma1)


def test_check_equation_rejects_multi_output(eq1):
    wide = ALPVSystem(A=[[[0.5]]], B=[[[1.0]]], C=[[[1.0], [2.0]]])
    with pytest.raises(OutputDimNotScalar):
        check_equation(eq1, wide)


def test_check_equation_dimension_guard(sigma_star, eq1):
    with pytest.raises(DimensionMismatch):
        check_equation(eq1, sigma_star)  # D=2 system vs D=1 equation


def test_check_equation_deterministic(sigma1, eq1):
    a = check_equation(eq1, sigma1, trials=40, seed=11)
    b = check_equation(eq1, sigma1, trials=40, seed=11)
    assert a == b


def test_io_span_dimension_fixtures(sigma_star, sigma2):
    assert io_span_dimension(sigma_star, 3) == 1
    assert io_span_dimension(sigma2, 4) == 2


def test_io_span_dimension_zero_map():
    dead = ALPVSystem(A=[np.eye(2)], B=[np.zeros((2, 1))], C=[np.ones((1, 2))])
    for bound in (1, 2, 3):
        assert io_span_dimension(dead, bound) == 0


def test_io_span_dimension_monotone_and_stabilizing(sigma2):
    values = [io_span_dimension(sigma2, bound) for bound in range(1, 6)]
    assert values == sorted(values)
    assert values[0] == 1  # bound 1 undershoots
    assert all(v == 2 for v in values[1:])


def test_io_span_dimension_table_source(sigma2):
    table = markov_table(sigma2, 6)
    assert io_span_dimension(table, 2) == 2
    assert io_span_dimension(table, 3) == io_span_dimension(sigma2, 3)


def test_make_eq1_matches_file_spec(eq1):
    # smoke-check the fixture builder itself: one constant, one linear, one
    # bilinear coefficient, nothing else
    assert len(eq1.output_coeffs) == 2
    assert eq1.output_coeffs[0].monomials == {(): 1.0}
    assert eq1.max_abs_coeff() == 1.0
    assert make_eq1(-0.5).output_coeffs[1].monomials == {(((0, 1), 1),): -0.5}


@pytest.mark.parametrize(
    "exps",
    [{(0, 1): 1.7}, {(0.5, 1): 1}, {(0, 1.5): 1}, {(0, 1): "2"}, {(0, 1): -1},
     {(0, 1): float("inf")}, {(0, 1): float("nan")}, {(float("inf"), 1): 1}, {(0, float("nan")): 1}],
    ids=["exponent", "shift", "coordinate", "string", "negative",
         "inf-exponent", "nan-exponent", "inf-shift", "nan-coordinate"],
)
def test_poly_rejects_exponents_and_variables_that_are_not_integers(exps):
    with pytest.raises(ValueError, match="need integers, exponent >= 0"):
        SchedulingPoly.from_terms([(1.0, exps)], 1, 2)


def test_poly_accepts_integral_floats_as_integers():
    poly = SchedulingPoly.from_terms([(1.0, {(0.0, 2.0): 2.0})], 1, 2)
    assert poly.monomials == {(((0, 2), 2),): 1.0}


def _monomial(*variables):
    """Exponents of the product of the variables P[i, j] named, repeats counted."""
    exps = {}
    for var in variables:
        exps[var] = exps.get(var, 0) + 1
    return exps


def _scalar_state_equation(a, b, c, q1_scale=1.0):
    """The order-1 equation c(1) Y_0 - c(0) a(1) Y_1 - c(0) c(1) b(1) U_1 = 0.

    It holds on the scalar-state family (a_q, b_q, c_q), D = len(a), with
    a(i) = sum_q a_q P[i, q] and likewise b, c; scaling the Y_1 coefficient
    by anything but 1 gives an equation the map violates.
    """
    D = len(a)
    letters = range(1, D + 1)
    q0 = [(c[q - 1], _monomial((1, q))) for q in letters]
    q1 = [(-q1_scale * c[q - 1] * a[r - 1], _monomial((0, q), (1, r)))
          for q in letters for r in letters]
    l11 = [(-c[q - 1] * c[r - 1] * b[s - 1], _monomial((0, q), (1, r), (1, s)))
           for q in letters for r in letters for s in letters]
    poly = lambda terms: SchedulingPoly.from_terms(terms, 1, D)
    return AffineIOEquation(order=1, m=1, D=D, output_coeffs=(poly(q0), poly(q1)),
                            input_coeffs=((poly(l11),),))


@pytest.mark.parametrize("trials", [1, 7, 100])
@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("D", [1, 2, 3])
def test_batched_check_equation_matches_the_per_trial_reference(D, exact, trials):
    rng = np.random.default_rng(10 * D + trials)
    a, b, c = (rng.uniform(0.2, 1.0, D) * rng.choice([-1.0, 1.0], D) for _ in range(3))
    sys = ALPVSystem(A=[[[x]] for x in a], B=[[[x]] for x in b], C=[[[x]] for x in c])
    eq = _scalar_state_equation(a, b, c, 1.0 if exact else 1.2)
    for seed in range(4):
        got = check_equation(eq, sys, trials=trials, seed=seed)
        ref = reference_check_equation(eq, sys, trials=trials, seed=seed)
        assert got.satisfied == ref.satisfied == exact
        assert got.max_residual == pytest.approx(ref.max_residual, rel=1e-12, abs=0.0)


def test_batched_check_equation_matches_the_per_trial_reference_on_a_wider_state():
    # An order-2 equation the n = 3 map does not satisfy: large residuals, runs of 4..8 steps.
    rng = np.random.default_rng(23)
    sys = random_system(rng, n=3, D=2, m=2, p=1)
    poly = lambda: SchedulingPoly.from_terms(
        [(rng.uniform(-1, 1), {(i, j): 1}) for i in range(3) for j in (1, 2)], 2, 2)
    eq = AffineIOEquation(order=2, m=2, D=2, output_coeffs=(poly(), poly(), poly()),
                          input_coeffs=((poly(), poly()), (poly(), poly())))
    for trials in (1, 50):
        got = check_equation(eq, sys, trials=trials, seed=trials)
        ref = reference_check_equation(eq, sys, trials=trials, seed=trials)
        assert not got.satisfied and not ref.satisfied
        assert got.max_residual == pytest.approx(ref.max_residual, rel=1e-12, abs=0.0)


def test_check_equation_builds_no_input_sequence(monkeypatch, sigma1, eq1):
    def refuse(self):
        raise AssertionError("check_equation built an InputSequence")

    monkeypatch.setattr(InputSequence, "__post_init__", refuse)
    assert check_equation(eq1, sigma1).satisfied


def test_check_equation_takes_one_residual_call_per_run_length(monkeypatch, sigma1, eq1):
    lengths = []

    def counted(eq, sched, inputs, y):
        lengths.append(len(y))
        assert sched.shape[:2] == inputs.shape[:2] == y.shape
        return residual(eq, sched, inputs, y)

    residual = ioeq._residual
    monkeypatch.setattr(ioeq, "_residual", counted)
    assert check_equation(eq1, sigma1, trials=100, seed=5).satisfied
    assert lengths == [3, 4, 5, 6, 7]


def test_stacked_residuals_are_each_runs_own_bit_for_bit():
    """Squares and cubes of 20,000 drawn values, where numpy's array power may round otherwise."""
    rng = np.random.default_rng(17)
    poly = lambda: SchedulingPoly.from_terms(
        [(rng.uniform(-1, 1), {(i, j): int(rng.integers(1, 4)) for j in (1, 2)})
         for i in range(3)], 2, 2)
    eq = AffineIOEquation(order=2, m=2, D=2, output_coeffs=(poly(), poly(), poly()),
                          input_coeffs=((poly(), poly()), (poly(), poly())))
    runs = 20_000
    sched = rng.uniform(-3, 3, (4, runs, 2))
    inputs = rng.uniform(-1, 1, (4, runs, 2))
    y = rng.uniform(-1, 1, (4, runs))
    ref = [reference_residual(eq, InputSequence(sched[:, r], inputs[:, r]), y[:, r])
           for r in range(runs)]
    assert ioeq._residual(eq, sched, inputs, y).tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("coeff", [float("nan"), float("inf"), -float("inf")])
def test_poly_refuses_a_coefficient_that_is_not_finite(coeff):
    with pytest.raises(NonFiniteEntry, match="polynomial coefficient is NaN or Inf"):
        make_eq1(coeff)


def test_poly_refuses_coefficients_whose_sum_overflows():
    with pytest.raises(NonFiniteEntry):
        SchedulingPoly.from_terms([(1e308, {(0, 1): 1}), (1e308, {(0, 1): 1})], 1, 1)


def _overflowing_equation():
    """Y_0 + (1e308 P_0_1 - 1e308 P_1_1) Y_1 + 1e308 P_0_1 P_1_1 U_11: finite, terms overflow."""
    q1 = SchedulingPoly.from_terms([(1e308, {(0, 1): 1}), (-1e308, {(1, 1): 1})], 1, 1)
    l11 = SchedulingPoly.from_terms([(1e308, {(0, 1): 1, (1, 1): 1})], 1, 1)
    return AffineIOEquation(order=1, m=1, D=1, input_coeffs=((l11,),),
                            output_coeffs=(SchedulingPoly.constant(1.0, 1, 1), q1))


def test_an_overflowing_residual_raises_and_warns_nothing(sigma1):
    # warnings are errors in this suite: a RuntimeWarning from the overflow would fail here
    eq = _overflowing_equation()
    with pytest.raises(NonFiniteEntry, match="left-hand side is not finite"):
        check_equation(eq, sigma1)
    w = InputSequence(scheduling=[[1.0], [-1.0], [1.0]], inputs=[[0.0]] * 3)
    with pytest.raises(NonFiniteEntry):
        equation_residual(eq, w, [0.0, 1.0, 1.0])
