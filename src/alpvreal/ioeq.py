"""Affine polynomial input-output equations in time-shifted scheduling values.

An order-n equation over a scalar-output map relates the last n+1 outputs
and the last n inputs of any sufficiently long run:

    sum_{i=0}^{n} Q_i(P) Y_i  +  sum_{i=1}^{n} sum_{l=1}^{m} L_{i,l}(P) U_{i,l} = 0

with polynomial coefficients in the variables P_{i,j} = p_j(t - i) and the
substitutions Y_i = output at time t - i, U_{i,l} = u_l(t - i).  The
coefficient Q_0 of the current output must not be the zero polynomial.

A scalar-output map admits such an equation exactly when it is realizable
by an affine LPV system, and the dimension of the span of its shifted
responses equals the rank of its Hankel matrix; `io_span_dimension` reads
that number off a finite Hankel sub-matrix under a caller-supplied
dimension bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingVariable,
    OutputDimNotScalar,
    TrajectoryTooShort,
    ZeroLeadingCoefficient,
)
from .hankel import hankel_rank
from .linalg import DEFAULT_TOL, ToleranceConfig
from .model import ALPVSystem, InputSequence, _trajectory
from .model import simulate  # noqa: F401  (perfbench/tracing.py rebinds ioeq.simulate)


def _canonical_key(exps) -> tuple:
    """Sorted ((i, j), e) pairs with e != 0; i, j, e integral (as in `check_word`) and e >= 0."""
    for (i, j), e in exps.items():
        try:
            integral = all(int(x) == x for x in (i, j, e))
        except (OverflowError, TypeError, ValueError):  # NaN, an infinity, not a number
            integral = False
        if not integral or e < 0:
            raise ValueError(f"P[{i!r},{j!r}]^{e!r}: need integers, exponent >= 0")
    return tuple(sorted(((int(i), int(j)), int(e)) for (i, j), e in exps.items() if e))


@dataclass(frozen=True, eq=False)
class SchedulingPoly:
    """Sparse polynomial in the variables P[i, j] = p_j(t - i).

    `order` bounds the time shift i (0..order) and `D` bounds the
    coordinate j (1..D).  Monomials map a canonical exponent tuple to a
    nonzero real coefficient.
    """

    order: int
    D: int
    monomials: dict

    def __post_init__(self):
        cleaned = {}
        for exps, coeff in self.monomials.items():
            key = _canonical_key(dict(exps))
            for (i, j), _ in key:
                if not 0 <= i <= self.order:
                    raise ValueError(f"shift {i} outside 0..{self.order}")
                if not 1 <= j <= self.D:
                    raise ValueError(f"coordinate {j} outside 1..{self.D}")
            c = float(coeff)
            if c != 0.0:
                cleaned[key] = cleaned.get(key, 0.0) + c
        object.__setattr__(self, "monomials", {k: c for k, c in cleaned.items() if c})

    @classmethod
    def zero(cls, order: int, D: int) -> "SchedulingPoly":
        return cls(order=order, D=D, monomials={})

    @classmethod
    def constant(cls, value: float, order: int, D: int) -> "SchedulingPoly":
        return cls(order=order, D=D, monomials={(): value})

    @classmethod
    def from_terms(cls, terms, order: int, D: int) -> "SchedulingPoly":
        """Build from (coefficient, {(i, j): exponent}) pairs."""
        mono = {}
        for coeff, exps in terms:
            key = _canonical_key(exps)
            mono[key] = mono.get(key, 0.0) + float(coeff)
        return cls(order=order, D=D, monomials=mono)

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.monomials.values()), default=0.0)

    def evaluate(self, values) -> float:
        """Sum of coefficient * product of powered variable values.

        `values` maps (i, j) pairs to reals and must cover every variable
        that occurs in the polynomial.
        """
        total = 0.0
        for key, coeff in self.monomials.items():
            term = coeff
            for var, e in key:
                if var not in values:
                    raise MissingVariable(f"no value for P[{var[0]},{var[1]}]")
                term *= values[var] ** e
            total += term
        return total


@dataclass(frozen=True, eq=False)
class AffineIOEquation:
    """Order-n equation: coefficients for Y_0..Y_n and for U_{i,l}."""

    order: int
    m: int
    D: int
    output_coeffs: tuple  # n+1 SchedulingPoly, index i -> Q_i
    input_coeffs: tuple  # n rows of m SchedulingPoly, [i-1][l-1] -> L_{i,l}

    def __post_init__(self):
        object.__setattr__(self, "output_coeffs", tuple(self.output_coeffs))
        object.__setattr__(self, "input_coeffs", tuple(tuple(r) for r in self.input_coeffs))
        if len(self.output_coeffs) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} output coefficients, got {len(self.output_coeffs)}"
            )
        if len(self.input_coeffs) != self.order:
            raise ValueError(
                f"need {self.order} input coefficient rows, got {len(self.input_coeffs)}"
            )
        for row in self.input_coeffs:
            if len(row) != self.m:
                raise ValueError(f"each input coefficient row needs {self.m} entries")

    def all_coeffs(self):
        yield from self.output_coeffs
        for row in self.input_coeffs:
            yield from row

    def max_abs_coeff(self) -> float:
        return max((poly.max_abs_coeff() for poly in self.all_coeffs()), default=0.0)


@dataclass(frozen=True)
class EquationCheckReport:
    satisfied: bool
    max_residual: float


def equation_residual(eq: AffineIOEquation, w: InputSequence, outputs) -> float:
    """Evaluate the equation at the final time of a run.

    `outputs` are the scalar outputs y(0)..y(t) matching w (for instance
    from `simulate`); the run must be strictly longer than the equation
    order.  Returns the left-hand-side value, zero iff the equation holds
    at this sample.
    """
    y = np.asarray(outputs, dtype=float)
    if y.ndim == 2:
        if y.shape[1] != 1:
            raise OutputDimNotScalar(f"equation checking needs p=1, got p={y.shape[1]}")
        y = y[:, 0]
    if y.ndim != 1:
        raise OutputDimNotScalar("outputs must be a vector of scalar outputs")
    t = w.length - 1
    if y.shape[0] != w.length:
        raise DimensionMismatch(
            f"outputs cover {y.shape[0]} steps but the run has {w.length}"
        )
    if w.D != eq.D or w.m != eq.m:
        raise DimensionMismatch(
            f"run has (D={w.D}, m={w.m}) but equation has (D={eq.D}, m={eq.m})"
        )
    if t <= eq.order:
        raise TrajectoryTooShort(
            f"need t > {eq.order}, got a run ending at t={t}"
        )
    values = {
        (i, j): w.scheduling[t - i, j - 1]
        for i in range(eq.order + 1)
        for j in range(1, eq.D + 1)
    }
    total = 0.0
    for i, poly in enumerate(eq.output_coeffs):
        total += poly.evaluate(values) * y[t - i]
    for i in range(1, eq.order + 1):
        for l in range(1, eq.m + 1):
            total += eq.input_coeffs[i - 1][l - 1].evaluate(values) * w.inputs[t - i, l - 1]
    return total


def check_equation(
    eq: AffineIOEquation,
    sys: ALPVSystem,
    trials: int = 100,
    seed: int = 42,
    tol: float = 1e-10,
) -> EquationCheckReport:
    """Decide satisfaction by randomized trajectory sampling.

    Simulates `trials` runs with lengths drawn from order+2 .. order+6 and
    scheduling/input entries uniform on (-1, 1), all deterministic from the
    seed, and evaluates the residual at the final time of each.  The
    equation counts as satisfied when max |residual| <= tol * (1 + max |y|),
    with the residuals divided by the largest coefficient magnitude so the
    verdict is scale-invariant.  At least one trial and a finite tol >= 0
    are required.

    Every trial is drawn first, from one rng stream in the order length,
    scheduling, inputs, trial by trial; the trials of each length are then
    stacked and run from the zero state side by side, as one call of the
    trajectory routine that `simulate` runs.  A state up to the last one of a
    run, or an output, that is not finite raises NonFiniteEntry.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if sys.p != 1:
        raise OutputDimNotScalar(f"equation checking needs p=1, got p={sys.p}")
    if sys.D != eq.D or sys.m != eq.m:
        raise DimensionMismatch(
            f"system has (D={sys.D}, m={sys.m}) but equation has (D={eq.D}, m={eq.m})"
        )
    if eq.output_coeffs[0].is_zero:
        raise ZeroLeadingCoefficient("the coefficient of Y_0 is the zero polynomial")
    rng = np.random.default_rng(seed)
    runs = []
    for _ in range(trials):
        length = int(rng.integers(eq.order + 2, eq.order + 7))
        runs.append(InputSequence(
            scheduling=rng.uniform(-1.0, 1.0, (length, sys.D)),
            inputs=rng.uniform(-1.0, 1.0, (length, sys.m)),
        ))
    max_res = 0.0
    max_y = 0.0
    for length in sorted({w.length for w in runs}):
        group = [w for w in runs if w.length == length]
        outputs = _trajectory(
            sys,
            np.zeros((length + 1, len(group), sys.n)),
            np.stack([w.scheduling for w in group], axis=1),
            np.stack([w.inputs for w in group], axis=1),
        )[:, :, 0]
        for r, w in enumerate(group):
            max_res = max(max_res, abs(float(equation_residual(eq, w, outputs[:, r]))))
        max_y = max(max_y, float(np.max(np.abs(outputs))))
    max_res /= eq.max_abs_coeff()  # positive: Q_0 is not the zero polynomial
    return EquationCheckReport(
        satisfied=bool(max_res <= tol * (1.0 + max_y)), max_residual=max_res
    )


def io_span_dimension(source, bound: int, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of the shifted-response span, as a Hankel rank.

    The span of all zero-input continuations of the map is linearly
    isomorphic to the row span of its Hankel matrix, so its dimension is
    `hankel_rank(source, bound-1, bound-1)`, under the cutoff of the matrix
    that ranks it; the value is exact once `bound` exceeds the minimal
    realization dimension.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    return hankel_rank(source, bound - 1, bound - 1, tol)
