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
    NonFiniteEntry,
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
    nonzero finite coefficient; a NaN or Inf coefficient, or a sum of
    coefficients of one monomial that overflows, raises NonFiniteEntry.
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
        if not np.isfinite(list(cleaned.values())).all():
            raise NonFiniteEntry("a polynomial coefficient is NaN or Inf")
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

        `values` maps (i, j) pairs to reals, or to 1-d arrays for many points,
        and must cover every variable that occurs in the polynomial.  Arrays
        are powered entry by entry, as reals are, so each point's value is bit
        for bit its value alone (numpy's array power may differ in the last bit).
        """
        total = 0.0
        for key, coeff in self.monomials.items():
            term = coeff
            for var, e in key:
                if var not in values:
                    raise MissingVariable(f"no value for P[{var[0]},{var[1]}]")
                x = values[var]
                term *= (x ** e if e == 1 or not isinstance(x, np.ndarray)
                         else np.array([v ** e for v in x.tolist()]))
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


def _residual(eq: AffineIOEquation, sched, inputs, y):
    """The left-hand side at the last time t of one run, or of R runs stacked on axis 1.

    Takes sched (t+1, D) or (t+1, R, D), inputs (t+1, m) or (t+1, R, m) and
    outputs y (t+1,) or (t+1, R); adds Q_0..Q_n, then L_{i,l} row by row.
    Only the result is checked: a value that is not finite raises NonFiniteEntry.
    """
    t = len(y) - 1
    values = {(i, j): sched[t - i].T[j - 1]
              for i in range(eq.order + 1) for j in range(1, eq.D + 1)}
    with np.errstate(over="ignore", invalid="ignore"):
        total = 0.0
        for i, poly in enumerate(eq.output_coeffs):
            total += poly.evaluate(values) * y[t - i]
        for i, row in enumerate(eq.input_coeffs, start=1):
            for l, poly in enumerate(row):
                total += poly.evaluate(values) * inputs[t - i].T[l]
    if not np.isfinite(total).all():
        raise NonFiniteEntry("the equation's left-hand side is not finite")
    return total


def equation_residual(eq: AffineIOEquation, w: InputSequence, outputs) -> float:
    """Evaluate the equation at the final time of a run.

    `outputs` are the scalar outputs y(0)..y(t) matching w (for instance
    from `simulate`); the run must be strictly longer than the equation
    order.  Returns the left-hand-side value, zero iff the equation holds
    at this sample; one that is not finite raises NonFiniteEntry.
    """
    y = np.asarray(outputs, dtype=float)
    if y.ndim == 2:
        if y.shape[1] != 1:
            raise OutputDimNotScalar(f"equation checking needs p=1, got p={y.shape[1]}")
        y = y[:, 0]
    if y.ndim != 1:
        raise OutputDimNotScalar("outputs must be a vector of scalar outputs")
    if y.shape[0] != w.length:
        raise DimensionMismatch(f"outputs cover {y.shape[0]} steps but the run has {w.length}")
    if w.D != eq.D or w.m != eq.m:
        raise DimensionMismatch(
            f"run has (D={w.D}, m={w.m}) but equation has (D={eq.D}, m={eq.m})")
    if w.length - 1 <= eq.order:
        raise TrajectoryTooShort(f"need t > {eq.order}, got a run ending at t={w.length - 1}")
    return float(_residual(eq, w.scheduling, w.inputs, y))


def check_equation(eq: AffineIOEquation, sys: ALPVSystem, trials: int = 100, seed: int = 42,
                   tol: float = 1e-10) -> EquationCheckReport:
    """Decide satisfaction by randomized trajectory sampling.

    Simulates `trials` runs with lengths drawn from order+2 .. order+6 and
    scheduling/input entries uniform on (-1, 1), all deterministic from the
    seed, and evaluates the residual at the final time of each.  The
    equation counts as satisfied when max |residual| <= tol * (1 + max |y|),
    with the residuals divided by the largest coefficient magnitude so the
    verdict is scale-invariant.  At least one trial and a finite tol >= 0
    are required.

    The trials are drawn from one rng stream (length, scheduling, inputs,
    trial by trial) and kept by length.  Those of one length run side by side
    from the zero state in one call of `simulate`'s trajectory routine, and
    get their residuals from one call of `equation_residual`'s routine.  A
    state up to the last one of a run, an output or a residual that is not
    finite raises NonFiniteEntry.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if sys.p != 1:
        raise OutputDimNotScalar(f"equation checking needs p=1, got p={sys.p}")
    if sys.D != eq.D or sys.m != eq.m:
        raise DimensionMismatch(
            f"system has (D={sys.D}, m={sys.m}) but equation has (D={eq.D}, m={eq.m})")
    if eq.output_coeffs[0].is_zero:
        raise ZeroLeadingCoefficient("the coefficient of Y_0 is the zero polynomial")
    rng = np.random.default_rng(seed)
    runs = {}  # length -> (scheduling, inputs) arrays of its trials, in draw order
    for _ in range(trials):
        length = int(rng.integers(eq.order + 2, eq.order + 7))
        sched, inputs = runs.setdefault(length, ([], []))
        sched.append(rng.uniform(-1.0, 1.0, (length, sys.D)))
        inputs.append(rng.uniform(-1.0, 1.0, (length, sys.m)))
    max_res = max_y = 0.0
    for length in sorted(runs):
        sched, inputs = (np.stack(arrays, axis=1) for arrays in runs[length])
        y = _trajectory(sys, np.zeros((length + 1, sched.shape[1], sys.n)), sched, inputs)[:, :, 0]
        max_res = max(max_res, float(np.max(np.abs(_residual(eq, sched, inputs, y)))))
        max_y = max(max_y, float(np.max(np.abs(y))))
    max_res /= eq.max_abs_coeff()  # positive: Q_0 is not the zero polynomial
    return EquationCheckReport(satisfied=bool(max_res <= tol * (1.0 + max_y)), max_residual=max_res)


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
