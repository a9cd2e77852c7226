"""Affine LPV systems: the matrix family, simulation, convolution output.

A system is a family {(A_q, B_q, C_q)}_{q=1..D} driven by a scheduling
signal p(t) in R^D and an input u(t) in R^m:

    x(t+1) = sum_q p_q(t) * (A_q x(t) + B_q u(t))
    y(t)   = sum_q p_q(t) * C_q x(t)

The output at time t does not depend on u(t) (no feedthrough).  The
input-output map of a system is the map induced by the zero initial state;
`convolution_output` evaluates the same map from a table of kernel
coefficients instead of the matrices, which both serves as a brute-force
test oracle and decouples the map from any particular realization.

Scheduling vectors are unrestricted elements of R^D: affine dependence on
physical parameters is modelled by pinning one scheduling coordinate to 1,
and every multilinear identity used here extends uniquely from any spanning
set to the whole space.

Every `ALPVSystem` and `InputSequence` is checked once, when it is built:
an ill-formed family or run raises there, so no function that takes one
checks it again.  Each keeps read-only copies made by its constructor (a
system the stacks A (D,n,n), B (D,n,m), C (D,p,n), a run its scheduling and
inputs), which neither the caller's arrays nor an in-place write can change.
A system's check is one copy and one shape and finiteness test per family;
the matrix-by-matrix loop runs only to name what is wrong with a family
that fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    HorizonExceeded,
    InvalidAlphabet,
    NonFiniteEntry,
)


@dataclass(frozen=True, eq=False)
class ALPVSystem:
    """Matrix family of a discrete-time affine LPV system.

    The constructor takes D matrices each for A, B and C, of shapes n x n,
    n x m and p x n, as lists or as 3-d stacks, and coerces them to 2-d
    float arrays.  It raises InvalidAlphabet for D < 1, DimensionMismatch
    naming the first misshapen matrix (or m < 1, p < 1, or families of
    different lengths) and NonFiniteEntry naming the first matrix with a
    NaN or Inf entry.  Each family is copied and tested in one pass; only a
    family that fails is taken apart matrix by matrix to name the culprit.
    It keeps only their stacks: A[q-1] is a read-only view of A_q, and
    likewise for B and C.
    """

    A: np.ndarray  # (D, n, n)
    B: np.ndarray  # (D, n, m)
    C: np.ndarray  # (D, p, n)

    def __post_init__(self):
        try:  # one copy and one test per family; the per-matrix loop only names a culprit
            stacks = [np.array(getattr(self, name), dtype=float) for name in "ABC"]
        except (OverflowError, TypeError, ValueError):  # ragged, or not numbers
            stacks = None
        if stacks is None or not _well_formed(*stacks):
            stacks = self._checked_stacks()
        for name, stack in zip("ABC", stacks):
            stack.flags.writeable = False
            object.__setattr__(self, name, stack)

    def _checked_stacks(self) -> list:
        """The stacks, checked matrix by matrix; raises naming the first ill-formed matrix."""
        families = {
            name: tuple(np.atleast_2d(np.asarray(M, dtype=float)) for M in getattr(self, name))
            for name in "ABC"
        }
        A, B, C = families.values()
        D = len(A)
        if D < 1:
            raise InvalidAlphabet("a system needs at least one scheduling coordinate (D >= 1)")
        if len(B) != D or len(C) != D:
            raise DimensionMismatch(
                f"matrix families disagree on D: len(A)={D}, len(B)={len(B)}, len(C)={len(C)}"
            )
        n, m, p = A[0].shape[0], B[0].shape[1], C[0].shape[0]
        if m < 1:
            raise DimensionMismatch(f"input dimension must be >= 1, got m={m}")
        if p < 1:
            raise DimensionMismatch(f"output dimension must be >= 1, got p={p}")
        for (name, family), expected in zip(families.items(), ((n, n), (n, m), (p, n))):
            for q, M in enumerate(family, start=1):
                if M.shape != expected:
                    raise DimensionMismatch(
                        f"{name}[{q}]: expected shape {expected}, got {M.shape}"
                    )
                if not np.isfinite(M).all():
                    raise NonFiniteEntry(f"{name}[{q}] contains NaN or Inf entries")
        return [np.stack(family) for family in families.values()]

    @property
    def D(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.B.shape[2]

    @property
    def p(self) -> int:
        return self.C.shape[1]

    @property
    def dims(self):
        """(D, n, m, p)."""
        return (self.D, self.n, self.m, self.p)


def _well_formed(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> bool:
    """Whether the stacks have shapes (D, n, n), (D, n, m), (D, p, n), D, m, p >= 1, all finite."""
    if not A.ndim == B.ndim == C.ndim == 3:
        return False
    (D, n, n2), m, p = A.shape, B.shape[2], C.shape[1]
    return (
        D >= 1 and n == n2 and m >= 1 and p >= 1
        and B.shape == (D, n, m) and C.shape == (D, p, n)
        and np.isfinite(A).all() and np.isfinite(B).all() and np.isfinite(C).all()
    )


def dual(sys: ALPVSystem) -> ALPVSystem:
    """The transposed family (A_q^T, C_q^T, B_q^T); its reachability is observability of sys."""
    return ALPVSystem(
        A=sys.A.transpose(0, 2, 1), B=sys.C.transpose(0, 2, 1), C=sys.B.transpose(0, 2, 1)
    )


@dataclass(frozen=True, eq=False)
class InputSequence:
    """A finite run of (scheduling vector, input vector) pairs, t = 0..T."""

    scheduling: np.ndarray  # (T+1, D)
    inputs: np.ndarray  # (T+1, m)

    def __post_init__(self):
        sched = np.array(self.scheduling, dtype=float)
        u = np.array(self.inputs, dtype=float)
        if sched.ndim != 2 or u.ndim != 2:
            raise DimensionMismatch(
                f"scheduling and inputs must be 2-d (steps x dim); got "
                f"ndim {sched.ndim} and {u.ndim}"
            )
        if sched.shape[0] != u.shape[0]:
            raise DimensionMismatch(
                f"scheduling has {sched.shape[0]} steps but inputs has {u.shape[0]}"
            )
        if sched.shape[0] < 1:
            raise DimensionMismatch("an input sequence must have at least one step")
        if not (np.isfinite(sched).all() and np.isfinite(u).all()):
            raise NonFiniteEntry("input sequence contains NaN or Inf entries")
        sched.flags.writeable = u.flags.writeable = False
        object.__setattr__(self, "scheduling", sched)
        object.__setattr__(self, "inputs", u)

    @classmethod
    def _unchecked(cls, scheduling: np.ndarray, inputs: np.ndarray) -> "InputSequence":
        """The run of two float arrays the package built well formed, without the checks.

        Only for arrays that are 2-d, of one length >= 1 and finite by
        construction, such as the zero-one unit probes of `markov`.
        """
        w = object.__new__(cls)
        object.__setattr__(w, "scheduling", scheduling)
        object.__setattr__(w, "inputs", inputs)
        return w

    @property
    def length(self) -> int:
        return self.scheduling.shape[0]

    @property
    def D(self) -> int:
        return self.scheduling.shape[1]

    @property
    def m(self) -> int:
        return self.inputs.shape[1]


# Entries of the per-step matrices `simulate` forms at once (2 MB of floats).
_BLOCK_ENTRIES = 1 << 18
# Runs shorter than this, or with more states than that, take one segment per
# block: below about 64 steps the transfers cost more Python steps than they
# save, and from about n = 24 on (0.7x at 300 to 8000 steps) the n^3 flops of
# a transfer step cost more than the Python step it saves (1.05x at n = 20).
_SHORTEST_SEGMENTED = 64
_WIDEST_SEGMENTED = 20
_NOT_FINITE = "trajectory is not finite (non-finite x0 or overflow)"


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """States x(0)..x(T+1) and outputs y(0)..y(T) of one run."""

    states: np.ndarray  # (T+2, n)
    outputs: np.ndarray  # (T+1, p)

    @property
    def final_output(self) -> np.ndarray:
        return self.outputs[-1]


def _scan(A_steps, X, Y_steps, column=None):
    """The step kernel: advance R runs side by side through consecutive steps.

    Each step pairs the runs' matrices A with their next states Y, which hold
    the step's input terms on entry: Y += A @ X, and Y is the X of the next
    step.  A run's state is a vector, an n x 1 column or an n x (n+1) block;
    a single run takes 2-d matrices and 1-d rows.  With `column` given, the
    states are blocks whose input term enters that column alone, and Y holds
    only the term: the next X is A @ X, with Y added into its columns from
    `column` on.  Returns the last X.
    """
    if column is not None:
        for A, Y in zip(A_steps, Y_steps):
            X = A @ X
            X[..., column:] += Y
        return X
    for A, Y in zip(A_steps, Y_steps):
        Y += A @ X
        X = Y
    return X


def _segment_length(steps: int, n: int) -> int:
    """Steps per segment of a block: about sqrt(steps / 2), or all of them."""
    if steps < _SHORTEST_SEGMENTED or n > _WIDEST_SEGMENTED:
        return steps
    return math.isqrt(steps // 2)


def _advance_in_segments(At: np.ndarray, rows: np.ndarray, seg: int) -> None:
    """Fill the states of a block of L > seg steps with step matrices At, in place.

    On entry rows[0] is the block's entry state and rows[t+1] the input term
    of step t; on return rows[t+1] is the state after step t.  A head of
    L mod seg steps runs first, as one run, and the rest is R segments of seg
    steps, advanced by `_scan` in three passes over the segment grid:

    1. the transfers [Phi_c | r_c] of segments 0..R-2 from [I | 0], as one
       batch (the input term is added into the last column only);
    2. the stitch x_{c+1} = Phi_c x_c + r_c of the segment starts, as a batch
       of one;
    3. every segment's states from its stitched start, as one batch; the
       row of each start keeps the state the previous segment's last step
       wrote there, equal to the stitched start up to round-off.

    If a stitched start is not finite (a transfer or the stitch overflowed),
    the segments run again as one run from the head's end.
    """
    L, n = At.shape[:2]
    head, R = L % seg, L // seg
    _scan(At[:head], rows[0], rows[1 : head + 1])
    At, rows = At[head:], rows[head:]
    S = rows[:, :, None]
    A_grid = At.reshape(R, seg, n, n).swapaxes(0, 1)  # A_grid[j, c]: step j of segment c
    Y_grid = S[1:].reshape(R, seg, n, 1).swapaxes(0, 1)
    M = np.zeros((R - 1, n, n + 1))
    M[:, :, :n] = np.eye(n)
    M = _scan(A_grid[:, :-1], M, Y_grid[:, :-1], column=n)
    starts = np.empty((R, n, 1))
    starts[0] = S[0]
    starts[1:] = M[:, :, n:]
    _scan(M[:, :, :n], starts[0], starts[1:])
    if not np.isfinite(starts).all():
        _scan(At, rows[0], rows[1:])
        return
    _scan(A_grid, starts, Y_grid)


def _trajectory(sys: ALPVSystem, states: np.ndarray, sched: np.ndarray,
                inputs: np.ndarray) -> np.ndarray:
    """Take runs through steps 0..T-1 from states[0]; return their outputs y(0)..y(T).

    One run passes sched (T+1, D), inputs (T+1, m) and states (T+2, n) and
    gets outputs (T+1, p).  R runs of one length pass (T+1, R, D), (T+1, R, m)
    and (T+2, R, n), get (T+1, R, p), and advance side by side, one stacked
    product per step.  On return states[t] = x(t) for t <= T, and states[T+1]
    holds only the input term B(p(T)) u(T) of the step after T, which is not
    taken.  The scheduling contractions are taken outside the step loop: the
    input terms B(p(t)) u(t) of all rows go to states[1:] from one matrix
    product, the matrices A(p(t)) of a block of steps come from one product
    with the flattened A stack, and every output from one product with the C
    stack.  Blocks are bounded so that their matrices hold about
    `_BLOCK_ENTRIES` numbers.  A block of one run with at least 64 steps and
    at most 20 states advances in segments (`_advance_in_segments`); every
    other block advances one product per step through `_scan`.  It raises
    NonFiniteEntry unless every state x(0..T) and every output is finite.
    """
    D, p, n = sys.C.shape
    m = sys.m
    runs = sched.shape[1:-1]  # () for one run, (R,) for R runs
    with np.errstate(over="ignore", invalid="ignore"):
        # states[t+1] starts as B(p(t)) u(t) = (p(t) (x) u(t)) [B_1 ... B_D]^T ...
        pu = np.einsum("...q,...j->...qj", sched, inputs).reshape(-1, D * m)
        states[1:] = (pu @ sys.B.transpose(0, 2, 1).reshape(D * m, n)).reshape(states[1:].shape)
        # ... and step t adds A(p(t)) x(t).
        A_flat = sys.A.reshape(D, n * n)
        steps = len(sched) - 1
        block = max(1, _BLOCK_ENTRIES // max(1, n * n * math.prod(runs)))
        for start in range(0, steps, block):
            stop = min(start + block, steps)
            At = (sched[start:stop].reshape(-1, D) @ A_flat).reshape(stop - start, *runs, n, n)
            if runs:
                _scan(At, states[start][..., None], states[start + 1 : stop + 1][..., None])
                continue
            seg = _segment_length(stop - start, n)
            if seg < stop - start:
                _advance_in_segments(At, states[start : stop + 1], seg)
            else:
                _scan(At, states[start], states[start + 1 : stop + 1])
        # y(t) = sum_q p_q(t) C_q x(t), with every C_q x(t) from one product
        Cx = states[:-1].reshape(len(pu), n) @ sys.C.transpose(2, 0, 1).reshape(n, D * p)
        outputs = np.einsum("...q,...qi->...i", sched, Cx.reshape(*sched.shape, p))
    if not (np.isfinite(states[:-1]).all() and np.isfinite(outputs).all()):
        raise NonFiniteEntry(_NOT_FINITE)
    return outputs


def _run(sys: ALPVSystem, x0, w: InputSequence):
    """States (T+2, n) and outputs (T+1, p) of `_trajectory` on the run w from x0, checked."""
    D, n, m = sys.B.shape
    if w.D != D:
        raise DimensionMismatch(f"sequence has D={w.D}, system has D={D}")
    if w.m != m:
        raise DimensionMismatch(f"sequence has m={w.m}, system has m={m}")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != n:
        raise DimensionMismatch(f"initial state has dim {x.shape[0]}, system has n={n}")
    states = np.empty((w.length + 1, n))
    states[0] = x
    return states, _trajectory(sys, states, w.scheduling, w.inputs)


def simulate(sys: ALPVSystem, x0, w: InputSequence) -> SimulationResult:
    """Run the state/output recursion of the system on a generalized input.

    The returned trajectory satisfies states[0] = x0 and, for each step t,

        outputs[t]   = (sum_q p_q(t) C_q) states[t]
        states[t+1]  = (sum_q p_q(t) A_q) states[t] + (sum_q p_q(t) B_q) u(t)

    so the input at the final time never affects the outputs.  A non-finite
    state or output, from x0 or from overflow, raises NonFiniteEntry, exactly
    when the step-by-step recursion is not finite.

    A run is `_trajectory`'s x(0..T) and y(0..T), the numbers every final
    output of `system_oracle` and `switched_output` is read from, plus the
    step after T.

    The recursion is affine in the state: across steps s..t it is
    x(t) = Phi x(s) + r with the transfer Phi = A(p(t-1)) ... A(p(s)).  A block
    of L >= 64 steps and n <= 20 states is therefore cut into segments of
    about sqrt(L / 2) steps that advance side by side
    (`_advance_in_segments`): the segments' transfers [Phi | r] as one
    batch, the stitch of their starts through those transfers, then every
    segment's states from its start as one batch, so a block costs about
    3 sqrt(L) Python-level steps instead of L.  Such runs agree with the
    step-by-step recursion to round-off, not bit for bit.  A shorter run, or
    a wider state, is one segment, advanced one matrix-vector product per
    step by the same kernel (`_scan`), bit for bit as that recursion.  The
    memory is O(block n^2 + T D max(m, p) + T n), never O(T n^2): the
    transfers take O((L / seg) n^2).
    """
    D, n = sys.D, sys.n
    states, outputs = _run(sys, x0, w)
    # The step after T: states[-1] already holds its input term.
    with np.errstate(over="ignore", invalid="ignore"):
        states[-1] += (w.scheduling[-1] @ sys.A.reshape(D, n * n)).reshape(n, n) @ states[-2]
    if not np.isfinite(states[-1]).all():
        raise NonFiniteEntry(_NOT_FINITE)
    return SimulationResult(states=states, outputs=outputs)


def convolution_output(table, w: InputSequence) -> np.ndarray:
    """Evaluate the input-output map from its kernel table alone.

    The final output of a run w = (p(0),u(0))..(p(t),u(t)) expands as

        f(w) = sum_{k=0}^{t-1} [ sum_{|v| = t-k+1} S(v) * pbar_{k:t}^v ] u(k)

    where pbar_{k:t}^v is the product p_{v_0}(k) p_{v_1}(k+1) ... p_{v_{t-k}}(t).
    Those products, over the words of one length in enumeration order, are
    the flattened outer product p(k) x ... x p(t), so each lag is one
    contraction with `table.level(t-k+1)`.  This brute-force word sum is the
    route the realization tests are checked against.  For a length-1 run the
    sum is empty and the result is the zero vector.  An output that
    overflows raises NonFiniteEntry.
    """
    D, m, p = table.D, table.m, table.p
    if w.D != D:
        raise DimensionMismatch(f"sequence has D={w.D}, table has D={D}")
    if w.m != m:
        raise DimensionMismatch(f"sequence has m={w.m}, table has m={m}")
    if w.length > table.horizon:
        raise HorizonExceeded(
            f"sequence length {w.length} exceeds table horizon {table.horizon}"
        )
    sched = w.scheduling
    t = w.length - 1
    y = np.zeros(p)
    pbar = sched[t]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(t - 1, -1, -1):
            pbar = np.outer(sched[k], pbar).reshape(-1)
            y += np.tensordot(pbar, table.level(t - k + 1), axes=1) @ w.inputs[k]
    if not np.isfinite(y).all():
        raise NonFiniteEntry("convolution output is not finite (overflow)")
    return y
