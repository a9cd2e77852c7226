"""Shared constructions for the test suite: random systems, paddings, runs."""

import csv
import json

import numpy as np

from alpvreal import (
    ALPVSystem,
    EquationCheckReport,
    InputSequence,
    SchedulingPoly,
    SimulationResult,
    analyze,
    hankel_singular_values,
    pseudoinverse,
    rank_factorize,
    simulate,
)
from alpvreal import words
from alpvreal.markov import stacked_input_matrix, stacked_output_matrix, word_products


def random_system(rng, n=None, D=None, m=None, p=None) -> ALPVSystem:
    """Random family with entries uniform on (-1, 1)."""
    D = int(rng.integers(1, 4)) if D is None else D
    n = int(rng.integers(1, 5)) if n is None else n
    m = int(rng.integers(1, 3)) if m is None else m
    p = int(rng.integers(1, 3)) if p is None else p
    return ALPVSystem(
        A=[rng.uniform(-1, 1, (n, n)) for _ in range(D)],
        B=[rng.uniform(-1, 1, (n, m)) for _ in range(D)],
        C=[rng.uniform(-1, 1, (p, n)) for _ in range(D)],
    )


def contractive(sys: ALPVSystem) -> ALPVSystem:
    """`sys` with every A_q divided by D n, so that no A(p), |p_q| <= 1, expands."""
    return ALPVSystem(A=sys.A / (sys.D * max(sys.n, 1)), B=sys.B, C=sys.C)


def random_minimal_system(rng, n=None, D=None, m=None, p=None, sv_gap=1e-4) -> ALPVSystem:
    """Random minimal system whose Hankel spectrum is safely away from the cutoff.

    Rejection sampling: draws are discarded unless the analysis flags are
    minimal and sigma_n / sigma_1 of H_{n-1,n} exceeds sv_gap, which keeps
    every rank decision in the suite far from the tolerance boundary.
    """
    for _ in range(500):
        sys = random_system(rng, n=n, D=D, m=m, p=p)
        if not analyze(sys).minimal:
            continue
        s = hankel_singular_values(sys, sys.n - 1, sys.n)
        if len(s) >= sys.n and s[sys.n - 1] / s[0] > sv_gap:
            return sys
    raise RuntimeError("could not draw a well-conditioned minimal system")


def random_run(rng, D, m, length) -> InputSequence:
    return InputSequence(
        scheduling=rng.uniform(-1, 1, (length, D)),
        inputs=rng.uniform(-1, 1, (length, m)),
    )


def reference_simulate(sys: ALPVSystem, x0, w: InputSequence) -> SimulationResult:
    """The per-step recursion that `simulate` must match: three contractions per step.

    Kept as the test reference; it checks no dimensions and no finiteness.
    """
    x = np.asarray(x0, dtype=float).reshape(-1)
    states = np.empty((w.length + 1, sys.n))
    outputs = np.empty((w.length, sys.p))
    states[0] = x
    for t in range(w.length):
        pt = w.scheduling[t]
        outputs[t] = np.tensordot(pt, sys.C, axes=1) @ x
        x = np.tensordot(pt, sys.A, axes=1) @ x + np.tensordot(pt, sys.B, axes=1) @ w.inputs[t]
        states[t + 1] = x
    return SimulationResult(states=states, outputs=outputs)


def unit_schedule(modes, D: int) -> np.ndarray:
    """The scheduling rows e_{q_0}, ..., e_{q_t} of a mode word over 1..D, set one by one.

    The reference for the rows `SwitchedInput` gathers; the word is checked by
    `words.check_word`.
    """
    modes = words.check_word(modes, D)
    sched = np.zeros((len(modes), D))
    for t, q in enumerate(modes):
        sched[t, q - 1] = 1.0
    return sched


def reference_residual(eq, w: InputSequence, y) -> float:
    """The equation's left-hand side at the last time t of the run w with outputs y (t+1,).

    Kept as the test reference for `ioeq._residual`: one scalar at a time,
    the terms added in the order Q_0..Q_n, then L_{i,l} row by row; it checks
    nothing.
    """
    t = w.length - 1
    values = {(i, j): w.scheduling[t - i, j - 1]
              for i in range(eq.order + 1) for j in range(1, eq.D + 1)}

    def evaluate(poly):
        total = 0.0
        for key, coeff in poly.monomials.items():
            term = coeff
            for var, e in key:
                term *= values[var] ** e
            total += term
        return total

    total = 0.0
    for i, poly in enumerate(eq.output_coeffs):
        total += evaluate(poly) * y[t - i]
    for i in range(1, eq.order + 1):
        for l in range(1, eq.m + 1):
            total += evaluate(eq.input_coeffs[i - 1][l - 1]) * w.inputs[t - i, l - 1]
    return total


def reference_check_equation(eq, sys: ALPVSystem, trials=100, seed=42, tol=1e-10):
    """`check_equation` one trial at a time: draw a run, simulate it, take its residual.

    The trials come from the same rng stream in the same order (length,
    scheduling, inputs); the residual is `reference_residual`'s.  It checks
    none of the arguments.
    """
    rng = np.random.default_rng(seed)
    max_res = max_y = 0.0
    for _ in range(trials):
        length = int(rng.integers(eq.order + 2, eq.order + 7))
        w = InputSequence(
            scheduling=rng.uniform(-1.0, 1.0, (length, sys.D)),
            inputs=rng.uniform(-1.0, 1.0, (length, sys.m)),
        )
        out = simulate(sys, np.zeros(sys.n), w).outputs[:, 0]
        max_res = max(max_res, abs(float(reference_residual(eq, w, out))))
        max_y = max(max_y, float(np.max(np.abs(out))))
    max_res /= eq.max_abs_coeff()
    return EquationCheckReport(satisfied=bool(max_res <= tol * (1.0 + max_y)), max_residual=max_res)


def input_from_pairs(pairs) -> InputSequence:
    """The run with one (p_vector, u_vector) pair per time step."""
    sched = np.array([np.atleast_1d(np.asarray(p, dtype=float)) for p, _ in pairs])
    u = np.array([np.atleast_1d(np.asarray(v, dtype=float)) for _, v in pairs])
    return InputSequence(scheduling=sched, inputs=u)


def scaled_poly(poly: SchedulingPoly, factor: float) -> SchedulingPoly:
    """`poly` with every coefficient multiplied by `factor`."""
    return SchedulingPoly(
        order=poly.order, D=poly.D, monomials={k: c * factor for k, c in poly.monomials.items()}
    )


def pad_unreachable(sys: ALPVSystem, k, rng) -> ALPVSystem:
    """Append k states that no input excites (B rows zero, lower-left A zero)."""
    n = sys.n
    A, B, C = [], [], []
    for q in range(sys.D):
        X = rng.uniform(-1, 1, (n, k))
        Z = rng.uniform(-1, 1, (k, k))
        A.append(np.block([[sys.A[q], X], [np.zeros((k, n)), Z]]))
        B.append(np.vstack([sys.B[q], np.zeros((k, sys.m))]))
        C.append(np.hstack([sys.C[q], rng.uniform(-1, 1, (sys.p, k))]))
    return ALPVSystem(A=A, B=B, C=C)


def pad_unobservable(sys: ALPVSystem, k, rng) -> ALPVSystem:
    """Append k states that no output sees (C columns zero, upper-right A zero)."""
    n = sys.n
    A, B, C = [], [], []
    for q in range(sys.D):
        Y = rng.uniform(-1, 1, (k, n))
        Z = rng.uniform(-1, 1, (k, k))
        A.append(np.block([[sys.A[q], np.zeros((n, k))], [Y, Z]]))
        B.append(np.vstack([sys.B[q], rng.uniform(-1, 1, (k, sys.m))]))
        C.append(np.hstack([sys.C[q], np.zeros((sys.p, k))]))
    return ALPVSystem(A=A, B=B, C=C)


def transform_system(sys: ALPVSystem, T) -> ALPVSystem:
    """The isomorphic copy (T A_q T^-1, T B_q, C_q T^-1)."""
    Tinv = np.linalg.inv(T)
    return ALPVSystem(
        A=[T @ Aq @ Tinv for Aq in sys.A],
        B=[T @ Bq for Bq in sys.B],
        C=[Cq @ Tinv for Cq in sys.C],
    )


def reference_dumps_json(obj, indent: int = 0) -> str:
    """The recursive JSON emitter that `fileio.dumps_json` must match byte for byte.

    Kept as the test reference; its floats are `fileio.format_float`'s text.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {reference_dumps_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        if all(isinstance(x, (bool, int, float, str, np.integer, np.floating)) for x in obj):
            return "[" + ", ".join(reference_dumps_json(x) for x in obj) + "]"
        inner = ",\n".join(pad + "  " + reference_dumps_json(x, indent + 1) for x in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return "%.17g" % float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def table_to_dict(table) -> dict:
    """The JSON object of a Markov table: one {"word", "S"} dict per entry, in enumeration order.

    `reference_dumps_json` of it, plus a newline, is the text `fileio.save_table` must write.
    """
    labels = words.labels_up_to(table.horizon, table.D)[words.word_count(1, table.D):]
    return {
        "schema": "alpv-1",
        "D": table.D,
        "m": table.m,
        "p": table.p,
        "horizon": table.horizon,
        "entries": [{"word": v, "S": s} for v, s in zip(labels, table.coeffs.tolist())],
    }


def reference_load_matrix_csv(path) -> np.ndarray:
    """The `csv.reader` matrix reader that `fileio.load_matrix_csv` must match bit for bit.

    Kept as the test reference: one `float()` per cell, blank lines skipped.
    """
    with open(path, newline="") as handle:
        data = np.array([[float(x) for x in row] for row in csv.reader(handle) if row])
    if not len(data):
        raise ValueError(f"{path}: empty matrix file")
    return data


def reversal_positions(L: int, D: int) -> np.ndarray:
    """0-based position of the reversed word, for each word with |v| <= L in order."""
    levels = [np.arange(D**k).reshape((D,) * k).T.reshape(-1) for k in range(L + 1)]
    return np.concatenate([words.word_count(k - 1, D) + r for k, r in enumerate(levels)])


def reachability_factor(sys: ALPVSystem, depth: int) -> np.ndarray:
    """n x N(depth)*mD matrix whose block column for word v is A_{v_k} ... A_{v_1} Btilde.

    Kept as the test reference for `build_hankel(system)` and the reachability root.
    """
    P = word_products(sys.A, stacked_input_matrix(sys)[None], depth)
    return P.transpose(1, 0, 2).reshape(sys.n, P.shape[0] * P.shape[2])


def observability_factor(sys: ALPVSystem, depth: int) -> np.ndarray:
    """N(depth)*pD x n matrix whose block row for word v is Ctilde A_{v_k} ... A_{v_1}.

    Transposed, that block is A_{v_1}^T ... A_{v_k}^T Ctilde^T: the dual family's
    product for the reversed word, which `word_products` gives from the transposed stacks.
    Kept as the test reference for `build_hankel(system)` and the observability root.
    """
    P = word_products(sys.A.transpose(0, 2, 1), stacked_output_matrix(sys).T[None], depth)
    P = P[reversal_positions(depth, sys.D)].transpose(0, 2, 1)
    return P.reshape(P.shape[0] * P.shape[1], sys.n)


def dense_kalman_ho(H) -> ALPVSystem:
    """Kalman-Ho from the whole window H_{L,L+1}: the dense reference for `kalman_ho`.

    Rank-factorizes all of `H.data` = O R with one dense SVD, reads B and C
    off the first block column of R and block row of O, and solves each A_q
    from the block columns of R for every word |v| <= L and those of v q.
    """
    D, m, p, mD = H.D, H.m, H.p, H.m * H.D
    O, R, n = rank_factorize(H.data)
    k = words.word_count(H.L, D)
    R3 = R.reshape(n, R.shape[1] // mD, mD)
    shifted = R3[:, words.shift_positions(H.L, D)]  # n x D x k x mD: block (q, j) is v_j q
    Rbar = R3[:, :k].reshape(n, k * mD)
    A = shifted.transpose(1, 0, 2, 3).reshape(D, n, k * mD) @ pseudoinverse(Rbar)
    B = R[:, :mD].reshape(n, D, m).transpose(1, 0, 2)
    return ALPVSystem(A=A, B=B, C=O[: p * D].reshape(D, p, n))
