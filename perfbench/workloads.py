"""Benchmark ops on the package's public functions, and the check after each.

An op is everything a user of one workload waits for; its check runs
untimed right after it and raises `CheckFailed` when the output is wrong.
Tolerances are those pinned in the acceptance suite.  The reference
quantities the checks compare against (Markov deviations, isomorphism
residuals, simulated outputs) are computed here or in `inputs` with numpy,
never by the functions under test.
"""

from __future__ import annotations

import json
import os

import numpy as np

import alpvreal as lib
from alpvreal import cli

import inputs

MARKOV_TOL = 1e-8
ISO_TOL = 1e-7
SIM_TOL = 1e-9


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def as_system(arrays):
    A, B, C = arrays
    return lib.ALPVSystem(A=list(A), B=list(B), C=list(C))


def stacked(sys):
    return np.stack(sys.A), np.stack(sys.B), np.stack(sys.C)


# -- reference checks -----------------------------------------------------------

def largest_markov(A, Bt, Ct, max_len):
    """Largest entry |Ct_q A_v Bt_r| over all words v with |v| <= max_len.

    The block Markov parameters of length k are products of a left factor
    for the first k//2 letters and a right factor for the rest, so no level
    larger than D^k blocks is ever held.
    """
    right = [Bt[None]]
    left = [Ct[None]]
    for _ in range((max_len + 1) // 2):
        right.append(np.einsum("qij,wjk->wqik", A, right[-1]).reshape(-1, *Bt.shape))
        left.append(np.einsum("wij,qjk->wqik", left[-1], A).reshape(-1, *Ct.shape))
    top = 0.0
    for k in range(max_len + 1):
        blocks = np.einsum("xrn,ync->xyrc", left[k // 2], right[k - k // 2])
        top = max(top, float(np.max(np.abs(blocks))))
    return top


def markov_scale(sys, max_len):
    """Largest entrywise |M(v)| over all words with |v| <= max_len."""
    A, B, C = stacked(sys)
    return largest_markov(A, np.hstack(list(B)), np.vstack(list(C)), max_len)


def markov_deviation(sys1, sys2, max_len):
    """Largest entrywise |M1(v) - M2(v)| over all words with |v| <= max_len.

    Both maps are read off one difference system: block-diagonal A_q,
    output [C1_q, -C2_q].
    """
    A1, B1, C1 = stacked(sys1)
    A2, B2, C2 = stacked(sys2)
    D, n1, n2 = A1.shape[0], A1.shape[1], A2.shape[1]
    A = np.zeros((D, n1 + n2, n1 + n2))
    A[:, :n1, :n1] = A1
    A[:, n1:, n1:] = A2
    Bt = np.vstack([np.hstack(list(B1)), np.hstack(list(B2))])
    Ct = np.hstack([np.vstack(list(C1)), -np.vstack(list(C2))])
    return largest_markov(A, Bt, Ct, max_len)


def iso_residual(sys1, sys2, T):
    """Worst relative defect of A2_q T = T A1_q, B2_q = T B1_q, C2_q T = C1_q."""
    worst = 0.0
    for q in range(sys1.D):
        for lhs, rhs in (
            (sys2.A[q] @ T, T @ sys1.A[q]),
            (sys2.B[q], T @ sys1.B[q]),
            (sys2.C[q] @ T, sys1.C[q]),
        ):
            scale = 1.0 + np.linalg.norm(lhs) + np.linalg.norm(rhs)
            worst = max(worst, float(np.linalg.norm(lhs - rhs) / scale))
    return worst


def check_markov(source, realized, n):
    """Order n, and block Markov parameters within MARKOV_TOL up to length 2n.

    The tolerance is relative to the largest Markov parameter of the source
    once that exceeds 1.  Parameters of random systems grow geometrically
    with word length (to about 3.5e4 for some D=3 cores of n=6 at length
    12), and a float64 realization of such a map is exact only to about
    1e-12 of its largest entry, so a purely absolute 1e-8 would flag
    round-off; a wrong realization is off by O(1) of that entry.
    """
    expect(realized.n == n, f"realized order {realized.n}, expected {n}")
    dev = markov_deviation(source, realized, 2 * n)
    scale = max(1.0, markov_scale(source, 2 * n))
    expect(dev <= MARKOV_TOL * scale,
           f"Markov deviation {dev:.2e} up to length {2 * n} (largest parameter {scale:.3g})")


def check_iso(sys1, sys2, T):
    res = iso_residual(sys1, sys2, T)
    expect(res < ISO_TOL, f"isomorphism residual {res:.2e}")


# -- blackbox -------------------------------------------------------------------

def wrap_probe(probe):
    """The probe callback as black-box ops pass it on; the traced run rebinds this."""
    return probe


class Identify:
    """Probe a system through a callback, then build H_{n-1,n}, realize, and match."""

    def __init__(self, item):
        self.sys = as_system(item["system"])

    def run(self):
        sys = self.sys
        inner = lib.system_oracle(sys)

        def probe(w):
            return inner(w)

        oracle = lib.IOOracle(fn=wrap_probe(probe), D=sys.D, m=sys.m, p=sys.p)
        realized = lib.kalman_ho(lib.build_hankel(oracle, sys.n - 1, sys.n))
        return realized, lib.find_isomorphism(sys, realized)

    def check(self, result):
        realized, T = result
        check_markov(self.sys, realized, self.sys.n)
        check_iso(self.sys, realized, T)


def _linear_form(coeffs, shift):
    return [(float(c), {(shift, q + 1): 1}) for q, c in enumerate(coeffs)]


def _product(*forms):
    terms = [(1.0, {})]
    for form in forms:
        grown = []
        for c1, e1 in terms:
            for c2, e2 in form:
                exps = dict(e1)
                for var, e in e2.items():
                    exps[var] = exps.get(var, 0) + e
                grown.append((c1 * c2, exps))
        terms = grown
    return terms


def scalar_equation(a, b, c, q1_scale=1.0):
    """The order-1 equation of the scalar-state family (a_q, b_q, c_q).

    With a(i) = sum_q a_q p_q(t-i) and likewise b, c, the recursion gives
    c(1) y(t) - c(0) a(1) y(t-1) - c(0) c(1) b(1) u(t-1) = 0.  Scaling the
    Y_1 coefficient by anything but 1 gives an equation the map violates.
    """
    D = len(a)
    poly = lambda terms: lib.SchedulingPoly.from_terms(terms, 1, D)
    c0, c1 = _linear_form(c, 0), _linear_form(c, 1)
    q0 = poly(c1)
    q1 = poly([(-q1_scale * k, e) for k, e in _product(c0, _linear_form(a, 1))])
    l11 = poly([(-k, e) for k, e in _product(c0, c1, _linear_form(b, 1))])
    return lib.AffineIOEquation(order=1, m=1, D=D, output_coeffs=(q0, q1), input_coeffs=((l11,),))


class Equation:
    """One randomized `check_equation` call on an exact or a perturbed equation."""

    def __init__(self, item):
        a, b, c = item["scalar"]
        self.sys = lib.ALPVSystem(
            A=[[[x]] for x in a], B=[[[x]] for x in b], C=[[[x]] for x in c]
        )
        self.exact = item["exact"]
        self.eq = scalar_equation(a, b, c, 1.0 if self.exact else 1.2)
        self.seed = item["check_seed"]

    def run(self):
        return lib.check_equation(self.eq, self.sys, trials=100, seed=self.seed, tol=1e-10)

    def check(self, report):
        expect(
            report.satisfied == self.exact,
            f"{'exact' if self.exact else 'perturbed'} equation: satisfied={report.satisfied}",
        )


# -- pipeline -------------------------------------------------------------------

def write_system(path, arrays):
    A, B, C = arrays
    D, n, m = B.shape
    data = {
        "schema": "alpv-1", "D": D, "n": n, "m": m, "p": C.shape[1],
        "A": A.tolist(), "B": B.tolist(), "C": C.tolist(),
    }
    with open(path, "w") as handle:
        json.dump(data, handle)


def read_system(path):
    with open(path) as handle:
        data = json.load(handle)
    return lib.ALPVSystem(A=data["A"], B=data["B"], C=data["C"])


class Pipeline:
    """`alpv markov | hankel --from-table | realize --from-hankel | analyze`, in-process."""

    def __init__(self, item, workdir):
        self.sys = as_system(item["system"])
        self.path = {name: os.path.join(workdir, name) for name in (
            "system.json", "table.json", "H.csv", "realized.json", "report.json")}
        write_system(self.path["system.json"], item["system"])

    def run(self):
        n, path = self.sys.n, self.path
        return [
            cli.run(["markov", path["system.json"], "--horizon", str(2 * n + 1),
                     "-o", path["table.json"]]),
            cli.run(["hankel", "--from-table", path["table.json"], "--L", str(n - 1),
                     "--M", str(n), "-o", path["H.csv"]]),
            cli.run(["realize", "--from-hankel", path["H.csv"], "-o", path["realized.json"]]),
            cli.run(["analyze", path["realized.json"], "-o", path["report.json"]]),
        ]

    def check(self, codes):
        expect(codes == [0, 0, 0, 0], f"exit codes {codes}")
        check_markov(self.sys, read_system(self.path["realized.json"]), self.sys.n)
        with open(self.path["report.json"]) as handle:
            expect(json.load(handle)["minimal"] is True, "report does not say minimal")


# -- reduce ---------------------------------------------------------------------

class Reduce:
    """analyze -> minimize -> H_{r-1,r} of the padded system -> kalman_ho -> match."""

    def __init__(self, item):
        self.core = as_system(item["core"])
        self.sys = as_system(item["system"])
        self.k_reach, self.k_obs = item["planted"]

    def run(self):
        report = lib.analyze(self.sys)
        small = lib.minimize(self.sys)
        r = small.n
        realized = lib.kalman_ho(lib.build_hankel(self.sys, r - 1, r))
        return report, small, realized, lib.find_isomorphism(small, realized)

    def check(self, result):
        report, small, realized, T = result
        N = self.sys.n
        expect(
            (report.reach_rank, report.obs_rank, report.reachable, report.observable,
             report.minimal)
            == (N - self.k_reach, N - self.k_obs, self.k_reach == 0, self.k_obs == 0, False),
            f"analysis flags {report} do not match the planted defects",
        )
        expect(small.n == self.core.n, f"minimized order {small.n}, expected {self.core.n}")
        check_markov(self.core, realized, self.core.n)
        check_iso(small, realized, T)


# -- simulate -------------------------------------------------------------------

class Simulate:
    """One long run of `simulate`, or one long mode sequence of `switched_output`."""

    def __init__(self, item):
        self.item = item
        self.reference = None
        self.sys = as_system(item["system"])
        if item["kind"] == "switched":
            self.switched = lib.SwitchedInput(
                D=self.sys.D, modes=tuple(int(q) for q in item["modes"]), inputs=item["inputs"]
            )
        else:
            self.switched = None
            self.x0 = item["x0"]
            self.run_input = lib.InputSequence(scheduling=item["scheduling"], inputs=item["inputs"])

    def run(self):
        if self.switched is not None:
            return lib.switched_output(self.sys, self.switched)[None]
        return lib.simulate(self.sys, self.x0, self.run_input).outputs

    def check(self, y):
        if self.reference is None:
            item = self.item
            self.reference = inputs.reference_outputs(
                *item["system"], item["x0"], item["scheduling"], item["inputs"])
        ref = self.reference[-len(y):]
        expect(np.all(np.isfinite(y)), "non-finite output")
        err = np.abs(y - ref) / (1.0 + np.abs(ref))
        expect(float(np.max(err)) <= SIM_TOL, f"output deviation {float(np.max(err)):.2e}")


def prepare(items, workdir):
    """Library-side objects for each generated item, in round order."""
    ops = []
    for i, item in enumerate(items):
        kind = item["kind"]
        if kind == "identify":
            ops.append(Identify(item))
        elif kind == "equation":
            ops.append(Equation(item))
        elif kind == "pipeline":
            sub = os.path.join(workdir, f"op{i:02d}")
            os.makedirs(sub)
            ops.append(Pipeline(item, sub))
        elif kind == "reduce":
            ops.append(Reduce(item))
        else:
            ops.append(Simulate(item))
    return ops
