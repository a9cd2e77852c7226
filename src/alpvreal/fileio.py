"""File formats: JSON for structured objects, CSV for matrices and signals.

All JSON emitted here carries the schema tag "alpv-1" and every numeric
value is printed with 17 significant digits, so identical objects always
serialize to identical bytes.  Writers go through a temp-file rename, so a
crashed run never leaves a half-written file behind.

`FORMATS` describes each file format in one line; `alpv <subcommand> --help`
prints the lines of the files it reads and writes.  A report JSON is the
schema tag followed by the fields of the report dataclass.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import tempfile

import numpy as np

from . import words as _w
from .errors import InvalidWord, NonFiniteEntry
from .ioeq import AffineIOEquation, EquationCheckReport, SchedulingPoly
from .hankel import HankelBlockMatrix
from .markov import MarkovTable
from .model import ALPVSystem, InputSequence, validate
from .realize import AnalysisReport
from .switched import SwitchedInput

SCHEMA = "alpv-1"

FORMATS = {
    "system": 'system JSON: {"schema","D","n","m","p","A":[D][n][n],"B":[D][n][m],"C":[D][p][n]}',
    "signal": "signal CSV: header p_1..p_D,u_1..u_m, one row per time step",
    "table": 'markov JSON: {"schema","D","m","p","horizon","entries":[{"word","S":[p][m]},...]}',
    "hankel": "hankel CSV: dense matrix; sidecar <path>.meta.json holds {L,M,D,m,p}",
    "equation": (
        'equation JSON: {"schema","n","m","D","Q":[poly],"L":[[poly]]}, '
        'poly = [{"coeff": real, "exps": {"P_<i>_<j>": exponent}}]'
    ),
    "switched": "switched CSV: header mode,u_1..u_m, one row per time step",
    "outputs": "outputs CSV: header y_1..y_p, one row per time step",
    "iso": "output: the transformation as CSV on stdout",
}


def format_float(x) -> str:
    """One float as text, 17 significant digits."""
    return "%.17g" % float(x)


def dumps_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {dumps_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        if all(isinstance(x, (bool, int, float, str, np.integer, np.floating)) for x in obj):
            return "[" + ", ".join(dumps_json(x) for x in obj) + "]"
        inner = ",\n".join(pad + "  " + dumps_json(x, indent + 1) for x in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_text(path, text: str) -> None:
    """Atomic file write: temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _floats(rows) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in rows])


def _sizes(data: dict, *names) -> list:
    """The integer sizes `names` declared in a JSON object; only n, L and M may be 0."""
    sizes = [data[k] for k in names]
    for k, size in zip(names, sizes):
        if isinstance(size, bool) or not isinstance(size, int):
            raise ValueError(f"{k} must be an integer, got {size!r}")
        least = 0 if k in ("n", "L", "M") else 1
        if size < least:
            raise ValueError(f"{k} must be >= {least}, got {size}")
    return sizes


def matrix_csv(matrix) -> str:
    """A matrix as CSV text: one line per row, 17-significant-digit entries."""
    out = io.StringIO()
    for row in np.atleast_2d(matrix):
        out.write(",".join(format_float(x) for x in row))
        out.write("\n")
    return out.getvalue()


def load_matrix_csv(path) -> np.ndarray:
    with open(path, newline="") as handle:
        data = _floats(row for row in csv.reader(handle) if row)
    if not len(data):
        raise ValueError(f"{path}: empty matrix file")
    return data


def _labels(prefix: str, count: int) -> list:
    return [f"{prefix}_{i}" for i in range(1, count + 1)]


def _save_labelled(path, header, data) -> None:
    """Labelled CSV: a header line, then one line per row of `data`."""
    write_text(path, ",".join(header) + "\n" + matrix_csv(data))


def _load_labelled(path, kind: str, prefixes, lead=()):
    """Header-checked rows of a labelled CSV in format `kind`.

    The header must be the labels `lead` followed by ``<prefix>_1..<prefix>_k``
    for each prefix, every k at least 1, and every row must have one cell per
    label.  Returns the k of each prefix and the rows as text.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = [h.strip() for h in next(reader, [])]
        counts = [sum(h.startswith(prefix + "_") for h in header) for prefix in prefixes]
        expected = list(lead)
        for prefix, k in zip(prefixes, counts):
            expected += _labels(prefix, k)
        if min(counts) < 1 or header != expected:
            raise ValueError(f"{path}: expected {FORMATS[kind]}")
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: {kind} file has no data rows")
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: rows must have {len(header)} columns")
    return counts, rows


# -- systems -----------------------------------------------------------------

def system_to_dict(sys: ALPVSystem) -> dict:
    validate(sys)
    return {
        "schema": SCHEMA,
        "D": sys.D,
        "n": sys.n,
        "m": sys.m,
        "p": sys.p,
        "A": [M.tolist() for M in sys.A],
        "B": [M.tolist() for M in sys.B],
        "C": [M.tolist() for M in sys.C],
    }


def system_from_dict(data: dict) -> ALPVSystem:
    try:
        D, n, m, p = _sizes(data, "D", "n", "m", "p")
        A = [np.array(M, dtype=float).reshape(n, n) for M in data["A"]]
        B = [np.array(M, dtype=float).reshape(n, m) for M in data["B"]]
        C = [np.array(M, dtype=float).reshape(p, n) for M in data["C"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed system object: {exc}") from exc
    if len(A) != D or len(B) != D or len(C) != D:
        raise ValueError(f"expected {D} matrices per family")
    return validate(ALPVSystem(A=A, B=B, C=C))


def save_system(path, sys: ALPVSystem) -> None:
    write_text(path, dumps_json(system_to_dict(sys)) + "\n")


def load_system(path) -> ALPVSystem:
    with open(path) as handle:
        return system_from_dict(json.load(handle))


# -- Markov tables -----------------------------------------------------------

def table_to_dict(table: MarkovTable) -> dict:
    words = _w.words_up_to(table.horizon, table.D)[_w.word_count(1, table.D):]
    S = [s for k in range(2, table.horizon + 1) for s in table.level(k).tolist()]
    return {
        "schema": SCHEMA,
        "D": table.D,
        "m": table.m,
        "p": table.p,
        "horizon": table.horizon,
        "entries": [{"word": _w.word_to_str(v, table.D), "S": s} for v, s in zip(words, S)],
    }


def table_from_dict(data: dict) -> MarkovTable:
    try:
        D, m, p, horizon = _sizes(data, "D", "m", "p", "horizon")
        items = data["entries"]
        parsed = [_w.word_from_str(item["word"], D) for item in items]
        S = [np.array(item["S"], dtype=float).reshape(p, m) for item in items]
    except (AttributeError, KeyError, TypeError, ValueError, InvalidWord) as exc:
        raise ValueError(f"malformed Markov table: {exc}") from exc
    words = _w.words_up_to(horizon, D)[_w.word_count(1, D):]
    position = dict(zip(words, range(len(words))))
    rows = np.array([position.get(v, -1) for v in parsed], dtype=int)
    covered = np.unique(rows[rows >= 0]).size
    if len(items) != len(words) or covered != len(words):
        raise ValueError(
            f"table must cover each word of length 2..{horizon} once "
            f"({len(words)} entries), got {len(items)} covering {covered}"
        )
    coeffs = np.empty((len(words), p, m))
    coeffs[rows] = np.reshape(S, (-1, p, m))
    finite = np.isfinite(coeffs).all(axis=(1, 2))
    if not finite.all():
        raise NonFiniteEntry(f"S({_w.word_to_str(words[np.argmin(finite)], D)}) is not finite")
    return MarkovTable(D=D, m=m, p=p, horizon=horizon, coeffs=coeffs)


def save_table(path, table: MarkovTable) -> None:
    write_text(path, dumps_json(table_to_dict(table)) + "\n")


def load_table(path) -> MarkovTable:
    with open(path) as handle:
        return table_from_dict(json.load(handle))


# -- Hankel dumps ------------------------------------------------------------

def hankel_sidecar_path(path) -> str:
    return str(path) + ".meta.json"


def save_hankel(path, H: HankelBlockMatrix) -> None:
    write_text(path, matrix_csv(H.data))
    meta = {"schema": SCHEMA, "L": H.L, "M": H.M, "D": H.D, "m": H.m, "p": H.p}
    write_text(hankel_sidecar_path(path), dumps_json(meta) + "\n")


def load_hankel(path) -> HankelBlockMatrix:
    data = load_matrix_csv(path)
    with open(hankel_sidecar_path(path)) as handle:
        meta = json.load(handle)
    try:
        L, M, D, m, p = _sizes(meta, "L", "M", "D", "m", "p")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed Hankel sidecar: {exc}") from exc
    expected = (_w.word_count(L, D) * p * D, _w.word_count(M, D) * m * D)
    if data.shape != expected:
        raise ValueError(
            f"Hankel data is {data.shape} but the sidecar implies {expected}"
        )
    return HankelBlockMatrix(L=L, M=M, D=D, m=m, p=p, data=data)


# -- signals and outputs -----------------------------------------------------

def save_signal(path, w: InputSequence) -> None:
    header = _labels("p", w.D) + _labels("u", w.m)
    _save_labelled(path, header, np.hstack([w.scheduling, w.inputs]))


def load_signal(path) -> InputSequence:
    (D, _), rows = _load_labelled(path, "signal", ("p", "u"))
    data = _floats(rows)
    return InputSequence(scheduling=data[:, :D], inputs=data[:, D:])


def save_outputs(path, outputs) -> None:
    out = np.atleast_2d(np.asarray(outputs, dtype=float))
    _save_labelled(path, _labels("y", out.shape[1]), out)


def load_switched(path, D: int) -> SwitchedInput:
    _, rows = _load_labelled(path, "switched", ("u",), lead=("mode",))
    modes = tuple(int(row[0]) for row in rows)
    return SwitchedInput(D=D, modes=modes, inputs=_floats(row[1:] for row in rows))


def save_switched(path, sw: SwitchedInput) -> None:
    header = ["mode"] + _labels("u", sw.m)
    _save_labelled(path, header, np.column_stack([sw.modes, sw.inputs]))


# -- equations ---------------------------------------------------------------

def _poly_to_list(poly: SchedulingPoly) -> list:
    terms = []
    for key, coeff in sorted(poly.monomials.items()):
        exps = {f"P_{i}_{j}": e for (i, j), e in key}
        terms.append({"coeff": coeff, "exps": exps})
    return terms


def _poly_from_list(terms, order: int, D: int) -> SchedulingPoly:
    parsed = []
    for term in terms:
        exps = {}
        for name, e in term.get("exps", {}).items():
            parts = name.split("_")
            if len(parts) != 3 or parts[0] != "P":
                raise ValueError(f"bad variable name {name!r}, expected P_<i>_<j>")
            exps[(int(parts[1]), int(parts[2]))] = int(e)
        parsed.append((float(term["coeff"]), exps))
    return SchedulingPoly.from_terms(parsed, order=order, D=D)


def equation_to_dict(eq: AffineIOEquation) -> dict:
    return {
        "schema": SCHEMA,
        "n": eq.order,
        "m": eq.m,
        "D": eq.D,
        "Q": [_poly_to_list(p) for p in eq.output_coeffs],
        "L": [[_poly_to_list(p) for p in row] for row in eq.input_coeffs],
    }


def equation_from_dict(data: dict) -> AffineIOEquation:
    try:
        n, m, D = _sizes(data, "n", "m", "D")
        Q = [_poly_from_list(terms, n, D) for terms in data["Q"]]
        L = [[_poly_from_list(terms, n, D) for terms in row] for row in data["L"]]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed equation object: {exc}") from exc
    return AffineIOEquation(order=n, m=m, D=D, output_coeffs=Q, input_coeffs=L)


def save_equation(path, eq: AffineIOEquation) -> None:
    write_text(path, dumps_json(equation_to_dict(eq)) + "\n")


def load_equation(path) -> AffineIOEquation:
    with open(path) as handle:
        return equation_from_dict(json.load(handle))


# -- reports -----------------------------------------------------------------

def report_to_dict(report: AnalysisReport) -> dict:
    return {"schema": SCHEMA, **dataclasses.asdict(report)}


def check_report_to_dict(report: EquationCheckReport, trials: int, seed: int, tol: float) -> dict:
    fields = dataclasses.asdict(report)
    return {"schema": SCHEMA, **fields, "trials": trials, "seed": seed, "tol": tol}
