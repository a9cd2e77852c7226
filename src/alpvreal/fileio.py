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

import dataclasses
import json
import os
import tempfile

import numpy as np

from . import words as _w
from .errors import DimensionMismatch, InvalidWord
from .ioeq import AffineIOEquation, EquationCheckReport, SchedulingPoly
from .hankel import HankelBlockMatrix
from .markov import MarkovTable
from .model import ALPVSystem, InputSequence
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


_quote = json.encoder.encode_basestring_ascii

# The scalars a list may hold and still print on one line; the exact types among them,
# and the text of the commonest ones, are found by type() before any isinstance.
_INLINE = (bool, int, float, str, np.integer, np.floating)
_PLAIN = {bool, int, float, str}
_EXACT = {float: "%.17g".__mod__, int: str, str: _quote}


def _scalar(x):
    """JSON text of a scalar; TypeError for any other object."""
    if type(x) in _EXACT:
        return _EXACT[type(x)](x)
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format_float(x)
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _write(obj, pad: str, out: list) -> None:
    """Append the JSON text of `obj` to `out`; `pad` is a newline and the current indent."""
    t = type(obj)
    if t in _EXACT:
        out.append(_EXACT[t](obj))
    elif t is dict or t is not list and isinstance(obj, dict):
        inner, sep = pad + "  ", "{"
        for k, v in obj.items():
            out.append(sep + inner + _quote(str(k)) + ": ")
            _write(v, inner, out)
            sep = ","
        out.append(pad + "}" if obj else "{}")
    elif t is list or isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        if kinds <= _PLAIN or list not in kinds and all(isinstance(x, _INLINE) for x in obj):
            out.append("[" + ", ".join(map(_scalar, obj)) + "]")
            return
        inner, sep = pad + "  ", "["
        for x in obj:
            out.append(sep + inner)
            _write(x, inner, out)
            sep = ","
        out.append(pad + "]")
    else:
        out.append(_scalar(obj))


def dumps_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    out = []
    _write(obj, "\n", out)
    return "".join(out)


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


def _numbers(value, context: str = "") -> None:
    """ValueError, after `context`, naming the first entry of a nested array that is no number."""
    bad = [x for x in np.array(value, dtype=object).flat if type(x) not in (int, float)]
    if bad:
        raise ValueError(f"{context}expected JSON numbers, got {bad[0]!r}")


def _array(value, shape) -> np.ndarray:
    """A JSON array of numbers as floats, nested exactly as `shape`; an empty one only has to be empty.

    A string entry such as "0.5", which numpy would parse, a null, an array
    of booleans, or an entry beyond the float range raises ValueError.  A
    boolean among numbers passes here, as 0 or 1 (numpy converts it before
    any check sees it); `load_system` and `load_table` refuse it in a file.
    """
    a = np.array(value)
    if a.dtype.kind not in "iuf":  # strings, booleans, nulls, or integers beyond int64
        _numbers(value)
    try:
        a = a.astype(float, copy=False)
    except OverflowError as exc:
        raise ValueError(f"entry outside the float range: {exc}") from None
    if a.shape != shape and not a.size == 0 == np.prod(shape):
        raise ValueError(f"expected an array of shape {shape}, got {a.shape}")
    return a.reshape(shape)


def matrix_csv(matrix) -> str:
    """A matrix as CSV text: one line per row, 17-significant-digit entries."""
    rows = np.atleast_2d(matrix)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join([line % tuple(row) for row in rows.tolist()])


def _rows(path) -> list:
    """The lines of a CSV file split at every comma, blank lines skipped; cells are not unquoted."""
    with open(path) as handle:
        return [line.split(",") for line in handle.read().split("\n") if line]


def load_matrix_csv(path) -> np.ndarray:
    """A dense matrix written by `matrix_csv`, every cell converted by numpy in one call."""
    data = np.array(_rows(path), dtype=float)
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
    label.  Returns the k of each prefix and the rows as text, split by `_rows`.
    """
    header, *rows = _rows(path) or [[]]
    header = [h.strip() for h in header]
    counts = [sum(h.startswith(prefix + "_") for h in header) for prefix in prefixes]
    expected = list(lead)
    for prefix, k in zip(prefixes, counts):
        expected += _labels(prefix, k)
    if min(counts) < 1 or header != expected:
        raise ValueError(f"{path}: expected {FORMATS[kind]}")
    if not rows:
        raise ValueError(f"{path}: {kind} file has no data rows")
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: rows must have {len(header)} columns")
    return counts, rows


# -- systems -----------------------------------------------------------------

def system_to_dict(sys: ALPVSystem) -> dict:
    return {
        "schema": SCHEMA,
        "D": sys.D,
        "n": sys.n,
        "m": sys.m,
        "p": sys.p,
        "A": sys.A.tolist(),
        "B": sys.B.tolist(),
        "C": sys.C.tolist(),
    }


def system_from_dict(data: dict) -> ALPVSystem:
    try:
        D, n, m, p = _sizes(data, "D", "n", "m", "p")
        A, B, C = (_array(data[k], s) for k, s in zip("ABC", ((D, n, n), (D, n, m), (D, p, n))))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed system object: {exc}") from exc
    return ALPVSystem(A=A, B=B, C=C)


def save_system(path, sys: ALPVSystem) -> None:
    write_text(path, dumps_json(system_to_dict(sys)) + "\n")


def _read_json(path):
    """A JSON file's value, and whether its text may hold a boolean.

    Only such a file pays the per-entry scan of its numeric arrays for a
    boolean among numbers, which `_array` cannot see.  Every `true` holds a
    "u" and every `false` an "f", letters that no number and no key of the
    system and table formats contains; a one-letter search runs at memory
    speed, about 50 times faster than one for the words.
    """
    with open(path) as handle:
        text = handle.read()
    return json.loads(text), "u" in text or "f" in text


def load_system(path) -> ALPVSystem:
    data, booleans = _read_json(path)
    sys = system_from_dict(data)
    if booleans:
        for k in "ABC":
            _numbers(data[k], "malformed system object: ")
    return sys


# -- Markov tables -----------------------------------------------------------

def table_from_dict(data: dict) -> MarkovTable:
    """A table from its JSON object; only a word not in its text form is parsed."""
    try:
        D, m, p, horizon = _sizes(data, "D", "m", "p", "horizon")
        items = data["entries"]
        labels = _w.labels_up_to(horizon, D)[_w.word_count(1, D):]
        row_of = dict(zip(labels, range(len(labels))))
        keys = [item["word"] for item in items]
        rows = [row_of.get(k, -1) if type(k) is str else -1 for k in keys]
        for i in [i for i, row in enumerate(rows) if row < 0]:
            row = _w.word_to_index(_w.word_from_str(keys[i], D), D) - _w.word_count(1, D) - 1
            rows[i] = row if 0 <= row < len(labels) else -1
        S = _array([item["S"] for item in items], (len(items), p, m))
    except (AttributeError, KeyError, TypeError, ValueError, InvalidWord) as exc:
        raise ValueError(f"malformed Markov table: {exc}") from exc
    rows = np.array(rows, dtype=int)
    covered = np.count_nonzero(np.bincount(rows[rows >= 0]))
    if len(items) != len(labels) or covered != len(labels):
        raise ValueError(
            f"table must cover each word of length 2..{horizon} once "
            f"({len(labels)} entries), got {len(items)} covering {covered}"
        )
    coeffs = np.empty((len(labels), p, m))
    coeffs[rows] = S
    return MarkovTable(D=D, m=m, p=p, horizon=horizon, coeffs=coeffs)


def save_table(path, table: MarkovTable) -> None:
    """The table JSON, byte for byte what `dumps_json` prints for one {"word", "S"} dict per entry.

    The header comes from `dumps_json`; the entries, in enumeration order, are
    filled into a `%` template built once from p and m, so that no object is
    built per entry.  A horizon-1 table has no entries and keeps `"entries": []`.
    """
    text = dumps_json({"schema": SCHEMA, "D": table.D, "m": table.m, "p": table.p,
                       "horizon": table.horizon, "entries": []}) + "\n"
    if len(table.coeffs):
        row = "\n        [" + ", ".join(["%.17g"] * table.m) + "]"
        S = ",".join([row] * table.p)
        entry = '\n    {\n      "word": %s,\n      "S": [' + S + "\n      ]\n    }"
        labels = _w.labels_up_to(table.horizon, table.D)[_w.word_count(1, table.D):]
        values = table.coeffs.reshape(len(labels), -1).tolist()
        entries = ",".join([entry % (_quote(v), *s) for v, s in zip(labels, values)])
        text = text.replace('"entries": []', '"entries": [' + entries + "\n  ]")
    write_text(path, text)


def load_table(path) -> MarkovTable:
    data, booleans = _read_json(path)
    table = table_from_dict(data)
    if booleans:
        _numbers([item["S"] for item in data["entries"]], "malformed Markov table: ")
    return table


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
    try:
        return HankelBlockMatrix(L=L, M=M, D=D, m=m, p=p, data=data)
    except DimensionMismatch as exc:
        raise ValueError(str(exc)) from exc


# -- signals and outputs -----------------------------------------------------

def save_signal(path, w: InputSequence) -> None:
    header = _labels("p", w.D) + _labels("u", w.m)
    _save_labelled(path, header, np.hstack([w.scheduling, w.inputs]))


def load_signal(path) -> InputSequence:
    (D, _), rows = _load_labelled(path, "signal", ("p", "u"))
    data = np.array(rows, dtype=float)
    return InputSequence(scheduling=data[:, :D], inputs=data[:, D:])


def save_outputs(path, outputs) -> None:
    out = np.atleast_2d(np.asarray(outputs, dtype=float))
    _save_labelled(path, _labels("y", out.shape[1]), out)


def load_switched(path, D: int) -> SwitchedInput:
    _, rows = _load_labelled(path, "switched", ("u",), lead=("mode",))
    modes = tuple(int(row[0]) for row in rows)
    return SwitchedInput(D=D, modes=modes, inputs=np.array([row[1:] for row in rows], dtype=float))


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
            if type(e) is not int:  # JSON integers only: not 2.0, "2" or true
                raise ValueError(f"exponent of {name} must be an integer, got {e!r}")
            exps[(int(parts[1]), int(parts[2]))] = e
        if type(term["coeff"]) not in (int, float):
            raise ValueError(f"coeff must be a number, got {term['coeff']!r}")
        parsed.append((term["coeff"], exps))
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
