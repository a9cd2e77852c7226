import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alpvreal import (
    ALPVSystem,
    InputSequence,
    MarkovTable,
    SwitchedInput,
    analyze,
    build_hankel,
    markov_table,
    words_up_to,
)
from alpvreal import cli, fileio, words

from conftest import make_eq1
from helpers import (
    random_run, random_system, reference_dumps_json, reference_load_matrix_csv, table_to_dict,
)


def test_float_formatting():
    assert fileio.format_float(0.5) == "0.5"
    assert fileio.format_float(1.0 / 3.0) == "0.33333333333333331"
    # 17 significant digits round-trip exactly
    x = np.pi * 1e-7
    assert float(fileio.format_float(x)) == x


def test_dumps_json_deterministic_and_parseable():
    payload = {"schema": "alpv-1", "x": [1.0 / 3.0, 2], "flag": True, "name": "eps"}
    text = fileio.dumps_json(payload)
    assert text == fileio.dumps_json(payload)
    parsed = json.loads(text)
    assert parsed["flag"] is True
    assert parsed["x"][0] == pytest.approx(1.0 / 3.0, abs=0)


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e-320, -1e-320, float("nan"), float("inf"), -float("inf")]),
    st.text(),
    st.sampled_from(['"', "\\", 'a "quoted\\" word', "caf\u00e9", "\u65e5\u672c", "\u2028", "\x00"]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**15), 2**15 - 1).map(np.int16),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.floats(allow_nan=False))
_OBJECTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_OBJECTS)
def test_dumps_json_matches_the_reference_emitter(obj):
    # nested lists and dicts reach every indent the emitter pads with
    assert fileio.dumps_json(obj) == reference_dumps_json(obj)


@pytest.mark.parametrize(
    "obj",
    [object(), {1, 2}, np.zeros(2), 1j, b"bytes", [1.0, object()], {"a": [None, {"b": 1j}]}],
    ids=["object", "set", "ndarray", "complex", "bytes", "in-list", "nested"],
)
def test_dumps_json_rejects_unsupported_objects(obj):
    with pytest.raises(TypeError, match="cannot serialize"):
        reference_dumps_json(obj)
    with pytest.raises(TypeError, match="cannot serialize"):
        fileio.dumps_json(obj)


def test_system_roundtrip(tmp_path, sigma2):
    path = tmp_path / "sys.json"
    fileio.save_system(path, sigma2)
    loaded = fileio.load_system(path)
    assert loaded.dims == sigma2.dims
    for M1, M2 in zip((loaded.A, loaded.B, loaded.C), (sigma2.A, sigma2.B, sigma2.C)):
        assert np.array_equal(M1, M2)
    assert json.loads(path.read_text())["schema"] == "alpv-1"


def test_system_rejects_inconsistent_counts(tmp_path, sigma2):
    path = tmp_path / "sys.json"
    data = fileio.system_to_dict(sigma2)
    data["A"] = data["A"][:1]
    path.write_text(fileio.dumps_json(data))
    with pytest.raises(ValueError):
        fileio.load_system(path)


def test_table_roundtrip(tmp_path, sigma_star):
    table = markov_table(sigma_star, 4)
    path = tmp_path / "table.json"
    fileio.save_table(path, table)
    loaded = fileio.load_table(path)
    assert (loaded.D, loaded.m, loaded.p, loaded.horizon) == (2, 1, 1, 4)
    assert set(loaded.entries) == set(table.entries)
    for v in table.entries:
        assert np.array_equal(loaded.entries[v], table.entries[v])


def test_table_rejects_incomplete(tmp_path, sigma_star):
    table = markov_table(sigma_star, 3)
    data = table_to_dict(table)
    data["entries"] = data["entries"][:-1]
    path = tmp_path / "table.json"
    path.write_text(fileio.dumps_json(data))
    with pytest.raises(ValueError):
        fileio.load_table(path)


def test_loading_a_table_does_not_import_numpy_ma(tmp_path, sigma_star):
    """`numpy.ma` costs about 13 ms to import; counting the covered rows must not need it."""
    path = tmp_path / "table.json"
    fileio.save_table(path, markov_table(sigma_star, 4))
    code = (
        "import sys; from alpvreal import fileio; "
        f"fileio.load_table({str(path)!r}); assert 'numpy.ma' not in sys.modules"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(fileio.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def _enumerated(table):
    """S(v) for the words of length 2..horizon, in enumeration order."""
    words = [v for v in words_up_to(table.horizon, table.D) if len(v) >= 2]
    return np.array([table.entries[v] for v in words]).reshape(len(words), table.p, table.m)


@pytest.mark.parametrize(
    "D, m, p, horizon", [(3, 2, 2, 5), (1, 2, 1, 6), (10, 1, 2, 3), (3, 1, 1, 8)]
)
def test_table_save_load_save_is_byte_identical(tmp_path, monkeypatch, D, m, p, horizon):
    table = markov_table(random_system(np.random.default_rng(D), D=D, m=m, p=p), horizon)
    checked = []
    check_word = words.check_word
    monkeypatch.setattr(words, "check_word", lambda w, D: checked.append(w) or check_word(w, D))
    fileio.save_table(tmp_path / "a.json", table)
    loaded = fileio.load_table(tmp_path / "a.json")
    fileio.save_table(tmp_path / "b.json", loaded)
    # Words are written and matched by their text: no per-word check.
    assert len(checked) < 50
    assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()
    assert np.array_equal(_enumerated(loaded), _enumerated(table))


def test_table_entry_order_in_the_file_does_not_matter(tmp_path):
    rng = np.random.default_rng(11)
    table = markov_table(random_system(rng, D=2, m=2, p=2), 4)
    data = table_to_dict(table)
    data["entries"] = [data["entries"][i] for i in rng.permutation(len(data["entries"]))]
    path = tmp_path / "shuffled.json"
    path.write_text(fileio.dumps_json(data))
    loaded = fileio.load_table(path)
    assert (loaded.D, loaded.m, loaded.p, loaded.horizon) == (2, 2, 2, 4)
    assert np.array_equal(_enumerated(loaded), _enumerated(table))


def test_table_word_with_surrounding_spaces_is_parsed(tmp_path, sigma_star):
    table = markov_table(sigma_star, 3)
    data = table_to_dict(table)
    assert data["entries"][1]["word"] == "12"
    data["entries"][1]["word"] = " 12 "
    path = tmp_path / "padded.json"
    path.write_text(fileio.dumps_json(data))
    assert np.array_equal(fileio.load_table(path).coeffs, table.coeffs)


# Finite coefficients that stress the %.17g text: signed zeros, the smallest
# subnormal and values next to the largest double.
_COEFFS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]),
)


@st.composite
def tables(draw):
    """A MarkovTable built directly from drawn coefficients, tiled to its size."""
    D = draw(st.sampled_from([1, 2, 3, 10]))
    horizon = draw(st.integers(1, 3 if D == 10 else 5))
    m, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = words.word_count(horizon, D) - words.word_count(1, D)
    values = draw(st.lists(_COEFFS, min_size=1, max_size=12))
    coeffs = np.resize(np.array(values), rows * p * m).reshape(rows, p, m)
    return MarkovTable(D=D, m=m, p=p, horizon=horizon, coeffs=coeffs)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(tables())
def test_save_table_matches_the_reference_emitter(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("table") / "t.json"
    fileio.save_table(path, table)
    assert path.read_text() == reference_dumps_json(table_to_dict(table)) + "\n"


@pytest.mark.parametrize("D, m, p", [(1, 1, 1), (10, 2, 3)])
def test_horizon_one_table_has_an_empty_entry_list(tmp_path, D, m, p):
    table = MarkovTable(D=D, m=m, p=p, horizon=1, coeffs=np.empty((0, p, m)))
    path = tmp_path / "t.json"
    fileio.save_table(path, table)
    assert path.read_text().endswith('  "horizon": 1,\n  "entries": []\n}\n')
    loaded = fileio.load_table(path)
    assert (loaded.D, loaded.m, loaded.p, loaded.horizon) == (D, m, p, 1)
    assert loaded.coeffs.shape == (0, p, m)


def test_save_table_builds_no_object_per_entry(tmp_path):
    """29,520 entries: one dict per entry peaked at 31 MB, the entry template at 13 MB."""
    table = markov_table(random_system(np.random.default_rng(3), D=3, m=1, p=1), 9)
    assert len(table.coeffs) == 29_520
    tracemalloc.start()
    try:
        fileio.save_table(tmp_path / "t.json", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_hankel_roundtrip(tmp_path, sigma2):
    H = build_hankel(sigma2, 1, 2)
    path = tmp_path / "H.csv"
    fileio.save_hankel(path, H)
    assert (tmp_path / "H.csv.meta.json").exists()
    loaded = fileio.load_hankel(path)
    assert (loaded.L, loaded.M, loaded.D, loaded.m, loaded.p) == (1, 2, 2, 1, 1)
    assert np.array_equal(loaded.data, H.data)


def test_hankel_sidecar_shape_guard(tmp_path, sigma2):
    H = build_hankel(sigma2, 1, 2)
    path = tmp_path / "H.csv"
    fileio.save_hankel(path, H)
    meta = json.loads((tmp_path / "H.csv.meta.json").read_text())
    meta["L"] = 2
    (tmp_path / "H.csv.meta.json").write_text(fileio.dumps_json(meta))
    with pytest.raises(ValueError):
        fileio.load_hankel(path)


_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    st.integers(1, 6), st.integers(1, 6), st.lists(_CELLS, min_size=1, max_size=12),
    st.sampled_from(["\n", "\r\n"]), st.booleans(),
)
def test_matrix_csv_reader_matches_the_reference_bit_for_bit(
    tmp_path_factory, rows, cols, values, newline, blank_lines
):
    matrix = np.resize(np.array(values), rows * cols).reshape(rows, cols)
    lines = fileio.matrix_csv(matrix).splitlines(keepends=True)
    separator = "\n" if blank_lines else ""
    text = separator.join(lines).replace("\n", newline)
    path = tmp_path_factory.mktemp("csv") / "H.csv"
    path.write_bytes(text.encode())
    loaded, reference = fileio.load_matrix_csv(path), reference_load_matrix_csv(path)
    assert loaded.shape == reference.shape == (rows, cols)
    assert np.array_equal(loaded.view(np.int64), reference.view(np.int64))


@pytest.mark.parametrize(
    "text",
    ["1,x\n2,3\n", "1,2\n3\n", "", "\n\r\n\n"],
    ids=["non-numeric", "ragged", "empty", "blank-lines"],
)
def test_malformed_matrix_csv_raises_value_error_like_the_reference(tmp_path, text):
    path = tmp_path / "H.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError):
        reference_load_matrix_csv(path)
    with pytest.raises(ValueError):
        fileio.load_matrix_csv(path)


def test_signal_roundtrip(tmp_path):
    rng = np.random.default_rng(51)
    w = random_run(rng, 3, 2, 5)
    path = tmp_path / "signal.csv"
    fileio.save_signal(path, w)
    header = path.read_text().splitlines()[0]
    assert header == "p_1,p_2,p_3,u_1,u_2"
    loaded = fileio.load_signal(path)
    assert np.array_equal(loaded.scheduling, w.scheduling)
    assert np.array_equal(loaded.inputs, w.inputs)


def test_signal_rejects_bad_header(tmp_path):
    path = tmp_path / "signal.csv"
    path.write_text("u_1,p_1\n0.0,1.0\n")
    with pytest.raises(ValueError):
        fileio.load_signal(path)


def test_switched_roundtrip(tmp_path):
    sw = SwitchedInput(D=2, modes=(1, 2, 1), inputs=[[0.5], [0.0], [-1.0]])
    path = tmp_path / "switched.csv"
    fileio.save_switched(path, sw)
    loaded = fileio.load_switched(path, D=2)
    assert loaded.modes == (1, 2, 1)
    assert np.array_equal(loaded.inputs, sw.inputs)


def test_equation_roundtrip(tmp_path):
    eq = make_eq1()
    path = tmp_path / "eq.json"
    fileio.save_equation(path, eq)
    text = path.read_text()
    assert '"P_0_1"' in text
    loaded = fileio.load_equation(path)
    assert loaded.order == 1 and loaded.m == 1 and loaded.D == 1
    for a, b in zip(loaded.all_coeffs(), eq.all_coeffs()):
        assert a.monomials == b.monomials


def test_report_dict(sigma_star):
    data = fileio.report_to_dict(analyze(sigma_star))
    assert data["minimal"] is True
    assert data["schema"] == "alpv-1"
    assert list(data) == [
        "schema",
        "reach_rank",
        "obs_rank",
        "n",
        "reachable",
        "observable",
        "minimal",
    ]


def test_outputs_csv(tmp_path):
    path = tmp_path / "y.csv"
    fileio.save_outputs(path, [[0.5, 1.0], [2.0, -3.0]])
    lines = path.read_text().splitlines()
    assert lines[0] == "y_1,y_2"
    assert lines[1] == "0.5,1"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.json"
    fileio.write_text(path, "{}\n")
    assert [f.name for f in tmp_path.iterdir()] == ["out.json"]


def test_a_failed_rename_leaves_the_target_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    path.write_text("old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(fileio.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        fileio.write_text(path, "new\n")
    assert [f.name for f in tmp_path.iterdir()] == ["out.json"]
    assert path.read_text() == "old\n"


def test_system_arrays_must_nest_as_their_declared_sizes():
    data = {"schema": "alpv-1", "D": 1, "n": 2, "m": 3, "p": 1, "A": [[[1, 0], [0, 1]]],
            "B": [[[1, 2], [3, 4], [5, 6]]], "C": [[[1, 1]]]}  # B_1 transposed
    with pytest.raises(ValueError, match=r"expected an array of shape \(1, 2, 3\), got \(1, 3, 2\)"):
        fileio.system_from_dict(data)
    data["B"] = [[[1, 2, 3], [4, 5, 6]]]
    assert np.array_equal(fileio.system_from_dict(data).B[0], [[1, 2, 3], [4, 5, 6]])


def test_table_coefficients_must_nest_as_p_by_m():
    entry = {"word": "11", "S": [[1, 2], [3, 4], [5, 6]]}  # a 2 x 3 S, transposed
    data = {"schema": "alpv-1", "D": 1, "m": 3, "p": 2, "horizon": 2, "entries": [entry]}
    with pytest.raises(ValueError, match=r"expected an array of shape \(1, 2, 3\), got \(1, 3, 2\)"):
        fileio.table_from_dict(data)
    entry["S"] = [[1, 2, 3], [4, 5, 6]]
    assert np.array_equal(fileio.table_from_dict(data).coeffs[0], [[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("D, m, p", [(1, 1, 1), (2, 1, 2), (3, 2, 1)])
def test_zero_state_system_roundtrip(tmp_path, D, m, p):
    empty = ALPVSystem(A=np.zeros((D, 0, 0)), B=np.zeros((D, 0, m)), C=np.zeros((D, p, 0)))
    path = tmp_path / "sys.json"
    fileio.save_system(path, empty)
    assert fileio.load_system(path).dims == (D, 0, m, p)


@pytest.mark.parametrize(
    "entry, shown",
    [("0.5", "'0.5'"), ("nan", "'nan'"), (None, "None"), ("all", "True"), (True, "True"),
     (False, "False")],
    ids=["string", "nan-string", "null", "all-boolean", "true-among-numbers",
         "false-among-numbers"],
)
def test_system_entries_must_be_json_numbers(tmp_path, sigma2, entry, shown):
    data = fileio.system_to_dict(sigma2)
    if entry == "all":
        data["A"] = [[[True, False], [False, True]]] * sigma2.D
    else:  # numpy alone would read a boolean among numbers as 0 or 1
        data["A"][0][0][0] = entry
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=rf"^malformed system object: expected JSON numbers, got {shown}$"):
        fileio.load_system(path)
    assert cli.run(["analyze", str(path)]) == 2


def test_table_entries_must_be_json_numbers(tmp_path, sigma_star):
    data = table_to_dict(markov_table(sigma_star, 3))
    data["entries"][-1]["S"] = [["1"]]
    path = tmp_path / "table.json"
    path.write_text(fileio.dumps_json(data))
    with pytest.raises(ValueError, match="malformed Markov table: expected JSON numbers, got '1'$"):
        fileio.load_table(path)
    out = tmp_path / "hankel.csv"
    assert cli.run(["hankel", "--from-table", str(path), "--L", "0", "--M", "1", "-o", str(out)]) == 2
    assert not out.exists()


def test_a_boolean_among_a_tables_numbers_is_refused(tmp_path, sigma_star):
    data = table_to_dict(markov_table(sigma_star, 3))
    data["entries"][-1]["S"] = [[False]]  # numpy alone would read it as 0 among the other entries
    path = tmp_path / "table.json"
    path.write_text(fileio.dumps_json(data))
    with pytest.raises(ValueError, match="^malformed Markov table: expected JSON numbers, got False$"):
        fileio.load_table(path)
    out = tmp_path / "hankel.csv"
    assert cli.run(["hankel", "--from-table", str(path), "--L", "0", "--M", "1", "-o", str(out)]) == 2
    assert not out.exists()


def test_integers_beyond_int64_load_and_beyond_the_float_range_are_refused():
    data = {"schema": "alpv-1", "D": 1, "n": 1, "m": 1, "p": 1,
            "A": [[[10**30]]], "B": [[[1]]], "C": [[[1]]]}
    assert fileio.system_from_dict(data).A[0, 0, 0] == 1e30
    data["A"] = [[[10**400]]]
    with pytest.raises(ValueError, match="outside the float range"):
        fileio.system_from_dict(data)
