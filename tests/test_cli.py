import json
import subprocess
import sys

import numpy as np
import pytest

from alpvreal import ALPVSystem, InputSequence, SwitchedInput, build_hankel, markov_table, simulate
from alpvreal import fileio
from alpvreal.cli import run

from conftest import make_eq1
from helpers import random_run


@pytest.fixture()
def sigma_star_path(tmp_path, sigma_star):
    path = tmp_path / "sigma_star.json"
    fileio.save_system(path, sigma_star)
    return str(path)


@pytest.fixture()
def sigma2_path(tmp_path, sigma2):
    path = tmp_path / "sigma2.json"
    fileio.save_system(path, sigma2)
    return str(path)


def test_sim_outputs_match_library(tmp_path, sigma_star, sigma_star_path):
    rng = np.random.default_rng(61)
    w = random_run(rng, 2, 1, 5)
    signal = tmp_path / "signal.csv"
    fileio.save_signal(signal, w)
    out = tmp_path / "y.csv"
    assert run(["sim", sigma_star_path, str(signal), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "y_1"
    values = np.array([[float(x)] for x in lines[1:]])
    expected = simulate(sigma_star, [0.0], w).outputs
    assert np.allclose(values, expected, atol=0)


def test_analyze_stdout_json(sigma_star_path, capsys):
    assert run(["analyze", sigma_star_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["minimal"] is True and report["n"] == 1


def test_realize_from_system(tmp_path, sigma_star_path, capsys):
    out = tmp_path / "realized.json"
    assert run(["realize", "--L", "0", "--from-system", sigma_star_path, "-o", str(out)]) == 0
    realized = fileio.load_system(out)
    assert realized.n == 1
    assert run(["analyze", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["minimal"] is True


def test_iso_dimension_mismatch_exit_code(sigma_star_path, sigma2_path, capsys):
    assert run(["iso", sigma_star_path, sigma2_path]) == 1
    assert "DimensionMismatch" in capsys.readouterr().err


def test_iso_identity(sigma_star_path, capsys):
    assert run(["iso", sigma_star_path, sigma_star_path]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0)


def test_markov_hankel_realize_analyze_pipeline(tmp_path, sigma_star_path):
    table = tmp_path / "table.json"
    hankel = tmp_path / "H.csv"
    realized = tmp_path / "realized.json"
    report = tmp_path / "report.json"
    assert run(["markov", sigma_star_path, "--horizon", "3", "-o", str(table)]) == 0
    assert run(["hankel", "--from-table", str(table), "--L", "0", "--M", "1", "-o", str(hankel)]) == 0
    assert run(["realize", "--from-hankel", str(hankel), "-o", str(realized)]) == 0
    assert run(["analyze", str(realized), "-o", str(report)]) == 0
    assert json.loads(report.read_text())["minimal"] is True


def test_pipeline_byte_identical(tmp_path, sigma_star_path):
    def chain(tag):
        base = tmp_path / tag
        base.mkdir()
        table = base / "table.json"
        hankel = base / "H.csv"
        realized = base / "realized.json"
        report = base / "report.json"
        assert run(["markov", sigma_star_path, "--horizon", "3", "-o", str(table)]) == 0
        assert run(["hankel", "--from-table", str(table), "--L", "0", "--M", "1", "-o", str(hankel)]) == 0
        assert run(["realize", "--from-hankel", str(hankel), "-o", str(realized)]) == 0
        assert run(["analyze", str(realized), "-o", str(report)]) == 0
        return [
            table.read_bytes(),
            hankel.read_bytes(),
            (base / "H.csv.meta.json").read_bytes(),
            realized.read_bytes(),
            report.read_bytes(),
        ]

    assert chain("first") == chain("second")


def test_minimize_subcommand(tmp_path, sigma_star, sigma_star_path):
    out = tmp_path / "min.json"
    assert run(["minimize", sigma_star_path, "-o", str(out)]) == 0
    assert fileio.load_system(out).n == 1


def test_ioeq_check_subcommand(tmp_path, sigma1, capsys):
    sys_path = tmp_path / "sigma1.json"
    fileio.save_system(sys_path, sigma1)
    eq_path = tmp_path / "eq.json"
    fileio.save_equation(eq_path, make_eq1())
    assert run(["ioeq-check", str(eq_path), str(sys_path), "--trials", "50"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["satisfied"] is True and report["max_residual"] < 1e-10

    fileio.save_equation(eq_path, make_eq1(-0.6))
    assert run(["ioeq-check", str(eq_path), str(sys_path), "--trials", "50"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["satisfied"] is False


def test_ioeq_check_zero_trials_is_usage_error(tmp_path, sigma1, capsys):
    sys_path = tmp_path / "sigma1.json"
    fileio.save_system(sys_path, sigma1)
    eq_path = tmp_path / "eq.json"
    fileio.save_equation(eq_path, make_eq1(-0.6))
    assert run(["ioeq-check", str(eq_path), str(sys_path), "--trials", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_switched_sim_subcommand(tmp_path, sigma_star, sigma_star_path):
    sw = SwitchedInput(D=2, modes=(1, 2), inputs=[[1.0], [0.0]])
    sw_path = tmp_path / "switched.csv"
    fileio.save_switched(sw_path, sw)
    out = tmp_path / "y.csv"
    assert run(["switched-sim", sigma_star_path, str(sw_path), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "y_1"
    assert float(lines[-1]) == pytest.approx(2.0)  # C2 B1


def test_missing_file_is_usage_error(tmp_path):
    assert run(["analyze", str(tmp_path / "absent.json")]) == 2


def test_malformed_json_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["analyze", str(bad)]) == 2


def test_horizon_too_small_is_domain_error(tmp_path, sigma_star_path, capsys):
    table = tmp_path / "table.json"
    assert run(["markov", sigma_star_path, "--horizon", "2", "-o", str(table)]) == 0
    assert run(["hankel", "--from-table", str(table), "--L", "1", "--M", "2", "-o", str(tmp_path / "H.csv")]) == 1
    assert "HorizonExceeded" in capsys.readouterr().err


def test_bad_arguments_exit_2():
    assert run(["hankel", "--L", "0", "--M", "1"]) == 2
    assert run(["no-such-command"]) == 2


def test_console_entry_point(sigma_star_path):
    proc = subprocess.run(
        [sys.executable, "-m", "alpvreal", "analyze", sigma_star_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["minimal"] is True


# The files each subcommand reads or writes, by their `fileio.FORMATS` key.
COMMAND_FORMATS = {
    "sim": ("system", "signal", "outputs"),
    "markov": ("system", "table"),
    "hankel": ("system", "table", "hankel"),
    "realize": ("hankel", "system"),
    "minimize": ("system",),
    "analyze": ("system",),
    "iso": ("system", "iso"),
    "ioeq-check": ("equation", "system"),
    "switched-sim": ("system", "switched", "outputs"),
}


@pytest.mark.parametrize("cmd", sorted(COMMAND_FORMATS))
def test_help_lists_formats(cmd, capsys):
    assert run([cmd, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: alpv {cmd} ")
    for name in COMMAND_FORMATS[cmd]:
        assert fileio.FORMATS[name] in out.splitlines()


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _table_d0(tmp_path):
    table = {"schema": "alpv-1", "D": 0, "m": 1, "p": 1, "horizon": 2, "entries": []}
    return ["hankel", "--from-table", _write_json(tmp_path / "t.json", table),
            "--L", "0", "--M", "0", "-o", str(tmp_path / "H.csv")]


def _table_p_negative(tmp_path):
    table = {"schema": "alpv-1", "D": 1, "m": 1, "p": -1, "horizon": 2,
             "entries": [{"word": "11", "S": [[0.5]]}]}
    return ["hankel", "--from-table", _write_json(tmp_path / "t.json", table),
            "--L", "0", "--M", "0", "-o", str(tmp_path / "H.csv")]


def _system_m_negative(tmp_path):
    system = {"schema": "alpv-1", "D": 1, "n": 2, "m": -1, "p": 1,
              "A": [[[0.5, 0.0], [0.0, 0.25]]], "B": [[[1.0], [1.0]]], "C": [[[1.0, 0.0]]]}
    return ["analyze", _write_json(tmp_path / "s.json", system)]


def _sidecar_d0(tmp_path):
    system = ALPVSystem(A=[[[0.5]]], B=[[[1.0]]], C=[[[1.0]]])
    fileio.save_hankel(tmp_path / "H.csv", build_hankel(system, 0, 1))
    meta = json.loads((tmp_path / "H.csv.meta.json").read_text())
    _write_json(tmp_path / "H.csv.meta.json", dict(meta, D=0))
    return ["realize", "--from-hankel", str(tmp_path / "H.csv"), "-o", str(tmp_path / "r.json")]


@pytest.mark.parametrize(
    "make_argv", [_table_d0, _table_p_negative, _system_m_negative, _sidecar_d0],
    ids=["table-D-0", "table-p-negative", "system-m-negative", "sidecar-D-0"],
)
def test_declared_size_out_of_range_is_usage_error(tmp_path, make_argv, capsys):
    assert run(make_argv(tmp_path)) == 2
    assert " must be >= " in capsys.readouterr().err


def test_switched_rows_must_match_header(tmp_path, sigma_star_path, capsys):
    sw_path = tmp_path / "switched.csv"
    sw_path.write_text("mode,u_1,u_2\n1,1.0\n2,0.0\n")
    out = tmp_path / "y.csv"
    assert run(["switched-sim", sigma_star_path, str(sw_path), "-o", str(out)]) == 2
    assert "rows must have 3 columns" in capsys.readouterr().err
    assert not out.exists()


def _system_with(tmp_path, **sizes):
    system = {"schema": "alpv-1", "D": 1, "n": 1, "m": 1, "p": 1,
              "A": [[[0.5]]], "B": [[[1.0]]], "C": [[[1.0]]], **sizes}
    return ["analyze", _write_json(tmp_path / "s.json", system)]


def _table_horizon_fraction(tmp_path):
    table = {"schema": "alpv-1", "D": 1, "m": 1, "p": 1, "horizon": 2.9,
             "entries": [{"word": "11", "S": [[0.5]]}]}
    return ["hankel", "--from-table", _write_json(tmp_path / "t.json", table),
            "--L", "0", "--M", "0", "-o", str(tmp_path / "H.csv")]


@pytest.mark.parametrize(
    "make_argv",
    [
        lambda tmp_path: _system_with(tmp_path, n=1.5),
        lambda tmp_path: _system_with(tmp_path, D=True),
        lambda tmp_path: _system_with(tmp_path, m="1"),
        _table_horizon_fraction,
    ],
    ids=["system-n-fraction", "system-D-true", "system-m-string", "table-horizon-fraction"],
)
def test_declared_size_must_be_an_integer(tmp_path, make_argv, capsys):
    assert run(make_argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and " must be an integer, got " in captured.err


@pytest.mark.parametrize("tol", ["inf", "1"])
def test_rank_tolerance_must_allow_some_rank(sigma_star_path, tol, capsys):
    assert run(["analyze", sigma_star_path, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "rel_eps must lie in (0, 1)" in captured.err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_ioeq_check_tolerance_must_be_finite(tmp_path, sigma1, tol, capsys):
    sys_path = tmp_path / "sigma1.json"
    fileio.save_system(sys_path, sigma1)
    eq_path = tmp_path / "eq.json"
    fileio.save_equation(eq_path, make_eq1(-0.6))
    assert run(["ioeq-check", str(eq_path), str(sys_path), "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "tol must be finite and >= 0" in captured.err


@pytest.mark.parametrize("residual_tol", ["inf", "nan"])
def test_iso_residual_tolerance_must_be_finite(tmp_path, sigma_star_path, residual_tol, capsys):
    other = ALPVSystem(A=[[[0.25]], [[0.0]]], B=[[[1.0]], [[3.0]]], C=[[[1.0]], [[2.0]]])
    other_path = tmp_path / "other.json"
    fileio.save_system(other_path, other)
    assert run(["iso", sigma_star_path, str(other_path)]) == 1  # not equivalent
    capsys.readouterr()
    argv = ["iso", sigma_star_path, str(other_path), "--residual-tol", residual_tol]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "residual_tol must be finite and >= 0" in captured.err


@pytest.mark.parametrize("cmd", ["analyze", "minimize"])
def test_rank_tolerance_that_discards_every_singular_value(tmp_path, sigma_star_path, cmd, capsys):
    # sigma_star's rank tests are 1 x 2 and 2 x 1: 0.5 * 2 puts the cutoff at sigma_1
    out = tmp_path / "out.json"
    assert run([cmd, sigma_star_path, "--tol", "0.5", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "rel_eps 0.5 times the largest dimension" in captured.err
    assert not out.exists()


def _sigma_star_table_argv(tmp_path, sigma_star, edit):
    """hankel --from-table on sigma_star's horizon-2 table after `edit` changes its entries."""
    table = fileio.table_to_dict(markov_table(sigma_star, 2))
    edit(table["entries"])
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table))
    return ["hankel", "--from-table", str(path), "--L", "0", "--M", "0", "-o", str(tmp_path / "H.csv")]


def test_table_symbol_outside_alphabet_is_usage_error(tmp_path, sigma_star, capsys):
    def edit(entries):
        entries[1]["word"] = "13"

    assert run(_sigma_star_table_argv(tmp_path, sigma_star, edit)) == 2
    assert "malformed Markov table: symbol 3 outside alphabet 1..2" in capsys.readouterr().err
    assert not (tmp_path / "H.csv").exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda entries: entries.append({"word": "11", "S": [[99.0]]}),
        lambda entries: entries[1].update(word="11"),
    ],
    ids=["appended", "in-place-of-another"],
)
def test_table_repeated_word_is_usage_error(tmp_path, sigma_star, edit, capsys):
    assert run(_sigma_star_table_argv(tmp_path, sigma_star, edit)) == 2
    assert "each word of length 2..2 once (4 entries)" in capsys.readouterr().err
    assert not (tmp_path / "H.csv").exists()


def test_table_non_finite_entry_is_domain_error(tmp_path, sigma_star, capsys):
    def edit(entries):
        entries[1]["S"] = [[float("nan")]]

    assert run(_sigma_star_table_argv(tmp_path, sigma_star, edit)) == 1
    assert "NonFiniteEntry: S(12) is not finite" in capsys.readouterr().err
    assert not (tmp_path / "H.csv").exists()


def test_table_word_not_a_string_is_usage_error(tmp_path, sigma_star, capsys):
    def edit(entries):
        entries[1]["word"] = 12

    assert run(_sigma_star_table_argv(tmp_path, sigma_star, edit)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed Markov table" in captured.err
    assert not (tmp_path / "H.csv").exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda eq: eq["Q"][1][0].update(exps=[1]),
        lambda eq: eq["L"][0][0].__setitem__(0, 5),
    ],
    ids=["exps-list", "term-number"],
)
def test_equation_term_of_wrong_type_is_usage_error(tmp_path, sigma1, edit, capsys):
    sys_path = tmp_path / "sigma1.json"
    fileio.save_system(sys_path, sigma1)
    eq = fileio.equation_to_dict(make_eq1(-0.6))
    edit(eq)
    argv = ["ioeq-check", _write_json(tmp_path / "eq.json", eq), str(sys_path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed equation object" in captured.err
