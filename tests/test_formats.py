"""Byte-exact pins of every file format the package writes.

Each expected text below is the exact output for one tiny instance, so a
change to the bytes of any format has to change this file too.
"""

import json

import pytest

from alpvreal import ALPVSystem, InputSequence, SwitchedInput, build_hankel, fileio, markov_table
from alpvreal.cli import run

from conftest import make_eq1

# D=2, n=m=p=1; 1/3 exercises the 17-significant-digit float text.
SYSTEM = ALPVSystem(A=[[[0.5]], [[-0.25]]], B=[[[1.0]], [[3.0]]], C=[[[1.0]], [[1 / 3]]])

SYSTEM_JSON = """{
  "schema": "alpv-1",
  "D": 2,
  "n": 1,
  "m": 1,
  "p": 1,
  "A": [
    [
      [0.5]
    ],
    [
      [-0.25]
    ]
  ],
  "B": [
    [
      [1]
    ],
    [
      [3]
    ]
  ],
  "C": [
    [
      [1]
    ],
    [
      [0.33333333333333331]
    ]
  ]
}
"""

TABLE_JSON = """{
  "schema": "alpv-1",
  "D": 2,
  "m": 1,
  "p": 1,
  "horizon": 2,
  "entries": [
    {
      "word": "11",
      "S": [
        [1]
      ]
    },
    {
      "word": "12",
      "S": [
        [0.33333333333333331]
      ]
    },
    {
      "word": "21",
      "S": [
        [3]
      ]
    },
    {
      "word": "22",
      "S": [
        [1]
      ]
    }
  ]
}
"""

HANKEL_CSV = """1,3,0.5,1.5,-0.25,-0.75
0.33333333333333331,1,0.16666666666666666,0.5,-0.083333333333333329,-0.25
"""

HANKEL_SIDECAR = """{
  "schema": "alpv-1",
  "L": 0,
  "M": 1,
  "D": 2,
  "m": 1,
  "p": 1
}
"""

SIGNAL_CSV = """p_1,p_2,u_1
0.10000000000000001,0.33333333333333331,9.9999999999999995e-21
-2,0,5
"""

SWITCHED_CSV = """mode,u_1
1,0.5
2,-0.33333333333333331
2,0
"""

OUTPUTS_CSV = """y_1,y_2
0.5,0.33333333333333331
2,-3
"""

EQUATION_JSON = """{
  "schema": "alpv-1",
  "n": 1,
  "m": 1,
  "D": 1,
  "Q": [
    [
      {
        "coeff": 1,
        "exps": {}
      }
    ],
    [
      {
        "coeff": -0.5,
        "exps": {
          "P_0_1": 1
        }
      }
    ]
  ],
  "L": [
    [
      [
        {
          "coeff": -1,
          "exps": {
            "P_0_1": 1,
            "P_1_1": 1
          }
        }
      ]
    ]
  ]
}
"""

ANALYZE_REPORT = """{
  "schema": "alpv-1",
  "reach_rank": 1,
  "obs_rank": 1,
  "n": 1,
  "reachable": true,
  "observable": true,
  "minimal": true
}
"""

# The residual is roundoff-sized, so its digits are filled in from the run.
CHECK_REPORT = """{
  "schema": "alpv-1",
  "satisfied": true,
  "max_residual": %s,
  "trials": 3,
  "seed": 5,
  "tol": 1e-10
}
"""


def test_json_formats(tmp_path):
    fileio.save_system(tmp_path / "s.json", SYSTEM)
    fileio.save_table(tmp_path / "t.json", markov_table(SYSTEM, 2))
    fileio.save_equation(tmp_path / "eq.json", make_eq1())
    assert (tmp_path / "s.json").read_text() == SYSTEM_JSON
    assert (tmp_path / "t.json").read_text() == TABLE_JSON
    assert (tmp_path / "eq.json").read_text() == EQUATION_JSON


def test_hankel_csv_and_sidecar(tmp_path):
    fileio.save_hankel(tmp_path / "H.csv", build_hankel(SYSTEM, 0, 1))
    assert (tmp_path / "H.csv").read_text() == HANKEL_CSV
    assert (tmp_path / "H.csv.meta.json").read_text() == HANKEL_SIDECAR


def test_labelled_csv_formats(tmp_path):
    signal = InputSequence(scheduling=[[0.1, 1 / 3], [-2.0, 0.0]], inputs=[[1e-20], [5.0]])
    switched = SwitchedInput(D=2, modes=(1, 2, 2), inputs=[[0.5], [-1 / 3], [0.0]])
    fileio.save_signal(tmp_path / "sig.csv", signal)
    fileio.save_switched(tmp_path / "sw.csv", switched)
    fileio.save_outputs(tmp_path / "y.csv", [[0.5, 1 / 3], [2.0, -3.0]])
    assert (tmp_path / "sig.csv").read_text() == SIGNAL_CSV
    assert (tmp_path / "sw.csv").read_text() == SWITCHED_CSV
    assert (tmp_path / "y.csv").read_text() == OUTPUTS_CSV


def test_analyze_report(tmp_path, capsys):
    fileio.save_system(tmp_path / "s.json", SYSTEM)
    report = tmp_path / "report.json"
    assert run(["analyze", str(tmp_path / "s.json"), "-o", str(report)]) == 0
    assert capsys.readouterr().out == ANALYZE_REPORT
    assert report.read_text() == ANALYZE_REPORT


def test_ioeq_check_report(tmp_path, sigma1, capsys):
    fileio.save_system(tmp_path / "s1.json", sigma1)
    fileio.save_equation(tmp_path / "eq.json", make_eq1())
    argv = ["ioeq-check", str(tmp_path / "eq.json"), str(tmp_path / "s1.json")]
    assert run(argv + ["--trials", "3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    residual = json.loads(out)["max_residual"]
    assert abs(residual) < 1e-12
    assert out == CHECK_REPORT % fileio.format_float(residual)


def test_iso_csv(tmp_path, capsys):
    # The same system in coordinates scaled by 2 (B doubled, C halved).
    scaled = ALPVSystem(A=SYSTEM.A, B=[2 * B for B in SYSTEM.B], C=[C / 2 for C in SYSTEM.C])
    fileio.save_system(tmp_path / "s.json", SYSTEM)
    fileio.save_system(tmp_path / "t.json", scaled)
    out_path = tmp_path / "T.csv"
    assert run(["iso", str(tmp_path / "s.json"), str(tmp_path / "t.json"), "-o", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert out_path.read_text() == out
    T = float(out)
    assert T == pytest.approx(2.0, rel=1e-12)
    assert out == "%.17g\n" % T
