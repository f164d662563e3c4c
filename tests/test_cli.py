import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from urnchain import analysis
from urnchain.cli import _ROWS_MARKER, _json_chunks, main
from urnchain.coefficients import (
    IntegerParameters,
    lu_coefficients,
    lu_coefficients_integer,
    Parameters,
    reconstruct_row,
)
from urnchain.urns import CHUNK_TRIALS, COMPOSITE, sample_endpoints

F = Fraction

# simulate --aggregate stdout per (M, N, gamma, experiment, initial), for
# --steps 3 --trials CHUNK_TRIALS + 2000 --seed 2024, recorded before the
# sampler read its ball counts through the urn table: any change in how
# the sampler consumes draws shows here
PINNED_AGGREGATE = {
    ("2", "3", "1", "1", 0): "state,count\n0,18384\n",
    ("2", "3", "1", "1", 1): "state,count\n0,9687\n1,8697\n",
    ("2", "3", "1", "1", 2): "state,count\n0,4703\n1,8219\n2,5462\n",
    ("2", "3", "1", "1", 37): (
        "state,count\n31,16\n32,242\n33,1299\n"
        "34,3713\n35,6009\n36,5255\n37,1850\n"
    ),
    ("2", "3", "1", "2", 0): "state,count\n0,1434\n1,4280\n2,8177\n3,4493\n",
    ("2", "3", "1", "2", 1): "state,count\n1,538\n2,4524\n3,7922\n4,5400\n",
    ("2", "3", "1", "2", 2): "state,count\n2,1044\n3,4130\n4,8290\n5,4920\n",
    ("2", "3", "1", "2", 37): "state,count\n37,686\n38,4048\n39,8161\n40,5489\n",
    ("2", "3", "1", "composite", 0): "state,count\n0,2734\n1,6314\n2,7028\n3,2308\n",
    ("2", "3", "1", "composite", 1): "state,count\n0,1268\n1,3564\n2,6816\n3,5007\n4,1729\n",
    ("2", "3", "1", "composite", 2): (
        "state,count\n0,535\n1,1734\n2,5015\n"
        "3,5745\n4,4205\n5,1150\n"
    ),
    ("2", "3", "1", "composite", 37): (
        "state,count\n31,1\n32,20\n33,124\n"
        "34,538\n35,1762\n36,3632\n37,4918\n"
        "38,4503\n39,2340\n40,546\n"
    ),
    ("1000003", "999983", "5", "composite", 37): (
        "state,count\n31,1\n32,8\n33,78\n"
        "34,391\n35,1344\n36,3276\n37,4906\n"
        "38,4881\n39,2773\n40,726\n"
    ),
}


# simulate trajectory stdout for --M 2 --N 3 --gamma 1 --initial 4
# --steps 3 --trials 3 --seed 2024, recorded when trajectory mode moved
# onto the vectorized lanes: any change in how it consumes draws shows here
PINNED_TRAJECTORY = """\
trial,step,sub_step,state
0,0,0,4
0,1,1,4
0,1,2,5
0,2,1,5
0,2,2,6
0,3,1,5
0,3,2,6
1,0,0,4
1,1,1,3
1,1,2,4
1,2,1,3
1,2,2,4
1,3,1,4
1,3,2,5
2,0,0,4
2,1,1,2
2,1,2,3
2,2,1,1
2,2,2,2
2,3,1,2
2,3,2,2
"""


# verify and graph stdout and exit code per case, recorded before the
# banded matrices were built from their band rows: any change in the
# factors, their product, the direct chain or the JSON envelope shows here
EXACT = ("--M", "2", "--N", "3", "--gamma", "1")
FLOAT = ("--alpha", "0.9", "--beta", "0.1", "--gamma", "0.5")
PINNED_VERIFY_GRAPH = {
    "verify-exact": (("verify", *EXACT, "--T", "5"), 0, """\
{
  "checks": [
    {
      "detail": "x+y = 1 and t+r+s = 1",
      "max_deviation": 0.0,
      "name": "coefficient_row_sums",
      "passed": true
    },
    {
      "detail": "all coefficients within [0, 1]",
      "max_deviation": 0.0,
      "name": "coefficient_bounds",
      "passed": true
    },
    {
      "detail": "t_0 = t_1 = r_0 = 0 and s_0 = 1",
      "max_deviation": 0.0,
      "name": "boundary_values",
      "passed": true
    },
    {
      "detail": "product bandwidths (lower, upper) = (2, 1)",
      "max_deviation": 0.0,
      "name": "band_structure",
      "passed": true
    },
    {
      "detail": "interior factor rows sum to 1",
      "max_deviation": 0.0,
      "name": "factor_row_sums",
      "passed": true
    },
    {
      "detail": "product vs direct rows 0..2",
      "max_deviation": 0.0,
      "name": "lu_identity",
      "passed": true
    },
    {
      "detail": "interior product rows sum to 1",
      "max_deviation": 0.0,
      "name": "product_row_sums",
      "passed": true
    }
  ],
  "command": "verify",
  "kind": "exact",
  "parameters": {
    "M": 2,
    "N": 3,
    "form": "integer",
    "gamma": 1
  },
  "passed": true,
  "schema": "1",
  "size": 5,
  "tolerance": 0.0
}
"""),
    "verify-float": (("verify", *FLOAT, "--T", "5"), 0, """\
{
  "checks": [
    {
      "detail": "x+y = 1 and t+r+s = 1",
      "max_deviation": 1.1102230246251565e-16,
      "name": "coefficient_row_sums",
      "passed": true
    },
    {
      "detail": "all coefficients within [0, 1]",
      "max_deviation": 0.0,
      "name": "coefficient_bounds",
      "passed": true
    },
    {
      "detail": "t_0 = t_1 = r_0 = 0 and s_0 = 1",
      "max_deviation": 0.0,
      "name": "boundary_values",
      "passed": true
    },
    {
      "detail": "product bandwidths (lower, upper) = (2, 1)",
      "max_deviation": 0.0,
      "name": "band_structure",
      "passed": true
    },
    {
      "detail": "interior factor rows sum to 1",
      "max_deviation": 1.1102230246251565e-16,
      "name": "factor_row_sums",
      "passed": true
    },
    {
      "detail": "product vs direct rows 0..2",
      "max_deviation": 0.0,
      "name": "lu_identity",
      "passed": true
    },
    {
      "detail": "interior product rows sum to 1",
      "max_deviation": 1.1102230246251565e-16,
      "name": "product_row_sums",
      "passed": true
    }
  ],
  "command": "verify",
  "kind": "float",
  "parameters": {
    "alpha": 0.9,
    "beta": 0.1,
    "form": "general",
    "gamma": 0.5
  },
  "passed": true,
  "schema": "1",
  "size": 5,
  "tolerance": 1e-12
}
"""),
    "verify-float-tolerance-0": (("verify", *FLOAT, "--T", "5", "--tolerance", "0"), 3, """\
{
  "checks": [
    {
      "detail": "x+y = 1 and t+r+s = 1",
      "max_deviation": 1.1102230246251565e-16,
      "name": "coefficient_row_sums",
      "passed": false
    },
    {
      "detail": "all coefficients within [0, 1]",
      "max_deviation": 0.0,
      "name": "coefficient_bounds",
      "passed": true
    },
    {
      "detail": "t_0 = t_1 = r_0 = 0 and s_0 = 1",
      "max_deviation": 0.0,
      "name": "boundary_values",
      "passed": true
    },
    {
      "detail": "product bandwidths (lower, upper) = (2, 1)",
      "max_deviation": 0.0,
      "name": "band_structure",
      "passed": true
    },
    {
      "detail": "interior factor rows sum to 1",
      "max_deviation": 1.1102230246251565e-16,
      "name": "factor_row_sums",
      "passed": false
    },
    {
      "detail": "product vs direct rows 0..2",
      "max_deviation": 0.0,
      "name": "lu_identity",
      "passed": true
    },
    {
      "detail": "interior product rows sum to 1",
      "max_deviation": 1.1102230246251565e-16,
      "name": "product_row_sums",
      "passed": false
    }
  ],
  "command": "verify",
  "kind": "float",
  "parameters": {
    "alpha": 0.9,
    "beta": 0.1,
    "form": "general",
    "gamma": 0.5
  },
  "passed": false,
  "schema": "1",
  "size": 5,
  "tolerance": 0.0
}
"""),
    # a float product row sum whose deviation depends on the order in
    # which the band row is summed
    "verify-float-400": (("verify", "--alpha", "2.764865653478637", "--beta", "2.1033914251575667",
                          "--gamma", "2.227272722347545", "--T", "400", "--tolerance", "0"), 3, """\
{
  "checks": [
    {
      "detail": "x+y = 1 and t+r+s = 1",
      "max_deviation": 2.220446049250313e-16,
      "name": "coefficient_row_sums",
      "passed": false
    },
    {
      "detail": "all coefficients within [0, 1]",
      "max_deviation": 0.0,
      "name": "coefficient_bounds",
      "passed": true
    },
    {
      "detail": "t_0 = t_1 = r_0 = 0 and s_0 = 1",
      "max_deviation": 0.0,
      "name": "boundary_values",
      "passed": true
    },
    {
      "detail": "product bandwidths (lower, upper) = (2, 1)",
      "max_deviation": 0.0,
      "name": "band_structure",
      "passed": true
    },
    {
      "detail": "interior factor rows sum to 1",
      "max_deviation": 2.220446049250313e-16,
      "name": "factor_row_sums",
      "passed": false
    },
    {
      "detail": "product vs direct rows 0..397",
      "max_deviation": 0.0,
      "name": "lu_identity",
      "passed": true
    },
    {
      "detail": "interior product rows sum to 1",
      "max_deviation": 4.440892098500626e-16,
      "name": "product_row_sums",
      "passed": false
    }
  ],
  "command": "verify",
  "kind": "float",
  "parameters": {
    "alpha": 2.764865653478637,
    "beta": 2.1033914251575667,
    "form": "general",
    "gamma": 2.227272722347545
  },
  "passed": false,
  "schema": "1",
  "size": 400,
  "tolerance": 0.0
}
"""),
    "graph-P": (("graph", *EXACT, "--which", "P", "--T", "4"), 0, """\
digraph P {
  rankdir=LR;
  0;
  1;
  2;
  3;
  0 -> 0 [label="3/7"];
  0 -> 1 [label="4/7"];
  1 -> 0 [label="2/21"];
  1 -> 1 [label="100/273"];
  1 -> 2 [label="7/13"];
  2 -> 0 [label="2/99"];
  2 -> 1 [label="595/5148"];
  2 -> 2 [label="71/156"];
  2 -> 3 [label="9/22"];
  3 -> 1 [label="15/1976"];
  3 -> 2 [label="917/5928"];
  3 -> 3 [label="5/12"];
}
"""),
    "graph-PL": (("graph", *EXACT, "--which", "PL", "--T", "4"), 0, """\
digraph PL {
  rankdir=LR;
  0;
  1;
  2;
  3;
  0 -> 0 [label="1"];
  1 -> 0 [label="2/9"];
  1 -> 1 [label="7/9"];
  2 -> 0 [label="14/297"];
  2 -> 1 [label="1369/4752"];
  2 -> 2 [label="117/176"];
  3 -> 1 [label="15/608"];
  3 -> 2 [label="3263/9120"];
  3 -> 3 [label="176/285"];
}
"""),
    "graph-PU": (("graph", *EXACT, "--which", "PU", "--T", "4"), 0, """\
digraph PU {
  rankdir=LR;
  0;
  1;
  2;
  3;
  0 -> 0 [label="3/7"];
  0 -> 1 [label="4/7"];
  1 -> 1 [label="4/13"];
  1 -> 2 [label="9/13"];
  2 -> 2 [label="5/13"];
  2 -> 3 [label="8/13"];
  3 -> 3 [label="7/22"];
}
"""),
}


# JSON table stdout and exit code per case, recorded while the JSON
# envelope was still dumped as one string, before tables were written
# row by row: any change in a table's bytes shows here
JSON = ("--format", "json")
PINNED_JSON = {
    "coeffs-exact": (("coeffs", *EXACT, "--n-max", "1", *JSON), 0, """\
{
  "command": "coeffs",
  "parameters": {
    "M": 2,
    "N": 3,
    "form": "integer",
    "gamma": 1
  },
  "rows": [
    {
      "a": "4/7",
      "b": "3/7",
      "c": null,
      "d": null,
      "n": 0,
      "r": "0",
      "s": "1",
      "t": "0",
      "x": "4/7",
      "y": "3/7"
    },
    {
      "a": "7/13",
      "b": "100/273",
      "c": "2/21",
      "d": null,
      "n": 1,
      "r": "2/9",
      "s": "7/9",
      "t": "0",
      "x": "9/13",
      "y": "4/13"
    }
  ],
  "schema": "1"
}
"""),
    "coeffs-float": (("coeffs", *FLOAT, "--n-max", "1", *JSON), 0, """\
{
  "command": "coeffs",
  "parameters": {
    "alpha": 0.9,
    "beta": 0.1,
    "form": "general",
    "gamma": 0.5
  },
  "rows": [
    {
      "a": 0.4411764705882353,
      "b": 0.5588235294117647,
      "c": null,
      "d": null,
      "n": 0,
      "r": 0.0,
      "s": 1.0,
      "t": 0.0,
      "x": 0.4411764705882353,
      "y": 0.5588235294117647
    },
    {
      "a": 0.5366161616161615,
      "b": 0.33637849079025545,
      "c": 0.1270053475935829,
      "d": null,
      "n": 1,
      "r": 0.22727272727272727,
      "s": 0.7727272727272726,
      "t": 0.0,
      "x": 0.6944444444444444,
      "y": 0.3055555555555556
    }
  ],
  "schema": "1"
}
"""),
    "poly-exact": (("poly", *EXACT, "--n-max", "1", "--x", "1", "--x", "3/4", *JSON), 0, """\
{
  "command": "poly",
  "parameters": {
    "M": 2,
    "N": 3,
    "form": "integer",
    "gamma": 1
  },
  "rows": [
    {
      "n": 0,
      "q": 1,
      "x": "1"
    },
    {
      "n": 1,
      "q": "1",
      "x": "1"
    },
    {
      "n": 0,
      "q": 1,
      "x": "3/4"
    },
    {
      "n": 1,
      "q": "9/16",
      "x": "3/4"
    }
  ],
  "schema": "1"
}
"""),
    "poly-float": (("poly", *FLOAT, "--n-max", "1", "--x", "1", "--x", "3/4", *JSON), 0, """\
{
  "command": "poly",
  "parameters": {
    "alpha": 0.9,
    "beta": 0.1,
    "form": "general",
    "gamma": 0.5
  },
  "rows": [
    {
      "n": 0,
      "q": 1.0,
      "x": 1.0
    },
    {
      "n": 1,
      "q": 1.0,
      "x": 1.0
    },
    {
      "n": 0,
      "q": 1.0,
      "x": 0.75
    },
    {
      "n": 1,
      "q": 0.4333333333333333,
      "x": 0.75
    }
  ],
  "schema": "1"
}
"""),
    "simulate-composite": ((
        "simulate", *EXACT, "--initial", "4", "--steps", "1", "--trials", "2", "--seed", "2024",
        *JSON,
    ), 0, """\
{
  "command": "simulate",
  "experiment": "composite",
  "initial": 4,
  "parameters": {
    "M": 2,
    "N": 3,
    "form": "integer",
    "gamma": 1
  },
  "rows": [
    {
      "state": 4,
      "step": 0,
      "sub_step": 0,
      "trial": 0
    },
    {
      "state": 3,
      "step": 1,
      "sub_step": 1,
      "trial": 0
    },
    {
      "state": 4,
      "step": 1,
      "sub_step": 2,
      "trial": 0
    },
    {
      "state": 4,
      "step": 0,
      "sub_step": 0,
      "trial": 1
    },
    {
      "state": 4,
      "step": 1,
      "sub_step": 1,
      "trial": 1
    },
    {
      "state": 5,
      "step": 1,
      "sub_step": 2,
      "trial": 1
    }
  ],
  "schema": "1",
  "seed": 2024,
  "steps": 1,
  "trials": 2
}
"""),
    "simulate-experiment-1": ((
        "simulate", *EXACT, "--experiment", "1", "--initial", "4", "--steps", "2",
        "--trials", "1", "--seed", "2024", *JSON,
    ), 0, """\
{
  "command": "simulate",
  "experiment": "1",
  "initial": 4,
  "parameters": {
    "M": 2,
    "N": 3,
    "form": "integer",
    "gamma": 1
  },
  "rows": [
    {
      "state": 4,
      "step": 0,
      "sub_step": 0,
      "trial": 0
    },
    {
      "state": 4,
      "step": 1,
      "sub_step": 1,
      "trial": 0
    },
    {
      "state": 3,
      "step": 2,
      "sub_step": 1,
      "trial": 0
    }
  ],
  "schema": "1",
  "seed": 2024,
  "steps": 2,
  "trials": 1
}
"""),
    "simulate-aggregate": ((
        "simulate", *EXACT, "--initial", "4", "--steps", "3", "--trials", "100", "--seed", "2024",
        "--aggregate", *JSON,
    ), 0, """\
{
  "command": "simulate",
  "counts": [
    {
      "count": 6,
      "state": 2
    },
    {
      "count": 12,
      "state": 3
    },
    {
      "count": 23,
      "state": 4
    },
    {
      "count": 33,
      "state": 5
    },
    {
      "count": 24,
      "state": 6
    },
    {
      "count": 2,
      "state": 7
    }
  ],
  "experiment": "composite",
  "initial": 4,
  "parameters": {
    "M": 2,
    "N": 3,
    "form": "integer",
    "gamma": 1
  },
  "schema": "1",
  "seed": 2024,
  "steps": 3,
  "trials": 100
}
"""),
    "simulate-no-trials": (("simulate", *EXACT, "--trials", "0", *JSON), 0, """\
{
  "command": "simulate",
  "experiment": "composite",
  "initial": 0,
  "parameters": {
    "M": 2,
    "N": 3,
    "form": "integer",
    "gamma": 1
  },
  "rows": [],
  "schema": "1",
  "seed": 19024,
  "steps": 1,
  "trials": 0
}
"""),
    "compare": ((
        "compare", *EXACT, "--initial", "1", "--trials", "1000", "--seed", "7", *JSON,
    ), 0, """\
{
  "command": "compare",
  "parameters": {
    "M": 2,
    "N": 3,
    "form": "integer",
    "gamma": 1
  },
  "rows": [
    {
      "chi_square": 0.3089085714285727,
      "chi_square_0999": 13.815510557964274,
      "dof": 2,
      "initial": 1,
      "ok": true,
      "trials": 1000,
      "tv_distance": 0.007699633699633682
    }
  ],
  "schema": "1",
  "seed": 7,
  "trials": 1000
}
"""),
}


# compare stdout per format, recorded while compare still read each
# start's law from the coefficient rows 0..max(--initial): states 5000
# and 200000 lie far above the bench's, and at state 2 a law summed in
# another end-state order gives other last bits of the chi-square
COMPARE_STARTS = (
    "compare", *EXACT, "--initial", "2", "--initial", "5000", "--initial", "200000",
    "--trials", "2000",
)
PINNED_COMPARE = {
    "csv": """\
initial,trials,tv_distance,chi_square,dof,chi_square_0999,ok
2,2000,0.0077191142191142016,3.5646274115279892,3,16.266236196238129,True
5000,2000,0.010670397943478316,4.3369488596180847,3,16.266236196238129,True
200000,2000,0.0087570370542751214,1.5152743060184763,3,16.266236196238129,True
""",
    "json": """\
{
  "command": "compare",
  "parameters": {
    "M": 2,
    "N": 3,
    "form": "integer",
    "gamma": 1
  },
  "rows": [
    {
      "chi_square": 3.5646274115279892,
      "chi_square_0999": 16.26623619623813,
      "dof": 3,
      "initial": 2,
      "ok": true,
      "trials": 2000,
      "tv_distance": 0.007719114219114202
    },
    {
      "chi_square": 4.336948859618085,
      "chi_square_0999": 16.26623619623813,
      "dof": 3,
      "initial": 5000,
      "ok": true,
      "trials": 2000,
      "tv_distance": 0.010670397943478316
    },
    {
      "chi_square": 1.5152743060184763,
      "chi_square_0999": 16.26623619623813,
      "dof": 3,
      "initial": 200000,
      "ok": true,
      "trials": 2000,
      "tv_distance": 0.008757037054275121
    }
  ],
  "schema": "1",
  "seed": 19024,
  "trials": 2000
}
""",
}


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def run_python(*argv) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports urnchain from this checkout."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, check=False, env=env
    )


def assert_no_scipy(modules: list[str]) -> None:
    # importing scipy.stats took about a second of every cold start
    assert "urnchain" in modules
    assert [name for name in modules if name.split(".")[0] == "scipy"] == []


def parse_strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""

    def reject(constant):
        raise ValueError(f"{constant} is not standard JSON")

    return json.loads(text, parse_constant=reject)


class TestCoeffs:
    def test_worked_example_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--M", "2", "--N", "3", "--gamma", "1", "--n-max", "2"
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[2]["t"] == "14/297"
        assert rows[2]["s"] == "117/176"
        assert rows[2]["d"] == "2/99"
        assert rows[0]["c"] == "" and rows[0]["d"] == ""

    def test_invalid_parameters_exit_two_and_name_the_condition(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--alpha", "0.5", "--beta", "2.0", "--gamma", "0")
        assert code == 2
        assert "|alpha - beta|" in err

    def test_smallest_grid_point_row_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--M", "1", "--N", "1", "--gamma", "0", "--n-max", "0"
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["x"] == "1/3" and rows[0]["y"] == "2/3"

    def test_mixed_forms_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "coeffs", "--alpha", "0.5", "--M", "2", "--N", "3", "--gamma", "1"
        )
        assert code == 2 and "not both" in err

    def test_json_round_trips_exact_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--M", "2", "--N", "3", "--gamma", "1",
            "--n-max", "4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "1"
        from urnchain.coefficients import lu_coefficients_integer

        c = lu_coefficients_integer(IntegerParameters(2, 3, 1), 4)
        for row in payload["rows"]:
            n = row["n"]
            assert F(row["x"]) == c.x[n]
            assert F(row["t"]) == c.t[n]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_value_exits_one_and_names_the_row(self, capsys, fmt):
        # finite, valid parameters whose float denominators overflow to inf,
        # so s_1 = inf / inf is NaN
        code, out, err = run_cli(
            capsys, "coeffs", "--alpha", "1e308", "--beta", "1e308", "--gamma", "0",
            "--n-max", "3", "--format", fmt,
        )
        assert code == 1 and out == ""
        assert "at n = 1 is not finite" in err

    def test_exact_values_past_the_int_to_str_digit_limit(self, capsys):
        # denominators of about 8800 digits, above CPython's default 4300
        ip = IntegerParameters(10**2200 + 1, 10**2200 + 7, 0)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, _ = run_cli(
            capsys, "coeffs", "--M", str(ip.M), "--N", str(ip.N), "--gamma", "0", "--n-max", "3"
        )
        assert code == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        rows = parse_csv(out)
        assert max(len(cell) for row in rows for cell in row.values()) > 8000
        c = lu_coefficients_integer(ip, 3)
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            for n, row in enumerate(rows):
                trow = reconstruct_row(c, n)
                expected = [c.x[n], c.y[n], c.t[n], c.r[n], c.s[n]]
                for key, value in zip("xytrsabcd", expected + [trow.a, trow.b, trow.c, trow.d]):
                    assert row[key] == ("" if value is None else str(value)), (n, key)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)

    def test_csv_round_trips_float_values_exactly(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--alpha", "0.9", "--beta", "0.1", "--gamma", "0.5",
            "--n-max", "6",
        )
        assert code == 0
        c = lu_coefficients(Parameters(0.9, 0.1, 0.5), 6)
        for row in parse_csv(out):
            n = int(row["n"])
            assert float(row["x"]) == c.x[n]
            assert float(row["s"]) == c.s[n]


class TestVerify:
    def test_exact_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--M", "2", "--N", "3", "--gamma", "1", "--T", "60")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["kind"] == "exact"
        assert all(check["max_deviation"] == 0 for check in payload["checks"])

    def test_float_verify_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--alpha", "0.9", "--beta", "0.1", "--gamma", "0.5", "--T", "60"
        )
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-12

    def test_failing_verification_exits_three(self, capsys):
        # a zero tolerance on the float route fails on rounding error,
        # exercising the verification-failure exit path
        code, out, _ = run_cli(
            capsys, "verify", "--alpha", "0.9", "--beta", "0.1", "--gamma", "0.5",
            "--T", "60", "--tolerance", "0",
        )
        assert code == 3
        assert json.loads(out)["passed"] is False

    def test_non_finite_deviation_is_json_null(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--alpha", "1e308", "--beta", "1e308", "--gamma", "0", "--T", "5"
        )
        assert code == 3
        payload = parse_strict_json(out)
        assert payload["passed"] is False
        failed = [check for check in payload["checks"] if check["max_deviation"] is None]
        assert failed and not any(check["passed"] for check in failed)

    def test_infinite_parameter_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--alpha", ".5", "--beta", ".3", "--gamma", "inf", "--T", "20"
        )
        assert code == 2 and out == ""
        assert "gamma must be finite" in err

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_nan_or_negative_tolerance_exits_two(self, capsys, tolerance):
        code, out, err = run_cli(
            capsys, "verify", "--alpha", ".5", "--beta", ".3", "--gamma", "1",
            "--T", "20", "--tolerance", tolerance,
        )
        assert code == 2 and out == ""
        assert "--tolerance" in err


class TestSimulate:
    ARGS = ["simulate", "--M", "2", "--N", "3", "--gamma", "1", "--initial", "4"]

    def test_requires_integer_form(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--beta", "0.2", "--gamma", "1"
        )
        assert code == 2 and "--M/--N" in err

    def test_trajectory_rows_alternate_sub_steps(self, capsys):
        code, out, _ = run_cli(
            capsys, *self.ARGS, "--steps", "3", "--trials", "2", "--seed", "7"
        )
        assert code == 0
        rows = parse_csv(out)
        assert [row["sub_step"] for row in rows[:7]] == ["0", "1", "2", "1", "2", "1", "2"]
        assert len(rows) == 2 * (1 + 2 * 3)

    def test_single_experiment_trajectory_is_monotone(self, capsys):
        code, out, _ = run_cli(
            capsys, *self.ARGS, "--experiment", "1", "--steps", "5", "--trials", "3",
            "--seed", "3",
        )
        assert code == 0
        for row in parse_csv(out):
            assert 0 <= int(row["state"]) <= 4

    def test_identical_flags_reproduce_identical_output(self, capsys):
        argv = [*self.ARGS, "--steps", "4", "--trials", "5", "--seed", "11"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_aggregate_counts_sum_to_trials(self, capsys):
        code, out, _ = run_cli(
            capsys, *self.ARGS, "--aggregate", "--trials", "20000", "--seed", "5"
        )
        assert code == 0
        rows = parse_csv(out)
        assert sum(int(row["count"]) for row in rows) == 20000
        assert {int(row["state"]) for row in rows} <= {2, 3, 4, 5}

    def test_aggregate_matches_library_sampler(self, capsys):
        code, out, _ = run_cli(
            capsys, *self.ARGS, "--aggregate", "--trials", "30000", "--seed", "21"
        )
        assert code == 0
        expected = sample_endpoints(IntegerParameters(2, 3, 1), 4, COMPOSITE, 30000, 21)
        assert {int(r["state"]): int(r["count"]) for r in parse_csv(out)} == dict(expected)

    def test_thread_count_is_byte_invariant(self, tmp_path, capsys):
        modes = {
            "agg": ["--aggregate", "--trials", "100000"],
            "traj": ["--steps", "3", "--trials", str(CHUNK_TRIALS + 2000)],
        }
        for mode, flags in modes.items():
            paths = []
            for threads in ("1", "8"):
                path = tmp_path / f"{mode}-{threads}.csv"
                code, _, _ = run_cli(
                    capsys, *self.ARGS, *flags,
                    "--seed", "42", "--threads", threads, "--output", str(path),
                )
                assert code == 0
                paths.append(path)
            assert paths[0].read_bytes() == paths[1].read_bytes(), mode

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("experiment", ["1", "2", "composite"])
    def test_trajectory_end_states_equal_aggregate(self, capsys, experiment, threads):
        # two chunks: both modes walk the same lanes on the same streams
        argv = [
            *self.ARGS, "--experiment", experiment, "--steps", "2",
            "--trials", str(CHUNK_TRIALS + 2000), "--seed", "17", "--threads", threads,
        ]
        code, trajectories, _ = run_cli(capsys, *argv)
        assert code == 0
        last = ("2", "2" if experiment == "composite" else "1")  # (step, sub_step)
        ends = Counter(
            int(row["state"]) for row in parse_csv(trajectories)
            if (row["step"], row["sub_step"]) == last
        )
        code, aggregate, _ = run_cli(capsys, *argv, "--aggregate")
        assert code == 0
        assert sum(ends.values()) == CHUNK_TRIALS + 2000
        assert aggregate == "state,count\n" + "".join(
            f"{state},{count}\n" for state, count in sorted(ends.items())
        )

    def test_trajectory_output_is_pinned(self, capsys):
        code, out, _ = run_cli(
            capsys, *self.ARGS, "--steps", "3", "--trials", "3", "--seed", "2024"
        )
        assert code == 0
        assert out == PINNED_TRAJECTORY

    @pytest.mark.parametrize("aggregate", [["--aggregate"], []])
    def test_urn_above_int64_limit_exits_two(self, capsys, aggregate):
        code, out, err = run_cli(
            capsys, "simulate", "--M", "1000000000", "--N", "1000000007", "--gamma", "0",
            "--initial", "21", "--trials", "5", "--experiment", "1", *aggregate,
        )
        assert code == 2 and out == ""
        # the single step draws at state 21 only
        assert "urn B at state 21 " in err and "int64 limit 2**63 - 1" in err

    @pytest.mark.parametrize("steps", ["0", "1"])
    @pytest.mark.parametrize("aggregate", [["--aggregate"], []])
    def test_start_state_above_int64_limit_exits_two(self, capsys, aggregate, steps):
        common = ("simulate", "--M", "1", "--N", "1", "--gamma", "0", "--steps", steps)
        code, out, err = run_cli(
            capsys, *common, "--initial", str(2**63), "--trials", "2", *aggregate
        )
        assert code == 2 and out == ""
        assert f"start state {2**63} " in err and "int64 limit 2**63 - 1" in err
        # no lane, no state to hold
        code, out, err = run_cli(
            capsys, *common, "--initial", str(2**63), "--trials", "0", *aggregate
        )
        assert code == 0 and err == ""
        if steps == "0":
            code, out, err = run_cli(
                capsys, *common, "--initial", str(2**63 - 1), "--trials", "2", *aggregate
            )
            assert code == 0 and err == ""
            assert out == (
                f"state,count\n{2**63 - 1},2\n" if aggregate
                else f"trial,step,sub_step,state\n0,0,0,{2**63 - 1}\n1,0,0,{2**63 - 1}\n"
            )

    @pytest.mark.parametrize("aggregate", [["--aggregate"], []])
    def test_undrawn_urn_above_int64_limit_is_not_checked(self, capsys, aggregate):
        # urn A at the end state 1 would hold 3 N + 1 > 2**63 - 1 balls,
        # but one birth step draws at state 0 only
        code, out, err = run_cli(
            capsys, "simulate", "--M", "1", "--N", "4000000000000000000", "--gamma", "0",
            "--initial", "0", "--steps", "1", "--experiment", "2", "--trials", "5",
            *aggregate,
        )
        assert code == 0 and err == ""
        assert out.startswith("state,count\n" if aggregate else "trial,step,sub_step,state\n")

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "case", list(PINNED_AGGREGATE), ids=lambda case: "-".join(map(str, case))
    )
    def test_aggregate_output_is_pinned(self, capsys, case, threads):
        # two chunks, so --threads 2 runs them in parallel
        M, N, gamma, experiment, initial = case
        code, out, _ = run_cli(
            capsys, "simulate", "--M", M, "--N", N, "--gamma", gamma,
            "--experiment", experiment, "--initial", str(initial), "--steps", "3",
            "--trials", str(CHUNK_TRIALS + 2000), "--seed", "2024", "--threads", threads,
            "--aggregate",
        )
        assert code == 0
        assert out == PINNED_AGGREGATE[case]

    def test_json_output_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, *self.ARGS, "--steps", "2", "--trials", "1", "--seed", "9",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "1" and payload["command"] == "simulate"
        assert len(payload["rows"]) == 5


class TestCompare:
    def test_composite_agreement_for_small_states(self, capsys):
        argv = ["compare", "--M", "2", "--N", "3", "--gamma", "1", "--trials", "100000"]
        for m in range(6):
            argv += ["--initial", str(m)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = parse_csv(out)
        assert [row["initial"] for row in rows] == [str(m) for m in range(6)]
        for row in rows:
            assert float(row["tv_distance"]) < 0.01
            assert float(row["chi_square"]) < float(row["chi_square_0999"])
            assert row["ok"] == "True"

    def test_thread_count_is_byte_invariant(self, tmp_path, capsys):
        paths = []
        for threads in ("1", "8"):
            path = tmp_path / f"cmp-{threads}.csv"
            code, _, _ = run_cli(
                capsys, "compare", "--M", "2", "--N", "3", "--gamma", "1",
                "--trials", "50000", "--initial", "2", "--initial", "4",
                "--seed", "42", "--threads", threads, "--output", str(path),
            )
            assert code == 0
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_value_exits_one_and_names_the_row(self, monkeypatch, capsys, fmt):
        monkeypatch.setattr(analysis, "tv_distance", lambda empirical, exact: math.nan)
        code, out, err = run_cli(
            capsys, "compare", "--M", "2", "--N", "3", "--gamma", "1",
            "--trials", "100", "--initial", "3", "--format", fmt,
        )
        assert code == 1 and out == ""
        assert "value nan at initial = 3 is not finite" in err


class TestPoly:
    def test_all_ones_at_x_equal_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--M", "2", "--N", "3", "--gamma", "1",
            "--x", "1", "--n-max", "50",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 51
        assert all(row["q"] == "1" for row in rows)

    def test_exact_rational_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--M", "2", "--N", "3", "--gamma", "1",
            "--x", "0", "--n-max", "1",
        )
        assert code == 0
        assert parse_csv(out)[1]["q"] == "-3/4"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_value_exits_one_and_names_the_row(self, capsys, fmt):
        # q_n(-1/2) overflows the float route: the first non-finite value
        # is at n = 666, where standard JSON has no number for it
        code, out, err = run_cli(
            capsys, "poly", "--alpha", ".5", "--beta", ".3", "--gamma", "1",
            "--x=-1/2", "--n-max", "1200", "--format", fmt,
        )
        assert code == 1 and out == ""
        assert "value inf at x = -1/2, n = 666 is not finite" in err

    def test_bad_point_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "poly", "--M", "2", "--N", "3", "--gamma", "1", "--x", "pi"
        )
        assert code == 2 and "--x" in err

    @pytest.mark.parametrize("point", ["1e400", "-1e400"])
    def test_point_beyond_double_range_exits_two(self, capsys, point):
        code, out, err = run_cli(
            capsys, "poly", "--alpha", ".5", "--beta", ".3", "--gamma", "1", f"--x={point}"
        )
        assert code == 2 and out == ""
        assert "--x" in err


class TestInputValidation:
    def test_negative_initial_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--M", "2", "--N", "3", "--gamma", "1", "--initial", "-1"
        )
        assert code == 2 and "--initial" in err

    def test_zero_truncation_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "graph", "--M", "2", "--N", "3", "--gamma", "1", "--T", "0"
        )
        assert code == 2 and "--T" in err

    def test_non_integer_gamma_with_integer_form(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--M", "2", "--N", "3", "--gamma", "0.5")
        assert code == 2 and "--gamma" in err


class TestGraph:
    def test_pure_birth_edges_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "graph", "--which", "PU", "--T", "3", "--M", "2", "--N", "3", "--gamma", "1"
        )
        assert code == 0
        edges = [line.strip() for line in out.splitlines() if "->" in line]
        assert len(edges) == 5  # self loops 0,1,2 plus up edges 0->1, 1->2
        assert '0 -> 1 [label="4/7"];' in out
        assert "digraph PU" in out

    def test_death_factor_absorbing_self_loop(self, capsys):
        code, out, _ = run_cli(
            capsys, "graph", "--which", "PL", "--T", "4", "--M", "2", "--N", "3", "--gamma", "1"
        )
        assert code == 0
        assert '0 -> 0 [label="1"];' in out
        assert all("->" not in line or "label" in line for line in out.splitlines())

    def test_composite_band_edges(self, capsys):
        code, out, _ = run_cli(
            capsys, "graph", "--which", "P", "--T", "5", "--M", "2", "--N", "3", "--gamma", "1"
        )
        assert code == 0
        assert '2 -> 0 [label="2/99"];' in out
        assert "3 -> 0" not in out  # below the band

    def test_output_file_has_lf_endings(self, tmp_path, capsys):
        path = tmp_path / "graph.dot"
        code, _, _ = run_cli(
            capsys, "graph", "--which", "P", "--T", "3", "--M", "1", "--N", "1",
            "--gamma", "0", "--output", str(path),
        )
        assert code == 0
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"}\n")


class TestPinnedOutput:
    @pytest.mark.parametrize("case", list(PINNED_VERIFY_GRAPH))
    def test_verify_and_graph_output_is_pinned(self, capsys, case):
        argv, expected_code, expected_out = PINNED_VERIFY_GRAPH[case]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (expected_code, expected_out, "")

    @pytest.mark.parametrize("case", list(PINNED_JSON))
    def test_json_table_output_is_pinned(self, tmp_path, capsys, case):
        argv, expected_code, expected_out = PINNED_JSON[case]
        assert run_cli(capsys, *argv) == (expected_code, expected_out, "")
        path = tmp_path / "table.json"
        assert run_cli(capsys, *argv, "--output", str(path)) == (expected_code, "", "")
        assert path.read_bytes() == expected_out.encode()

    @pytest.mark.parametrize("fmt", list(PINNED_COMPARE))
    def test_compare_output_is_pinned(self, capsys, fmt):
        assert run_cli(capsys, *COMPARE_STARTS, "--format", fmt) == (0, PINNED_COMPARE[fmt], "")


# table cells and field names as the CLI writes them: scalars only, with
# strings that JSON must escape and one equal to the rows marker
TRICKY_TEXT = st.sampled_from(
    ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f", "über ∑ 🎲", _ROWS_MARKER]
)
CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    TRICKY_TEXT,
)
NAMES = st.text(max_size=6) | TRICKY_TEXT.filter(lambda name: name != _ROWS_MARKER)


@st.composite
def json_tables(draw):
    header = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    rows = draw(st.lists(st.tuples(*[CELLS] * len(header)), max_size=6))
    key = draw(st.sampled_from(["rows", "counts"]))
    # meta keys on both sides of either table key in sorted order
    meta = draw(st.dictionaries(
        st.sampled_from(["a", "command", "parameters", "rt", "schema", "z"]) | NAMES,
        CELLS.filter(lambda value: value != _ROWS_MARKER),
        max_size=5,
    ))
    meta.pop(key, None)
    return meta, key, header, rows


class TestJsonTable:
    @given(json_tables())
    def test_streamed_table_equals_one_dump(self, table):
        payload, key, header, rows = table
        expected = json.dumps(
            {**payload, key: [dict(zip(header, row)) for row in rows]},
            indent=2, sort_keys=True, allow_nan=False,
        ) + "\n"
        assert "".join(_json_chunks(payload, key, header, iter(rows))) == expected

    def test_marker_in_the_envelope_is_refused(self):
        with pytest.raises(ValueError, match="reserved"):
            _json_chunks({"seed": _ROWS_MARKER}, "rows", ["n"], [(0,)])

    def test_memory_does_not_grow_with_the_row_count(self, tmp_path, capsys):
        path = tmp_path / "paths.json"
        tracemalloc.start()
        try:
            code = main([
                "simulate", "--M", "7", "--N", "3", "--gamma", "2", "--initial", "20",
                "--steps", "100", "--trials", "800", "--format", "json", "--output", str(path),
            ])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, *capsys.readouterr()) == (0, "", "")
        # 160800 rows, about 13.8 MB; one string of them peaked at 162 MiB
        assert path.stat().st_size > 13_000_000
        assert peak < 4 << 20


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "urnchain", "coeffs", "--M", "1", "--N", "1",
             "--gamma", "0", "--n-max", "0"],
            capture_output=True, text=True, check=False,
        )
        assert result.returncode == 0
        assert "1/3" in result.stdout

    def test_missing_command_is_an_argparse_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "urnchain"], capture_output=True, text=True, check=False
        )
        assert result.returncode == 2

    def test_import_loads_no_scipy(self):
        result = run_python("-c", "import sys, urnchain; print(*sys.modules)")
        assert result.returncode == 0, result.stderr
        assert_no_scipy(result.stdout.split())

    def test_help_loads_no_scipy(self):
        result = run_python("-X", "importtime", "-m", "urnchain", "--help")
        assert result.returncode == 0 and result.stdout.startswith("usage: urnchain")
        # each -X importtime line ends "| <module>"
        assert_no_scipy([
            line.rsplit("|", 1)[1].strip()
            for line in result.stderr.splitlines() if line.startswith("import time:")
        ])
