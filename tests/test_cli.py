import concurrent.futures
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import to_dense
from urnchain import analysis, banded
from urnchain.cli import _json_chunks, _row_text, _trajectory_text, main
from urnchain.coefficients import (
    IntegerParameters,
    lu_coefficients,
    lu_coefficients_integer,
    Parameters,
    reconstruct_row,
)
from urnchain.urns import CHUNK_TRIALS, COMPOSITE, _sample_paths, sample_endpoints

from golden.record import run
from test_golden import names, replay

F = Fraction
# an admissible general triple whose float coefficients fail verify
CANCELLATION = ["--alpha", "-0.9999999999963118", "--beta", "-0.05450437561967936",
                "--gamma", "-0.9999999999987187"]


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def checkout_env() -> dict:
    """The environment of a fresh interpreter that imports urnchain from
    this checkout."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def run_python(*argv, text: bool = True) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports urnchain from this checkout."""
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=text, check=False, env=checkout_env()
    )


def imported_modules(importtime_stderr: str) -> list[str]:
    """The modules named in ``-X importtime`` output, whose lines end
    "| <module>"."""
    return [
        line.rsplit("|", 1)[1].strip()
        for line in importtime_stderr.splitlines() if line.startswith("import time:")
    ]


def package_modules(modules: list[str]) -> set[str]:
    """The package's own modules, without urnchain and urnchain.cli,
    which every run of ``python -m urnchain`` loads."""
    loaded = {name for name in modules if name.split(".")[0] == "urnchain"}
    assert {"urnchain", "urnchain.cli"} <= loaded
    return loaded - {"urnchain", "urnchain.cli"}


# the modules of the package each command loads besides urnchain.cli:
# the ones it runs and the coefficients module they all import
COMMAND_MODULES = {
    "coeffs": {"urnchain.coefficients"},
    "verify": {"urnchain.coefficients", "urnchain.banded"},
    "graph": {"urnchain.coefficients", "urnchain.banded"},
    "poly": {"urnchain.coefficients", "urnchain.analysis"},
    "simulate": {"urnchain.coefficients", "urnchain.urns"},
    "compare": {"urnchain.coefficients", "urnchain.urns", "urnchain.analysis"},
}


def heavy_packages(modules: list[str]) -> set[str]:
    # importing scipy.stats took about a second of every cold start, and
    # numpy about half of the rest; only the urn samplers need numpy
    assert "urnchain" in modules
    return {name.split(".")[0] for name in modules} & {"numpy", "scipy"}


def assert_no_numpy_or_scipy(modules: list[str]) -> None:
    assert heavy_packages(modules) == set()


# one small run of each command that draws no urn; none may need numpy
ALGEBRA_COMMANDS = {
    "coeffs": ["coeffs", "--M", "2", "--N", "3", "--gamma", "1", "--n-max", "6"],
    "coeffs_float_json": [
        "coeffs", "--alpha", "0.5", "--beta", "0.3", "--gamma", "1", "--format", "json",
    ],
    "verify_exact": ["verify", "--M", "2", "--N", "3", "--gamma", "1", "--T", "40"],
    "verify_float": ["verify", "--alpha", "0.5", "--beta", "0.3", "--gamma", "1", "--T", "40"],
    "poly": ["poly", "--M", "2", "--N", "3", "--gamma", "1", "--x", "3/4", "--x", "2"],
    "graph": ["graph", "--M", "2", "--N", "3", "--gamma", "1", "--which", "PL"],
}


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
        rows = parse_csv(out)
        for n, row in enumerate(rows):
            trow = reconstruct_row(c, n)
            expected = [c.x[n], c.y[n], c.t[n], c.r[n], c.s[n], trow.a, trow.b, trow.c, trow.d]
            for key, value in zip("xytrsabcd", expected):
                # a float's text is its repr, the shortest that round-trips
                assert row[key] == ("" if value is None else repr(value)), (n, key)
                assert value is None or float(row[key]) == value
        # float zeros and ones read as floats, as they do in JSON
        assert (rows[0]["t"], rows[0]["r"], rows[0]["s"]) == ("0.0", "0.0", "1.0")


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
        # near alpha = gamma = -1 the float formulas cancel: three row-sum
        # checks read 2.2e-5, far above the float tolerance
        code, out, err = run_cli(capsys, "verify", *CANCELLATION, "--T", "50")
        assert (code, err) == (3, "")
        payload = parse_strict_json(out)
        assert (payload["passed"], payload["tolerance"]) == (False, 1e-12)
        deviation = 2.2341376228807164e-05
        assert {check["name"]: (check["passed"], check["max_deviation"])
                for check in payload["checks"]} == {
            "coefficient_row_sums": (False, deviation),
            "coefficient_bounds": (True, 0.0),
            "boundary_values": (True, 0.0),
            "band_structure": (True, 0.0),
            "factor_row_sums": (False, deviation),
            "lu_identity": (True, 0.0),
            "product_row_sums": (False, deviation),
        }

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

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf", "0"])
    def test_nan_or_negative_tolerance_exits_two(self, tolerance):
        # the gate's threshold is the kind's constant: no flag loosens it,
        # and any --tolerance is argparse's usage error
        code, out, err = run(["verify", *CANCELLATION, "--T", "50", "--tolerance", tolerance])
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: --tolerance {tolerance}" in err


class TestSimulate:
    ARGS = ["simulate", "--M", "2", "--N", "3", "--gamma", "1", "--initial", "4"]

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

    def test_exception_without_a_message_is_named_by_its_type(self, monkeypatch, capsys):
        # a table too large for memory raises MemoryError(), whose str() is empty
        def table(*args):
            raise MemoryError()

        monkeypatch.setattr("urnchain.urns._urn_table", table)
        result = run_cli(capsys, *self.ARGS, "--steps", "3", "--trials", "1", "--aggregate")
        assert result == (1, "", "error: MemoryError\n")

    @pytest.mark.parametrize("aggregate", [["--aggregate"], []])
    def test_table_too_large_to_build_exits_one(self, capsys, aggregate):
        # 10**30 steps ask for an array numpy refuses to shape, so nothing
        # is allocated; numpy's wording varies between versions
        code, out, err = run_cli(
            capsys, "simulate", "--M", "2", "--N", "3", "--gamma", "1",
            "--steps", str(10**30), "--trials", "1", *aggregate,
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

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

    def test_trajectory_mode_starts_no_pool(self, monkeypatch, tmp_path, capsys):
        # two chunks at --threads 2 on two usable CPUs: the paths are drawn
        # in order, so no pool is built and the bytes are --threads 1's
        def no_pool(max_workers):
            raise AssertionError(f"a pool of {max_workers} threads was built")

        monkeypatch.setattr("urnchain.urns._usable_cpus", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        outputs = []
        for threads in ("1", "2"):
            path = tmp_path / f"paths-{threads}.csv"
            code, _, _ = run_cli(
                capsys, *self.ARGS, "--steps", "3", "--trials", str(CHUNK_TRIALS + 7),
                "--seed", "42", "--threads", threads, "--output", str(path),
            )
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

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

    def test_trajectory_output_is_pinned(self):
        replay("trajectory/pinned")

    @pytest.mark.parametrize("block_rows", [1, 5, 2048])
    def test_trajectory_pieces_follow_the_paths(self, monkeypatch, block_rows):
        # the rows as trajectory mode once enumerated them are the
        # reference; chunks of 2 lanes split the 5 trials, and blocks of
        # 5 rows split the 7-entry paths
        monkeypatch.setattr("urnchain.cli._BLOCK_ROWS", block_rows)
        monkeypatch.setattr("urnchain.urns.CHUNK_TRIALS", 2)
        chunks = list(_sample_paths(IntegerParameters(2, 3, 1), 4, COMPOSITE, 5, 7, steps=3))
        assert [len(paths) for paths in chunks] == [2, 2, 1]
        labels = [(0, 0)] + [(step, sub) for step in range(1, 4) for sub in (1, 2)]
        pieces = list(_trajectory_text("csv", iter(chunks), iter(labels)))
        assert all(piece.count("\n") <= block_rows for piece in pieces)
        rows = [tuple(map(int, line.split(","))) for line in "".join(pieces).splitlines()]
        assert rows == [
            (trial, step, sub, state)
            for trial, path in enumerate(np.concatenate(chunks).tolist())
            for (step, sub), state in zip(labels, path)
        ]

    @given(st.data())
    def test_trajectory_text_equals_the_row_enumeration(self, data):
        # int64 paths of 0-5 trials and 0-4 steps of one or two sub-steps,
        # split into chunks at up to three random trial boundaries and
        # written in pieces of at most 1-12 rows: whole trials of one
        # chunk, or segments of a longer trial
        sub_steps = data.draw(st.sampled_from([(1,), (1, 2)]))
        steps, trials = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 5))
        paths = data.draw(arrays(
            np.int64, (trials, 1 + steps * len(sub_steps)), elements=st.integers(0, 2**63 - 1)
        ))
        cuts = sorted(data.draw(st.lists(st.integers(0, trials), max_size=3)))
        labels = [(0, 0)] + [(step, sub) for step in range(1, steps + 1) for sub in sub_steps]
        rows = [
            (trial, step, sub, state)
            for trial, path in enumerate(paths.tolist())
            for (step, sub), state in zip(labels, path)
        ]
        header = ["trial", "step", "sub_step", "state"]
        payload = {"command": "simulate", "seed": 0, "trials": trials}
        with mock.patch("urnchain.cli._BLOCK_ROWS", data.draw(st.integers(1, 12))):
            text = "".join(_trajectory_text("csv", np.split(paths, cuts), iter(labels)))
            objects = _trajectory_text("json", np.split(paths, cuts), iter(labels))
            streamed = "".join(_json_chunks(payload, "rows", objects))
        cells = io.StringIO()
        csv.writer(cells, lineterminator="\n").writerows(rows)
        assert text == cells.getvalue()
        assert streamed == json.dumps(
            {**payload, "rows": [dict(zip(header, row)) for row in rows]},
            indent=2, sort_keys=True,
        ) + "\n"

    @pytest.mark.parametrize("case", names("trajectory-table"))
    def test_trajectory_table_is_pinned(self, tmp_path, case):
        replay(f"trajectory-table/{case}", output=tmp_path / "paths.txt")

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

    @pytest.mark.parametrize("case", names("aggregate"))
    def test_aggregate_output_is_pinned(self, case):
        replay(f"aggregate/{case}")

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
        # exact JSON writes every value as a p/q string, q_0 included
        for fmt, read in (("csv", parse_csv), ("json", lambda out: json.loads(out)["rows"])):
            code, out, _ = run_cli(
                capsys, "poly", "--M", "2", "--N", "3", "--gamma", "1",
                "--x", "1", "--n-max", "50", "--format", fmt,
            )
            assert code == 0
            rows = read(out)
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

    @pytest.mark.parametrize("form", [["--M", "2", "--N", "3"], ["--alpha", ".5", "--beta", ".3"]])
    def test_every_point_is_checked_before_the_table_is_built(self, monkeypatch, capsys, form):
        def table(*args):
            raise AssertionError("lu_coefficients ran before every --x was checked")

        monkeypatch.setattr("urnchain.coefficients.lu_coefficients", table)
        code, out, err = run_cli(
            capsys, "poly", *form, "--gamma", "1", "--x", "1/3", "--x", "abc", "--x", "1e400"
        )
        assert (code, out) == (2, "")
        assert err == "error: invalid parameters: --x must be a rational number (got 'abc')\n"

    @pytest.mark.parametrize("point", ["1e400", "-1e400"])
    def test_point_beyond_double_range_exits_two(self, capsys, point):
        code, out, err = run_cli(
            capsys, "poly", "--alpha", ".5", "--beta", ".3", "--gamma", "1", f"--x={point}"
        )
        assert code == 2 and out == ""
        assert "--x" in err


class TestInputValidation:
    def test_non_integer_gamma_with_integer_form(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--M", "2", "--N", "3", "--gamma", "0.5")
        assert code == 2 and "--gamma" in err


class TestInputGates:
    @pytest.mark.parametrize("case", names("gate"))
    def test_exits_two_naming_the_first_bad_input(self, case):
        replay(f"gate/{case}")

    @pytest.mark.parametrize("command", names("help"))
    def test_help_is_pinned(self, command):
        replay(f"help/{command}")


@st.composite
def graph_parameters(draw) -> tuple[list[str], object]:
    """A small admissible triple of either form, as flags and as the
    parameters they build."""
    if draw(st.booleans()):
        M, N, gamma = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(0, 6))
        return ["--M", str(M), "--N", str(N), "--gamma", str(gamma)], IntegerParameters(M, N, gamma)
    alpha, gamma = draw(st.floats(-0.9, 5)), draw(st.floats(-0.9, 5))
    beta = max(-0.9, alpha + draw(st.floats(-0.9, 0.9)))
    # --flag=value, so that a negative value is never read as a flag
    flags = [f"--alpha={alpha!r}", f"--beta={beta!r}", f"--gamma={gamma!r}"]
    return flags, Parameters(alpha, beta, gamma)


class TestGraph:
    @settings(max_examples=100, deadline=None)
    @given(graph_parameters(), st.sampled_from(["P", "PL", "PU"]), st.integers(1, 8))
    def test_edges_are_the_nonzero_entries_of_the_dense_matrix(self, parameters, which, size):
        flags, params = parameters
        code, out, err = run(["graph", *flags, "--which", which, f"--T={size}"])
        assert (code, err) == (0, "")
        builder = {"P": "reconstructed_matrix", "PL": "death_factor", "PU": "birth_factor"}[which]
        dense = to_dense(getattr(banded, builder)(lu_coefficients(params, size - 1), size))
        expected = [(i, j, str(value))
                    for i, row in enumerate(dense) for j, value in enumerate(row) if value != 0]
        edges = re.findall(r'^  (\d+) -> (\d+) \[label="([^"]*)"\];$', out, re.MULTILINE)
        assert [(int(i), int(j), label) for i, j, label in edges] == expected
        nodes = "".join(f"  {state};\n" for state in range(size))
        assert out.startswith(f"digraph {which} {{\n  rankdir=LR;\n{nodes}") and out.endswith("}\n")
        assert out.count("\n") == 3 + size + len(expected)

    def test_a_non_finite_entry_exits_one_before_the_first_byte(self, capsys):
        # admissible, but the float formulas overflow: P and PL hold NaN
        triple = ["--alpha", "1e200", "--beta", "1e200", "--gamma", "1e200", "--T", "4"]
        for which in ("P", "PL"):
            assert run_cli(capsys, "graph", *triple, "--which", which) == (
                1, "", "error: value nan at state = 1 is not finite\n"
            )
        code, out, err = run_cli(capsys, "graph", *triple, "--which", "PU")
        assert (code, err) == (0, "")
        assert set(re.findall(r'label="([^"]*)"', out)) == {"0.5"}

    def test_format_flag_exits_two(self):
        # DOT is graph's one output: --format is argparse's usage error
        code, out, err = run(["graph", "--M", "2", "--N", "3", "--gamma", "1", "--format", "dot"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --format dot" in err

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


def assert_same_cells(csv_text: str, json_text: str, key: str) -> None:
    """The CSV table and the JSON table's rows under ``key`` hold the
    same cells: an empty cell is null, a string the same string, a bool
    True/False for true/false and a number the text json.dumps gives it."""
    header, *rows = csv.reader(io.StringIO(csv_text))
    objects = json.loads(json_text)[key]
    assert len(rows) == len(objects)
    for row, obj in zip(rows, objects):
        assert sorted(obj) == sorted(header)
        for name, text in zip(header, row):
            value = obj[name]
            if value is None:
                assert text == "", name
            elif isinstance(value, (str, bool)):
                assert text == str(value), name
            else:
                assert text == json.dumps(value), name


POINTS = st.lists(st.sampled_from(["1", "3/4", "-1/2", "1/3", "0", "2"]), min_size=1, max_size=3)


class TestOneTextPerValue:
    """A value prints as one text in every format: a float as its repr,
    which is its JSON number."""

    @staticmethod
    def both_formats(argv: list[str]) -> tuple[str, str]:
        outputs = []
        for fmt in ("csv", "json"):
            code, out, err = run([*argv, f"--format={fmt}"])
            assert (code, err) == (0, "")
            outputs.append(out)
        return outputs[0], outputs[1]

    @settings(max_examples=50, deadline=None)
    @given(graph_parameters(), st.integers(0, 8))
    def test_coeffs_csv_and_json_hold_the_same_cells(self, parameters, n_max):
        flags, _ = parameters
        assert_same_cells(*self.both_formats(["coeffs", *flags, f"--n-max={n_max}"]), "rows")

    @settings(max_examples=50, deadline=None)
    @given(graph_parameters(), st.integers(0, 8), POINTS)
    def test_poly_csv_and_json_hold_the_same_cells(self, parameters, n_max, points):
        flags, _ = parameters
        argv = ["poly", *flags, f"--n-max={n_max}", *(f"--x={point}" for point in points)]
        assert_same_cells(*self.both_formats(argv), "rows")

    def test_compare_csv_and_json_hold_the_same_cells(self):
        argv = ["compare", "--M", "2", "--N", "3", "--gamma", "1", "--initial", "2",
                "--initial", "5", "--trials", "2000", "--seed", "7"]
        assert_same_cells(*self.both_formats(argv), "rows")

    def test_aggregate_csv_and_json_hold_the_same_cells(self):
        argv = ["simulate", "--M", "2", "--N", "3", "--gamma", "1", "--initial", "4",
                "--steps", "3", "--trials", "100", "--seed", "2024", "--aggregate"]
        assert_same_cells(*self.both_formats(argv), "counts")

    @settings(max_examples=50, deadline=None)
    @given(graph_parameters(), st.integers(1, 8))
    def test_graph_labels_are_the_json_coefficients(self, parameters, size):
        flags, _ = parameters
        code, out, err = run(["graph", *flags, "--which=P", f"--T={size}"])
        assert (code, err) == (0, "")
        code, table, err = run(["coeffs", *flags, f"--n-max={size - 1}", "--format=json"])
        assert (code, err) == (0, "")
        expected = []
        for row in json.loads(table)["rows"]:
            n = row["n"]
            # row n holds d, c, b and a in columns n - 2 to n + 1
            for j, name in enumerate("dcba", n - 2):
                value = row[name]
                if 0 <= j < size and value is not None and Fraction(value) != 0:
                    text = value if isinstance(value, str) else json.dumps(value)
                    expected.append((n, j, text))
        edges = re.findall(r'^  (\d+) -> (\d+) \[label="([^"]*)"\];$', out, re.MULTILINE)
        assert [(int(i), int(j), label) for i, j, label in edges] == expected


class TestPinnedOutput:
    """Corpus cases (tests/golden) under the names their bytes were first
    pinned with in this file."""

    @pytest.mark.parametrize("case", names("verify-graph"))
    def test_verify_and_graph_output_is_pinned(self, tmp_path, case):
        # a verify that fails (exit 3) still writes its report to --output
        replay(f"verify-graph/{case}", output=tmp_path / "report.txt")

    @pytest.mark.parametrize("case", names("json-table"))
    def test_json_table_output_is_pinned(self, tmp_path, case):
        replay(f"json-table/{case}", output=tmp_path / "table.json")

    @pytest.mark.parametrize("fmt", names("compare"))
    def test_compare_output_is_pinned(self, tmp_path, fmt):
        replay(f"compare/{fmt}", output=tmp_path / f"compare.{fmt}")


# table cells and field names as the CLI writes them: scalars only, with
# strings that JSON must escape, one with str.format braces and two that
# hold the text of a table key's line in the envelope
TRICKY_TEXT = st.sampled_from([
    'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f", "über ∑ 🎲", "{0} }{",
    '\n  "rows": []', '": []',
])
CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    TRICKY_TEXT,
)
NAMES = st.text(max_size=6) | TRICKY_TEXT
# the cells of the CLI's CSV tables: None, bools, ints, finite floats and
# exact rationals as p/q strings (see cli._exact)
CSV_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(Fraction, st.integers(-(10**300), 10**300), st.integers(1, 10**300)).map(str),
)


@st.composite
def json_tables(draw, cells=CELLS, columns=1):
    """A table of ``cells`` with ``columns`` or more columns under meta
    fields; the CLI's tables all have two or more."""
    header = draw(st.lists(NAMES, min_size=columns, max_size=5, unique=True))
    rows = draw(st.lists(st.tuples(*[cells] * len(header)), max_size=6))
    key = draw(st.sampled_from(["rows", "counts"]))
    # meta keys on both sides of either table key in sorted order
    meta = draw(st.dictionaries(
        st.sampled_from(["a", "command", "parameters", "rt", "schema", "z"]) | NAMES,
        CELLS,
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
        objects = _row_text("json", header, iter(rows))
        assert "".join(_json_chunks(payload, key, objects)) == expected

    @given(json_tables(CSV_CELLS, columns=2))
    def test_csv_rows_equal_the_csv_writer(self, table):
        # a one-column row of None is '""' to csv.writer, hence two columns
        _, _, header, rows = table
        cells = io.StringIO()
        csv.writer(cells, lineterminator="\n").writerows(rows)
        assert "".join(_row_text("csv", header, iter(rows))) == cells.getvalue()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_the_row_count(self, tmp_path, capsys, fmt):
        import numpy  # noqa: F401  (loaded untraced: its import is no table's memory)

        path = tmp_path / f"paths.{fmt}"
        tracemalloc.start()
        try:
            code = main([
                "simulate", "--M", "7", "--N", "3", "--gamma", "2", "--initial", "20",
                "--steps", "100", "--trials", "800", "--format", fmt, "--output", str(path),
            ])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, *capsys.readouterr()) == (0, "", "")
        # 160800 rows, about 1.9 MB of CSV and 14.4 MB of JSON; one string
        # of the JSON rows peaked at 162 MiB
        assert path.stat().st_size > {"csv": 1_800_000, "json": 13_000_000}[fmt]
        assert peak < 4 << 20

    @staticmethod
    def trajectory_peak(monkeypatch, tmp_path, chunks: int, threads: int) -> float:
        """Traced peak memory, in chunks, of a trajectory run of ``chunks``
        chunks of 256 trials of 501-entry paths, about 1 MB each, on
        ``threads`` threads of as many usable CPUs."""
        monkeypatch.setattr("urnchain.urns.CHUNK_TRIALS", 256)
        monkeypatch.setattr("urnchain.urns._usable_cpus", lambda: threads)
        steps = 250
        chunk = 256 * (1 + 2 * steps) * 8
        path = tmp_path / "paths.csv"
        argv = ["simulate", "--M", "2", "--N", "3", "--gamma", "1", "--initial", "20",
                "--output", str(path), "--threads", str(threads)]
        # a warm-up run of two chunks loads, untraced, whatever the first
        # run loads (numpy, the package's modules, the pool), which is no
        # chunk's memory, so the bound holds for the test run alone
        assert main([*argv, "--steps", "1", "--trials", "512"]) == 0
        tracemalloc.start()
        try:
            code = main([*argv, "--steps", str(steps), "--trials", str(chunks * 256)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and path.stat().st_size > chunks * 1_500_000
        return peak / chunk

    def test_trajectory_memory_holds_two_chunks_at_one_thread(self, monkeypatch, tmp_path):
        # the writer drains one chunk while the next is drawn, where a
        # run-long array of paths would hold all four
        assert self.trajectory_peak(monkeypatch, tmp_path, 4, 1) < 2.5

    def test_trajectory_memory_holds_two_chunks_at_two_threads(self, monkeypatch, tmp_path):
        # trajectory mode draws its chunks in order on the writer's thread,
        # where a pool of two workers ran up to three chunks ahead of it
        assert self.trajectory_peak(monkeypatch, tmp_path, 8, 2) < 2.5


# flag values that each parse, fail to parse, or trip a gate: NaN,
# infinities, a double overflow, a division by zero, a power that is not
# a literal, a word, and values at and below the bounds
ODD = ["nan", "inf", "-inf", "1e400", "1/0", "2**63", "x", "-1", "0"]


def mostly(valid):
    """Four times in five a value from ``valid``, else an odd one."""
    return st.integers(0, 4).flatmap(lambda k: valid if k < 4 else st.sampled_from(ODD))


def size(top: int):
    return mostly(st.integers(0, top).map(str))


def choice(*values):
    return mostly(st.sampled_from(values))


# 2**63 written out is a start state or seed that must be refused, or
# taken, quickly; as a size it would be a run without end
HUGE = str(2**63)
FORMS = {
    "integer": {"--M": choice("1", "2", "7", HUGE), "--N": choice("1", "3", "5"),
                "--gamma": choice("0", "1", "2", HUGE)},
    # alpha = beta = 1e308 overflows the float coefficients: exit 1, or 3 in verify
    "general": {"--alpha": choice("0.5", "-0.5", "2", "1e308"),
                "--beta": choice("0.3", "-0.5", "1.2", "1e308"),
                "--gamma": choice("1", "0.5", "-0.5", "0", HUGE)},
}
TABLE_FORMATS = choice("csv", "json", "json", "dot")
SAMPLING_FLAGS = {
    "--initial": choice("0", "4", "40", HUGE),
    "--trials": size(50),
    "--threads": choice("1", "2"),
    "--seed": choice("7", HUGE),
    "--format": TABLE_FORMATS,
}
COMMAND_FLAGS = {
    "coeffs": {"--n-max": size(60), "--format": TABLE_FORMATS},
    "verify": {"--T": size(60)},
    "simulate": {
        **SAMPLING_FLAGS, "--steps": size(20),
        "--experiment": st.sampled_from(["1", "2", "composite", "3"]),
    },
    "compare": SAMPLING_FLAGS,
    "poly": {"--n-max": size(60), "--x": choice("1", "3/4", "-1/2"), "--format": TABLE_FORMATS},
    "graph": {
        "--T": size(60), "--which": st.sampled_from(["P", "PL", "PU", "Q"]),
        "--format": st.sampled_from(["dot", "csv"]),
    },
}
# flags whose defaults make a long run (compare's 100000 trials, verify's
# T = 200) come first with a small value; a later one overrides it
LEADING = {"compare": "--trials", "verify": "--T"}


@st.composite
def argvs(draw) -> list[str]:
    """A command, a parameter form (or a mix of both forms' flags) and
    some of the command's flags, their values mostly ones it takes."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    form = draw(st.sampled_from(["integer", "general", "mixed"]))
    if form == "mixed":
        mixed = {**FORMS["integer"], **FORMS["general"]}
        params = {name: mixed[name] for name in draw(st.sets(st.sampled_from(sorted(mixed))))}
    else:
        params = FORMS[form]
    flags = COMMAND_FLAGS[command]
    chosen = [*params, *draw(st.lists(st.sampled_from(sorted(flags)), max_size=6))]
    if command in LEADING:
        chosen.insert(0, LEADING[command])
    # --flag=value, so that a value like -inf is never read as a flag
    argv = [command, *(f"{name}={draw({**flags, **params}[name])}" for name in chosen)]
    if command == "simulate" and draw(st.booleans()):
        argv.append("--aggregate")
    return argv


class TestAnyArgv:
    @settings(max_examples=200, deadline=None)
    @given(argvs())
    def test_exit_code_and_streams_follow_the_contract(self, argv):
        code, out, err = run(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code in (1, 2):
            assert out == ""
        if code == 1:
            # one line: "error: " and a message
            assert err.startswith("error: ") and err[len("error: "):].strip()
            assert err.count("\n") == 1 and err.endswith("\n")
        formats = [arg.split("=", 1)[1] for arg in argv if arg.startswith("--format=")]
        if (code == 0 and formats[-1:] == ["json"]) or (argv[0] == "verify" and code in (0, 3)):
            parse_strict_json(out)


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

    def test_import_loads_no_numpy_or_scipy(self):
        result = run_python("-c", "import sys, urnchain; print(*sys.modules)")
        assert result.returncode == 0, result.stderr
        assert_no_numpy_or_scipy(result.stdout.split())

    def test_help_loads_no_numpy_or_scipy(self):
        result = run_python("-X", "importtime", "-m", "urnchain", "--help")
        assert result.returncode == 0 and result.stdout.startswith("usage: urnchain")
        modules = imported_modules(result.stderr)
        assert_no_numpy_or_scipy(modules)
        assert package_modules(modules) == set()
        assert "dataclasses" not in modules

    @pytest.mark.parametrize("argv", [
        [], ["coeffs", "--bad"], ["coeffs", "--n-max", "x"], ["compare", "--help"],
    ], ids=["bare", "unknown flag", "bad value", "command help"])
    def test_help_and_usage_errors_load_the_cli_alone(self, argv):
        result = run_python("-X", "importtime", "-m", "urnchain", *argv)
        assert result.returncode == (0 if "--help" in argv else 2)
        assert "usage: urnchain" in result.stdout + result.stderr
        modules = imported_modules(result.stderr)
        assert package_modules(modules) == set()
        assert "dataclasses" not in modules

    @pytest.mark.parametrize("name", ALGEBRA_COMMANDS)
    def test_algebra_command_loads_no_numpy_or_scipy(self, name):
        argv = ALGEBRA_COMMANDS[name]
        result = run_python("-X", "importtime", "-m", "urnchain", *argv)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout
        modules = imported_modules(result.stderr)
        assert_no_numpy_or_scipy(modules)
        assert package_modules(modules) == COMMAND_MODULES[argv[0]]
        assert "dataclasses" not in modules

    def test_help_and_usage_errors_restore_the_digit_limit(self):
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this interpreter has no int-to-str digit limit")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)  # not the default, so a restore to it shows
        try:
            for argv in (["--help"], ["coeffs", "--bad"]):
                with pytest.raises(SystemExit):
                    main(argv)
                assert sys.get_int_max_str_digits() == 5000, argv
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("name", ALGEBRA_COMMANDS)
    def test_algebra_command_runs_without_numpy(self, name):
        # None in sys.modules makes every import of numpy raise ImportError
        argv = ALGEBRA_COMMANDS[name]
        blocked = run_python(
            "-c",
            "import sys; sys.modules['numpy'] = None\n"
            "from urnchain.cli import main; sys.exit(main(sys.argv[1:]))",
            *argv,
            text=False,
        )
        normal = run_python("-m", "urnchain", *argv, text=False)
        assert (blocked.returncode, blocked.stderr) == (0, b"")
        assert normal.returncode == 0 and normal.stdout
        assert blocked.stdout == normal.stdout

    @pytest.mark.parametrize("argv", [
        ["simulate", "--M", "2", "--N", "3", "--gamma", "1", "--initial", "4", "--trials", "5"],
        ["compare", "--M", "2", "--N", "3", "--gamma", "1", "--initial", "4", "--trials", "500"],
    ], ids=["simulate", "compare"])
    def test_sampler_command_loads_numpy(self, argv):
        # the guard above is not vacuous: the urn samplers still import it
        result = run_python("-X", "importtime", "-m", "urnchain", *argv)
        assert result.returncode == 0, result.stderr[-2000:]
        modules = imported_modules(result.stderr)
        assert heavy_packages(modules) == {"numpy"}
        assert package_modules(modules) == COMMAND_MODULES[argv[0]]
        assert "dataclasses" not in modules


class TestClosedStdout:
    EXACT_FORM = ["--M", "2", "--N", "3", "--gamma", "1"]

    @pytest.mark.parametrize("argv, code", [
        (["simulate", *EXACT_FORM, "--trials", "100000", "--steps", "20"], 1),
        (["coeffs", *EXACT_FORM, "--n-max", "2000", "--format", "json"], 1),
        (["graph", *EXACT_FORM, "--T", "2000"], 1),
        (["verify", *EXACT_FORM, "--T", "10"], 0),
    ], ids=["simulate", "coeffs-json", "graph", "verify-fits-the-pipe"])
    def test_reader_that_goes_away_ends_the_command_quietly(self, argv, code):
        # each table runs past what a pipe holds (64 KiB on Linux), so it
        # writes after the reader has gone; verify's report of about 1 KB
        # is in the pipe before the reader reads 30 bytes of it
        process = subprocess.Popen(
            [sys.executable, "-m", "urnchain", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=checkout_env(),
        )
        with process:
            assert len(process.stdout.read(30)) == 30
            process.stdout.close()
            err = process.stderr.read()
            assert (process.wait(timeout=120), err) == (code, b"")
