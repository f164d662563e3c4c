"""The benchmark's own tests: smoke runs of every workload, declared
metric names, and the output checkers against tampered outputs.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from urnchain import cli  # noqa: E402

DECLARED = run.load_declared()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    record = run.run(workload, seed=5, seconds=0, trace=trace, smoke=True)
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] > len(record["commands"])
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in section]
    assert all(math.isfinite(m["value"]) for m in record["metrics"].values())
    # every name the report prints is declared, or is the time of a command kind
    kind_times = {f"{kind}_s" for kind in workloads.KINDS}
    declared = {m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    assert set(record["summary"]) <= declared | kind_times
    assert record["provenance"]["nproc"] == workloads.NPROC


def test_per_layer_declarations_match_tracing():
    declared = [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]]
    assert declared == [(name, unit, better)
                        for name, (unit, better, _) in tracing.LAYER_METRICS.items()]


def test_same_seed_same_commands():
    assert workloads.plan("algebra", 7) == workloads.plan("algebra", 7)
    assert workloads.plan("algebra", 7).commands != workloads.plan("algebra", 8).commands


def test_threads_never_exceed_nproc():
    for workload in workloads.WORKLOADS:
        plan = workloads.plan(workload, 3)
        for cmd in [*plan.commands, *(c for pair in plan.once for c in pair)]:
            assert int(cmd.flags.get("--threads", 1)) <= workloads.NPROC


def _output(tmp_path, argv: list[str]) -> str:
    path = tmp_path / "out"
    assert cli.main([*argv, f"--output={path}"]) == 0
    return path.read_text(encoding="utf-8")


def _cmd(kind: str, *argv: str) -> workloads.Command:
    return workloads.Command(kind, argv)


def test_checker_flags_nan_in_json(tmp_path):
    cmd = _cmd("poly", "poly", "--alpha=0.5", "--beta=0.3", "--gamma=1", "--x=1",
               "--n-max=5", "--format=json")
    text = _output(tmp_path, list(cmd.argv))
    assert checks.check(cmd.kind, cmd.flags, text) == []
    tampered = text.replace('"q": 1.0', '"q": NaN', 1)
    assert tampered != text
    assert checks.check(cmd.kind, cmd.flags, tampered)


def test_checker_flags_nan_in_csv(tmp_path):
    cmd = _cmd("poly", "poly", "--alpha=0.5", "--beta=0.3", "--gamma=1", "--x=-1/2",
               "--n-max=5")
    text = _output(tmp_path, list(cmd.argv))
    assert checks.check(cmd.kind, cmd.flags, text) == []
    lines = text.splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
    assert checks.check(cmd.kind, cmd.flags, "\n".join(lines) + "\n")


@pytest.mark.parametrize("experiment", ["1", "2", "composite"])
def test_checker_flags_off_band_trajectory_move(tmp_path, experiment):
    cmd = _cmd("simulate_traj", "simulate", "--M=2", "--N=3", "--gamma=1", "--initial=6",
               "--steps=4", "--trials=3", f"--experiment={experiment}")
    text = _output(tmp_path, list(cmd.argv))
    assert checks.check(cmd.kind, cmd.flags, text) == []
    lines = text.splitlines()
    trial, step, sub, state = lines[-1].split(",")
    jump = 3 if experiment != "1" else -3
    lines[-1] = ",".join([trial, step, sub, str(int(state) + jump)])
    assert checks.check(cmd.kind, cmd.flags, "\n".join(lines) + "\n")


def test_checker_flags_wrong_count_sum(tmp_path):
    cmd = _cmd("simulate_agg", "simulate", "--M=2", "--N=3", "--gamma=1", "--initial=4",
               "--steps=3", "--trials=500", "--aggregate", "--format=json")
    text = _output(tmp_path, list(cmd.argv))
    assert checks.check(cmd.kind, cmd.flags, text) == []
    payload = json.loads(text)
    payload["counts"][0]["count"] += 1
    assert checks.check(cmd.kind, cmd.flags, json.dumps(payload))


def test_checker_flags_inexact_coefficients(tmp_path):
    cmd = _cmd("coeffs", "coeffs", "--M=2", "--N=3", "--gamma=1", "--n-max=6", "--format=json")
    text = _output(tmp_path, list(cmd.argv))
    assert checks.check(cmd.kind, cmd.flags, text) == []
    payload = json.loads(text)
    payload["rows"][3]["x"] = "1/2"
    assert checks.check(cmd.kind, cmd.flags, json.dumps(payload))


def test_checker_flags_rejected_compare_row(tmp_path):
    cmd = _cmd("compare", "compare", "--M=2", "--N=3", "--gamma=1", "--initial=3",
               "--trials=5000", "--format=json")
    text = _output(tmp_path, list(cmd.argv))
    assert checks.check(cmd.kind, cmd.flags, text) == []
    payload = json.loads(text)
    payload["rows"][0]["chi_square"] = 60.0
    assert checks.check(cmd.kind, cmd.flags, json.dumps(payload))


@pytest.mark.parametrize("statistic,dof", [(10.8276, 1), (13.8155, 2), (16.2662, 3)])
def test_chi2_tail_matches_tables(statistic, dof):
    assert checks.chi2_sf(statistic, dof) == pytest.approx(0.001, rel=1e-4)


def test_parse_importtime_attributes_to_owning_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        20 |         20 |       numpy.linalg",
        "import time:        30 |         30 |       ctypes",
        "import time:       400 |        450 |     scipy.stats",
        "import time:        10 |        460 |   urnchain.analysis",
        "import time:         5 |        615 | urnchain",
    ])
    times = run.parse_importtime(stderr)
    # numpy.linalg is first imported by scipy.stats but is numpy's own time;
    # ctypes is charged to scipy.stats, which imported it
    assert times == pytest.approx({"import.numpy_s": 170e-6, "import.scipy_s": 430e-6,
                                   "import.urnchain_s": 15e-6})


def _record(workload, seed, value, failed=0):
    return {"provenance": {"workload": workload, "trace": 0, "seed": seed},
            "failed": failed, "summary": {"wall_s": {"value": value}}}


def _write(directory: Path, records):
    directory.mkdir()
    for index, record in enumerate(records):
        (directory / f"{index}.json").write_text(json.dumps(record))


def test_paired_comparison_verdicts(tmp_path):
    parent = [_record("algebra", s, 10.0 + 0.01 * s) for s in range(10)]
    faster = [_record("algebra", s, 8.0 + 0.01 * s) for s in range(10)]
    slower = [_record("algebra", s, 14.0 + 0.01 * s) for s in range(10)]
    _write(tmp_path / "p", parent)
    _write(tmp_path / "f", faster)
    _write(tmp_path / "s", slower)
    rows, bad = compare.compare(tmp_path / "p", tmp_path / "f", DECLARED)
    assert [r["verdict"] for r in rows] == ["gain"] and not bad
    rows, bad = compare.compare(tmp_path / "p", tmp_path / "s", DECLARED)
    assert [r["verdict"] for r in rows] == ["regression"] and bad
    noisy = [_record("algebra", s, 10.0 * (1 + (s % 2))) for s in range(10)]
    _write(tmp_path / "n", noisy)
    rows, _ = compare.compare(tmp_path / "p", tmp_path / "n", DECLARED)
    assert [r["verdict"] for r in rows] == ["unresolved"]
