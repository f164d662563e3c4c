"""Record the stdout corpus: the exit code, stdout and stderr of every case.

    python tests/golden/record.py

runs each case's argv in process through ``urnchain.cli.main`` and
rewrites ``manifest.json`` and the text files under ``text/`` beside it.
``tests/test_golden.py`` replays the manifest, so a change to any output
shows up as a diff of this directory, and the change that makes it names
its reason in CHANGES.md.

The cases are the outputs the test suite pinned byte for byte, the edge
cases earlier changes were checked on, the parameter gates, and every
command the benchmark runs (``bench/workloads.py``, seeds 1-3, each table
command in CSV and in JSON).  The manifest stores each argv literally, so
replaying it never reads ``bench/``.

Each stream is stored as a JSON string when it is one short line (or
empty), else as a text file under ``text/``, so that a diff shows the
bytes that moved.  The benchmark's commands, and any stream longer than
``TEXT_LIMIT`` bytes, keep only their sha256 and byte count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import sys
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = HERE / "manifest.json"
TEXT = HERE / "text"

INLINE_LIMIT = 240
TEXT_LIMIT = 1 << 14

# trials per vectorized chunk (urnchain.urns.CHUNK_TRIALS)
CHUNK = 1 << 14
INT64_MAX = 2**63 - 1

EXACT = ["--M", "2", "--N", "3", "--gamma", "1"]
FLOAT = ["--alpha", "0.9", "--beta", "0.1", "--gamma", "0.5"]
GENERAL = ["--alpha", "0.5", "--beta", "0.3", "--gamma", "1"]
JSON = ["--format", "json"]


def run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``urnchain <argv>``, run in process
    at an 80-column terminal (argparse wraps help text to it).  Python
    3.10's help heading "optional arguments:" reads as 3.11's "options:"."""
    from urnchain.cli import main

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: --help, or a usage error
            code = exc.code
    text = out.getvalue()
    if "--help" in argv:
        text = text.replace("optional arguments:", "options:")
    return code, text, err.getvalue()


def _aggregate() -> list:
    # two chunks, so --threads 2 runs them in parallel; recorded before
    # the sampler read its ball counts through the urn table
    cases = []
    for M, N, gamma, experiment, initial in [
        *[("2", "3", "1", experiment, initial)
          for experiment in ("1", "2", "composite") for initial in (0, 1, 2, 37)],
        ("1000003", "999983", "5", "composite", 37),
    ]:
        for threads in ("1", "2"):
            cases.append((
                f"aggregate/{M}-{N}-{gamma}-{experiment}-{initial}-{threads}",
                ["simulate", "--M", M, "--N", N, "--gamma", gamma, "--experiment", experiment,
                 "--initial", str(initial), "--steps", "3", "--trials", str(CHUNK + 2000),
                 "--seed", "2024", "--threads", threads, "--aggregate"],
            ))
    return cases


def _pinned() -> list:
    """The outputs the test suite pinned inline, under its case names."""
    trajectory = ["simulate", *EXACT, "--seed", "2024"]
    compare = ["compare", *EXACT, "--initial", "2", "--initial", "5000", "--initial", "200000",
               "--trials", "2000"]
    return [
        *_aggregate(),
        ("trajectory/pinned",
         ["simulate", *EXACT, "--initial", "4", "--steps", "3", "--trials", "3", "--seed", "2024"]),
        ("trajectory-table/experiment-1-csv",
         [*trajectory, "--experiment", "1", "--initial", "4", "--steps", "3", "--trials", "2"]),
        ("trajectory-table/experiment-2-csv",
         [*trajectory, "--experiment", "2", "--initial", "4", "--steps", "3", "--trials", "2"]),
        ("trajectory-table/experiment-2-json",
         [*trajectory, "--experiment", "2", "--initial", "4", "--steps", "1", "--trials", "2",
          *JSON]),
        ("trajectory-table/steps-0-json",
         [*trajectory, "--initial", str(INT64_MAX), "--steps", "0", "--trials", "2", *JSON]),
        ("trajectory-table/trials-0-csv",
         [*trajectory, "--initial", "4", "--steps", "3", "--trials", "0"]),
        ("verify-graph/verify-exact", ["verify", *EXACT, "--T", "5"]),
        ("verify-graph/verify-float", ["verify", *FLOAT, "--T", "5"]),
        ("verify-graph/verify-float-tolerance-0", ["verify", *FLOAT, "--T", "5", "--tolerance", "0"]),
        ("verify-graph/verify-float-400",
         ["verify", "--alpha", "2.764865653478637", "--beta", "2.1033914251575667",
          "--gamma", "2.227272722347545", "--T", "400", "--tolerance", "0"]),
        *[(f"verify-graph/graph-{which}", ["graph", *EXACT, "--which", which, "--T", "4"])
          for which in ("P", "PL", "PU")],
        ("json-table/coeffs-exact", ["coeffs", *EXACT, "--n-max", "1", *JSON]),
        ("json-table/coeffs-float", ["coeffs", *FLOAT, "--n-max", "1", *JSON]),
        ("json-table/poly-exact", ["poly", *EXACT, "--n-max", "1", "--x", "1", "--x", "3/4", *JSON]),
        ("json-table/poly-float", ["poly", *FLOAT, "--n-max", "1", "--x", "1", "--x", "3/4", *JSON]),
        ("json-table/simulate-composite",
         ["simulate", *EXACT, "--initial", "4", "--steps", "1", "--trials", "2", "--seed", "2024",
          *JSON]),
        ("json-table/simulate-experiment-1",
         ["simulate", *EXACT, "--experiment", "1", "--initial", "4", "--steps", "2",
          "--trials", "1", "--seed", "2024", *JSON]),
        ("json-table/simulate-aggregate",
         ["simulate", *EXACT, "--initial", "4", "--steps", "3", "--trials", "100",
          "--seed", "2024", "--aggregate", *JSON]),
        ("json-table/simulate-no-trials", ["simulate", *EXACT, "--trials", "0", *JSON]),
        ("json-table/compare",
         ["compare", *EXACT, "--initial", "1", "--trials", "1000", "--seed", "7", *JSON]),
        ("compare/csv", [*compare, "--format", "csv"]),
        ("compare/json", [*compare, "--format", "json"]),
    ]


def _gates() -> list:
    """Exit 2, empty stdout and one error line: each lower bound one below
    it, the urn-form gate, the first of two bad flags, each message of
    the parameter forms, and a bad --x after a good one."""
    return [
        ("gate/coeffs --n-max", ["coeffs", *EXACT, "--n-max", "-1"]),
        ("gate/poly --n-max", ["poly", *EXACT, "--n-max", "-1"]),
        ("gate/verify --T", ["verify", *EXACT, "--T", "0"]),
        ("gate/graph --T", ["graph", *EXACT, "--T", "0"]),
        *[(f"gate/simulate {flag}", ["simulate", *EXACT, flag, value])
          for flag, value in [("--initial", "-1"), ("--steps", "-1"), ("--trials", "-1"),
                              ("--threads", "0"), ("--seed", "-1")]],
        ("gate/compare --initial", ["compare", *EXACT, "--initial", "3", "--initial", "-2"]),
        *[(f"gate/compare {flag}", ["compare", *EXACT, flag, value])
          for flag, value in [("--trials", "0"), ("--threads", "0"), ("--seed", "-1")]],
        ("gate/simulate general form", ["simulate", *GENERAL]),
        ("gate/compare general form", ["compare", *GENERAL]),
        ("gate/simulate two bad flags", ["simulate", *EXACT, "--threads", "0", "--seed", "-1"]),
        ("gate/verify --T and --tolerance", ["verify", *EXACT, "--T", "0", "--tolerance", "nan"]),
        ("gate/coeffs no form", ["coeffs", "--gamma", "1"]),
        ("gate/coeffs no --gamma", ["coeffs", "--M", "2", "--N", "3"]),
        ("gate/coeffs --M alone", ["coeffs", "--M", "2", "--gamma", "1"]),
        ("gate/coeffs --alpha alone", ["coeffs", "--alpha", ".5", "--gamma", "1"]),
        ("gate/coeffs --gamma not a number",
         ["coeffs", "--alpha", ".5", "--beta", ".3", "--gamma", "x"]),
        ("gate/coeffs --N 0", ["coeffs", "--M", "2", "--N", "0", "--gamma", "1"]),
        *[(f"gate/coeffs {' '.join(flags)}", ["coeffs", *flags]) for flags in [
            ["--alpha", "-1", "--beta", "0", "--gamma", "0"],
            ["--alpha", ".5", "--beta", "2", "--gamma", "0"],
            ["--alpha", "nan", "--beta", ".3", "--gamma", "1"],
            ["--alpha", ".5", "--beta", ".3", "--gamma", "-1.5"],
            ["--alpha", "-2", "--beta", ".5", "--gamma", "-3"],
            ["--M", "0", "--N", "3", "--gamma", "1"],
            ["--M", "2", "--N", "3", "--gamma", "-1"],
            ["--M", "2", "--N", "3", "--gamma", "1.5"],
        ]],
        # at an --n-max whose table takes a second to build
        ("gate/poly --x after a good point",
         ["poly", *EXACT, "--n-max", "3000", "--x", "1/3", "--x", "abc"]),
    ]


def _help() -> list:
    return [("help/urnchain", ["--help"])] + [
        (f"help/{name}", [name, "--help"])
        for name in ("coeffs", "verify", "simulate", "compare", "poly", "graph")
    ]


def _edges() -> list:
    """Boundaries earlier changes were checked on."""
    simulate = ["simulate", *EXACT, "--seed", "11"]
    start = ["simulate", "--M", "1", "--N", "1", "--gamma", "0", "--initial", str(INT64_MAX),
             "--trials", "2"]
    cases = []
    for mode, flags in (("paths", []), ("aggregate", ["--aggregate"])):
        cases += [
            (f"edge/{mode}-trials-0", [*simulate, "--initial", "4", "--steps", "3",
                                       "--trials", "0", *flags]),
            (f"edge/{mode}-steps-0", [*simulate, "--initial", "4", "--steps", "0",
                                      "--trials", "3", *flags]),
            *[(f"edge/{mode}-experiment-{experiment}",
               [*simulate, "--experiment", experiment, "--initial", "6", "--steps", "4",
                "--trials", "5", *flags]) for experiment in ("1", "2")],
            *[(f"edge/{mode}-int64-start-steps-{steps}", [*start, "--steps", steps, *flags])
              for steps in ("0", "1")],
            *[(f"edge/{mode}-chunk-plus-7-threads-{threads}",
               [*simulate, "--initial", "5", "--steps", "2", "--trials", str(CHUNK + 7),
                "--threads", threads, *flags]) for threads in ("1", "2")],
        ]
    # a trial of 2201 rows, longer than the CLI's 2048-row trajectory block
    long_trial = [*simulate, "--initial", "5", "--steps", "1100", "--trials", "3"]
    cases += [("edge/paths-long-trial-csv", long_trial),
              ("edge/paths-long-trial-json", [*long_trial, *JSON])]
    for form, params in (("exact", EXACT), ("general", GENERAL)):
        cases += [(f"edge/verify-{form}-T-{T}", ["verify", *params, "--T", T]) for T in "123"]
    cases += [
        (f"edge/verify-exact-tolerance-{tolerance}",
         ["verify", *EXACT, "--T", "20", "--tolerance", tolerance])
        for tolerance in ("0.001", "nan", "-1", "inf", "0", "1e-300")
    ]
    return cases + [
        ("edge/verify-float-overflow",
         ["verify", "--alpha", "1e308", "--beta", "1e308", "--gamma", "0", "--T", "5"]),
        ("edge/verify-M-1-N-1-T-30", ["verify", "--M", "1", "--N", "1", "--gamma", "0", "--T", "30"]),
        ("edge/verify-M-1300001-N-7", ["verify", "--M", "1300001", "--N", "7", "--gamma", "5",
                                       "--T", "60"]),
    ]


def _bench() -> list:
    """Every main, once and mini command of the benchmark's workloads at
    seeds 1-3, each table command in CSV and in JSON.  The benchmark
    runs its threaded commands on every CPU; they are recorded at 2
    threads, and the invariance pair at 1 and 2, which leaves stdout as it
    is and the manifest independent of the machine that records it."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    cases = []
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            plan = workloads.plan(workload, seed)
            commands = [(f"main-{i}", command, 2) for i, command in enumerate(plan.commands)]
            commands += [(f"once-{i}-{j}", command, threads)
                         for i, pair in enumerate(plan.once)
                         for j, (command, threads) in enumerate(zip(pair, (1, 2)))]
            commands += [(f"mini-{kind}", command, 2) for kind, command in plan.mini.items()]
            for name, command, threads in commands:
                argv = [f"--threads={threads}" if token.startswith("--threads=") else token
                        for token in command.argv]
                if argv[0] in ("verify", "graph"):
                    formats = {"": argv}
                else:
                    csv = [token for token in argv if token != "--format=json"]
                    formats = {"-csv": csv, "-json": [*csv, "--format=json"]}
                cases += [(f"bench/{workload}-{seed}/{name}{suffix}", variant)
                          for suffix, variant in formats.items()]
    return cases


def cases() -> list:
    return [*_pinned(), *_gates(), *_help(), *_edges(), *_bench()]


def _stored(case_id: str, stream: str, text: str):
    data = text.encode()
    if len(data) <= INLINE_LIMIT and "\n" not in text[:-1]:
        return text
    if case_id.startswith("bench/") or len(data) > TEXT_LIMIT:
        return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    path = TEXT / (re.sub(r"[^-\w/.]", "_", case_id) + f".{stream}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return {"file": path.relative_to(HERE).as_posix()}


def record() -> int:
    listed = cases()
    ids = [case_id for case_id, _ in listed]
    if len(set(ids)) != len(ids):
        raise ValueError("case ids must be unique")
    shutil.rmtree(TEXT, ignore_errors=True)
    entries = []
    for case_id, argv in listed:
        code, out, err = run(argv)
        entries.append(json.dumps({
            "id": case_id, "argv": argv, "exit": code,
            "stdout": _stored(case_id, "stdout", out), "stderr": _stored(case_id, "stderr", err),
        }, ensure_ascii=False))
    # one case a line, so a diff names the cases whose output moved
    MANIFEST.write_text("[\n" + ",\n".join(entries) + "\n]\n", encoding="utf-8")
    print(f"recorded {len(entries)} cases in {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(record())
