"""Run one workload of the urnchain benchmark and print its metrics.

    python3 bench/run.py --workload algebra --seed 1 --seconds 24 --trace 0

Run it from the root of a source checkout; it runs the package under
``src/`` and nothing installed.  The standard library is all it needs
beyond the package under test.

``--trace 0`` (end to end): every command of the workload runs through the
real CLI, ``python -m urnchain ...``, in a fresh interpreter, one at a
time (a closed loop with one client), the way a user runs it.  The run
times three ``--help`` cold starts, then passes over the workload's
command list (at least three, more while ``--seconds`` are not used up),
checks every output, and reports medians: ``setup_s`` (cold start of
``--help``), ``wall_s`` (one pass) and ``peak_rss_mb`` (largest child
max-RSS in a pass, from ``os.wait4``), plus one time per command kind.
Times are scaled to a reference machine speed (see ``CALIBRATION_S``).

``--trace 1`` (per layer): the same commands run in process through
``urnchain.cli.main`` with ``--output``, together with a fixed probe of
every module's public functions, once untraced and once traced (see
``tracing.py``); the import layer is timed in fresh interpreters with
``-X importtime``.  End-to-end numbers never come from this mode.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything the run measured, with the
machine it ran on, also goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
import workloads
from workloads import KINDS, NPROC

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# cold starts of --help timed before the passes; they give setup_s its samples
SETUP_SAMPLES = 3

# at least this many passes per run, odd so that the median drops the
# slowest pass rather than averaging it in
MIN_PASSES = 3

# A shared machine's speed drifts by 15-30% within minutes, and every
# command slows with it.  So before each set-up sample and before each pass
# the run times a fixed reference task in an isolated interpreter:
# importing scipy.stats, which is most of what the package's cold start
# does today.  All of the run's times are scaled by
# CALIBRATION_S / (the task's median time): they are seconds on a machine
# that runs the task in CALIBRATION_S.  The task runs no code of this
# repository, so a change to the program cannot move it.
CALIBRATION_S = 1.0
CALIBRATION_ARGS = ("-I", "-c", "import scipy.stats")

# a run, set-up included, must end well inside three minutes
DEADLINE_S = 160


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


class Outcome:
    """Attempted and failed commands of one run, failures with their flags."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append({"command": label, "problems": problems})


class Runner:
    """Runs ``python -m urnchain`` in fresh interpreters."""

    def __init__(self, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def run(self, argv: list[str], name: str = "cmd", python_args=("-m", "urnchain")):
        """Time one child; return (seconds, max RSS in MB, exit code,
        stdout path, stderr text)."""
        out_path = self.scratch / f"{name}.out"
        err_path = self.scratch / f"{name}.err"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run deadline passed")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *python_args, *argv],
                stdout=out, stderr=err, env=self.env, cwd=ROOT,
            )
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise TimeoutError(f"command killed at the run deadline: {' '.join(argv)}")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return seconds, usage.ru_maxrss / 1024, proc.returncode, out_path, stderr


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def command_problems(cmd: workloads.Command, code: int, text: str, stderr: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-300:]}"]
    return checks.check(cmd.kind, cmd.flags, text)


def keep_going(started: float, seconds: float) -> bool:
    """Start another pass while the measuring time is not used up."""
    return time.perf_counter() - started < seconds


def measure_cli(plan: workloads.Plan, seconds: float, runner: Runner, outcome: Outcome) -> dict:
    """The end-to-end run: cold starts and passes over the command list."""
    setup, passes, calibration = [], [], []

    def calibrate():
        calibration.append(runner.run([], "calibration", CALIBRATION_ARGS)[0])

    for _ in range(SETUP_SAMPLES):
        calibrate()
        elapsed, _, code, out, err = runner.run(["--help"])
        ok = code == 0 and _read(out).startswith("usage: urnchain")
        outcome.record("urnchain --help", [] if ok else [f"exit code {code}: {err[-300:]}"])
        setup.append(elapsed)
    for single, threaded in plan.once:
        texts = []
        for cmd in (single, threaded):
            _, _, code, out, err = runner.run(list(cmd.argv))
            texts.append(_read(out))
            outcome.record(str(cmd), command_problems(cmd, code, texts[-1], err))
        outcome.record(
            f"thread invariance: {single} vs --threads={NPROC}",
            [] if texts[0] == texts[1] else ["stdout differs between 1 and nproc threads"],
        )
    started = time.perf_counter()
    while keep_going(started, seconds) or len(passes) < MIN_PASSES:
        calibrate()
        one = []
        for cmd in plan.commands:
            elapsed, rss, code, out, err = runner.run(list(cmd.argv))
            one.append((elapsed, rss))
            outcome.record(str(cmd), command_problems(cmd, code, _read(out), err))
        passes.append(one)
    speed = CALIBRATION_S / statistics.median(calibration)
    setup = [t * speed for t in setup]
    passes = [[(t * speed, rss) for t, rss in p] for p in passes]
    # the median pass: each command's median over the passes, summed; one
    # slow process moves a command's figure only when it repeats
    n = len(plan.commands)
    seconds_by_cmd = [statistics.median(p[i][0] for p in passes) for i in range(n)]
    rss_by_cmd = [statistics.median(p[i][1] for p in passes) for i in range(n)]
    kinds = sorted({cmd.kind for cmd in plan.commands}, key=KINDS.index)

    def of_kind(values, kind):
        return sum(v for v, cmd in zip(values, plan.commands) if cmd.kind == kind)

    return {
        "samples": {
            "setup_s": setup,
            "wall_s": [sum(c[0] for c in p) for p in passes],
            "peak_rss_mb": [max(c[1] for c in p) for p in passes],
            **{f"{kind}_s": [of_kind([c[0] for c in p], kind) for p in passes]
               for kind in kinds},
        },
        "values": {
            "setup_s": statistics.median(setup),
            "wall_s": sum(seconds_by_cmd),
            "peak_rss_mb": max(rss_by_cmd),
            **{f"{kind}_s": of_kind(seconds_by_cmd, kind) for kind in kinds},
        },
        "calibration_s": calibration,
        "speed_factor": speed,
        "per_command": [{"command": str(cmd),
                         "scaled_s": [p[i][0] for p in passes],
                         "max_rss_mb": [p[i][1] for p in passes]}
                        for i, cmd in enumerate(plan.commands)],
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and urnchain, from
    ``-X importtime`` output.  Each module's own time goes to the nearest
    of those three packages that is the module or imports it, so the
    three parts add up to the cumulative import of urnchain."""
    stack: list[tuple[int, str, int, list]] = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        own, raw = parts[0].removeprefix("import time:").strip(), parts[2]
        if not own.isdigit():
            continue  # the header line
        level = (len(raw) - len(raw.lstrip()) - 1) // 2
        children = []
        while stack and stack[-1][0] > level:
            children.insert(0, stack.pop())
        stack.append((level, raw.strip(), int(own), children))

    owners = {"numpy": 0, "scipy": 0, "urnchain": 0}

    def attribute(nodes, owner):
        for _, name, own, children in nodes:
            package = name.split(".")[0]
            here = package if package in owners else owner
            if here is not None:
                owners[here] += own
            attribute(children, here)

    attribute(stack, None)
    return {f"import.{package}_s": micros / 1e6 for package, micros in owners.items()}


def import_layer(runner: Runner, outcome: Outcome) -> dict[str, float]:
    interpreter, _, code, _, err = runner.run([], "interp", ("-c", "pass"))
    outcome.record("python -c pass", [] if code == 0 else [err[-300:]])
    _, _, code, _, err = runner.run([], "importtime", ("-X", "importtime", "-c", "import urnchain"))
    times = parse_importtime(err)
    ok = code == 0 and times["import.urnchain_s"] > 0
    outcome.record("python -X importtime -c 'import urnchain'", [] if ok else [err[-300:]])
    return {"import.interpreter_s": interpreter, **times}


def load_package() -> dict:
    sys.path.insert(0, str(SRC))
    modules = {
        layer: importlib.import_module(f"urnchain.{layer}")
        for layer in ("coefficients", "banded", "urns", "analysis", "cli")
    }
    where = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"urnchain imported from {where}, not from {SRC}")
    return modules


def probe_calls(spec: dict, nproc: int) -> list[tuple[str, object]]:
    """Direct calls into every module's public functions, at fixed sizes
    with parameters drawn from the seed, so every per-layer metric exists
    on every workload.  Each item is (operation name, function of the
    layer-name -> module mapping)."""
    from fractions import Fraction

    import urnchain as uc

    tiny = spec["smoke"]
    rows, exact_T, float_T, poly_n = (20, 20, 50, 10) if tiny else (1000, 400, 3000, 200)
    lanes, steps, scalar_steps = (2 * workloads.CHUNK, 2, 50) if tiny else (
        4 * workloads.CHUNK, 20, 5000)
    small = uc.IntegerParameters(**spec["small"])
    large = uc.IntegerParameters(**spec["large"])
    floats = uc.Parameters(*(float(spec["general"][key]) for key in ("alpha", "beta", "gamma")))
    urn = uc.IntegerParameters(**spec["urns"])
    x, start, seed = Fraction(spec["x"]), spec["initial"], spec["seed"]

    def coefficients(lib):
        lib["coefficients"].lu_coefficients_integer(small, rows)
        lib["coefficients"].lu_coefficients_integer(large, rows)
        lib["coefficients"].lu_coefficients(floats, 4 * rows)

    def poly(lib):
        for params, point in ((small, x), (floats, float(x))):
            route = "lu_coefficients_integer" if point is x else "lu_coefficients"
            coeffs = getattr(lib["coefficients"], route)(params, poly_n)
            lib["analysis"].evaluate_polynomials(coeffs, point, poly_n)

    def threads(count):
        def call(lib):
            lib["urns"].sample_endpoints(
                urn, start, uc.COMPOSITE, lanes, seed, steps=steps, threads=count)
        return call

    def compare(lib):
        an = lib["analysis"]
        for state in range(start, start + 4):
            counts = lib["urns"].sample_endpoints(
                urn, state, uc.COMPOSITE, workloads.CHUNK, seed, stream_offset=state << 20)
            exact = lib["coefficients"].reconstruct_row(
                lib["coefficients"].lu_coefficients_integer(urn, state), state)
            empirical = an.EmpiricalDistribution.from_counts(counts)
            an.tv_distance(empirical, exact)
            _, dof = an.chi_square_statistic(empirical, exact)
            an.chi_square_threshold(dof)

    def trajectory(lib):
        lib["urns"].run_trajectory(urn, start, scalar_steps, uc.RngStream(seed))

    return [
        ("probe.coefficients", coefficients),
        ("probe.verify_exact", lambda lib: lib["banded"].verify_lu(small, exact_T)),
        ("probe.verify_float", lambda lib: lib["banded"].verify_lu(floats, float_T)),
        ("probe.poly", poly),
        ("probe.threads_1", threads(1)),
        ("probe.threads_n", threads(nproc)),
        ("probe.compare", compare),
        ("probe.trajectory", trajectory),
    ]


def in_process_pass(ops, modules, libs, scratch: Path, outcome: Outcome, tracer=None) -> float:
    """Run every operation once and return the seconds spent in them (the
    output checks are not timed); with a tracer, each command gets a
    ``cli.main`` span that records its output size."""
    cli = modules["cli"]
    path = scratch / "inproc.out"
    busy = 0.0
    for index, (_, item) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        started = time.perf_counter()
        if callable(item):
            item(libs)
            busy += time.perf_counter() - started
            continue
        argv = [*item.argv, f"--output={path}"]
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span("cli.main", item.kind) as span:
                code = cli.main(argv)
            span.count = path.stat().st_size if path.exists() else 0
        busy += time.perf_counter() - started
        text = _read(path) if path.exists() else ""
        outcome.record(f"in process: {item}", command_problems(item, code, text, ""))
        path.unlink(missing_ok=True)
    return busy


def measure_layers(plan, seconds: float, runner: Runner, outcome: Outcome, spans_path: Path):
    """The per-layer run: import layer, then untraced and traced passes."""
    modules = load_package()
    libs = {layer: modules[layer] for layer in tracing.TRACED}
    present = {cmd.kind for cmd in plan.commands}
    ops = [(str(cmd), cmd) for cmd in plan.commands]
    ops += [(str(plan.mini[k]), plan.mini[k]) for k in KINDS if k not in present]
    ops += probe_calls(plan.probe, NPROC)
    names = [{"name": name} for name, _ in ops]
    passes = []
    started = time.perf_counter()
    while keep_going(started, seconds) or not passes:
        metrics = import_layer(runner, outcome)
        untraced = in_process_pass(ops, modules, libs, runner.scratch, outcome)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer, modules) as proxies:
            traced = in_process_pass(ops, modules, proxies, runner.scratch, outcome, tracer)
        metrics.update(tracing.layer_metrics(tracer.spans, names, NPROC))
        metrics["trace.overhead"] = traced / untraced - 1
        passes.append(metrics)
    tracer.write(spans_path, names)
    samples = {name: [p[name] for p in passes] for name in passes[0]}
    return {
        "samples": samples,
        "values": {name: statistics.median(values) for name, values in samples.items()},
        "spans": {"file": str(spans_path.relative_to(ROOT)), "count": len(tracer.spans)},
    }


def tail_percentile(values: list[float]):
    """The highest of p99/p95/p90/p75/p50 with at least ten samples above
    it, as (label, value), or None when the sample is too small."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            rank = min(len(ordered) - 1, math.ceil(len(ordered) * p / 100) - 1)
            return f"p{p}", ordered[rank]
    return None


def summarize(samples: dict[str, list[float]], values: dict[str, float]) -> dict:
    out = {}
    for name, sample in samples.items():
        tail = tail_percentile(sample)
        out[name] = {
            "value": values[name],
            "n": len(sample),
            "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        }
    return out


def git_commit(root: Path):
    """HEAD of the checkout's git repository, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "urnchain").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def version(package: str):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": NPROC,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(),
        "started_unix": time.time(),
        "loadavg_before": os.getloadavg(),
    }


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """One benchmark run; returns the full result record."""
    if not (SRC / "urnchain" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source at {SRC / 'urnchain'}")
    declared = load_declared()
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    record = {"provenance": provenance(workload, seed, seconds, trace)}
    plan = workloads.plan(workload, seed, smoke=smoke)
    scratch = OUT / "tmp" / f"{workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    runner = Runner(scratch, time.monotonic() + DEADLINE_S)
    outcome = Outcome()
    try:
        if trace:
            spans_path = OUT / f"spans-{workload}.jsonl.gz"
            record.update(measure_layers(plan, seconds, runner, outcome, spans_path))
        else:
            record.update(measure_cli(plan, seconds, runner, outcome))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["provenance"]["loadavg_after"] = os.getloadavg()
    record["commands"] = [str(cmd) for cmd in plan.commands]
    record["summary"] = summarize(record["samples"], record["values"])
    record["attempted"] = outcome.attempted
    record["failed"] = len(outcome.failures)
    record["fail_ratio"] = record["failed"] / outcome.attempted
    record["failures"] = outcome.failures
    record["metrics"] = {
        name: {"value": record["values"][name], "unit": unit}
        for name, unit in units.items()
    }
    return record


def report(record: dict, units: dict) -> list[str]:
    """Human-readable lines: provenance, every metric with unit and
    sample count, fail ratio and each failed command."""
    p = record["provenance"]
    lines = [
        f"workload {p['workload']}  seed {p['seed']}  trace {p['trace']}  "
        f"nproc {p['nproc']}  cpu {p['cpu_model']}",
        f"python {p['python']}  numpy {p['numpy']}  scipy {p['scipy']}  "
        f"commit {p['git_commit']}  load {p['loadavg_before'][0]:.2f} -> "
        f"{p['loadavg_after'][0]:.2f}",
    ]
    for name, summary in record["summary"].items():
        tail = summary["tail"]
        extra = f"{tail['percentile']} {tail['value']:.6g}" if tail else "no tail percentile"
        unit = units.get(name, "s" if name.endswith("_s") else "")
        lines.append(f"  {name:<40} {summary['value']:>14.6g} {unit:<8} "
                     f"n={summary['n']}, {extra}")
    lines.append(f"  fail_ratio {record['failed']}/{record['attempted']} = "
                 f"{record['fail_ratio']:.4g}")
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure['command']}: {'; '.join(failure['problems'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, ImportError, TimeoutError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}-{time.time_ns()}.json"
    with open(results / name, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    declared = load_declared()
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    print("\n".join(report(record, units)))
    print(f"  result file {(results / name).relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
