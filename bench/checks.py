"""Output checks for every command the benchmark runs.

Each checker takes the command's flags (as a dict) and its stdout text and
returns a list of problems; an empty list means the output is correct.
The checks are independent of the package: they parse the text with the
standard library only, so a defect in the package cannot hide itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

# a compare row is rejected only below this p-value; at 1e-6 a fixed set of
# seeds cannot trip it by chance, unlike the CLI's own 0.999 cut
COMPARE_MIN_P = 1e-6


def strict_json(text: str):
    """Parse standard JSON only: NaN, Infinity and -Infinity are errors."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], rows[1:]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _scalar(value, exact: bool):
    """A table value: exact p/q string or a finite float."""
    if exact:
        if not isinstance(value, str):
            raise ValueError(f"exact value is not a p/q string: {value!r}")
        return Fraction(value)
    if isinstance(value, str):
        return _finite(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"not a finite number: {value!r}")
    return value


def chi2_sf(statistic: float, dof: int) -> float:
    """Upper tail of the chi-square distribution for integer dof >= 1
    (Abramowitz & Stegun 26.4.4 and 26.4.5), with the math module only."""
    if statistic <= 0:
        return 1.0
    half = statistic / 2
    if dof % 2 == 0:
        term = total = 1.0
        for k in range(1, dof // 2):
            term *= half / k
            total += term
        return math.exp(-half) * total
    root = math.sqrt(statistic)
    tail = math.erfc(root / math.sqrt(2))
    term = root * math.sqrt(2 / math.pi) * math.exp(-half)
    for k in range(1, (dof + 1) // 2):
        tail += term
        term *= statistic / (2 * k + 1)
    return tail


def _is_integer_form(flags: dict) -> bool:
    return "--M" in flags


def check_coeffs(flags: dict, text: str) -> list[str]:
    payload = strict_json(text)
    exact = _is_integer_form(flags)
    rows = payload["rows"]
    problems = []
    if len(rows) != int(flags["--n-max"]) + 1:
        problems.append(f"{len(rows)} rows for --n-max {flags['--n-max']}")
    tol = 0 if exact else 1e-12
    for row in rows:
        v = {key: _scalar(row[key], exact) for key in "xytrsabcd" if row[key] is not None}
        if abs(v["x"] + v["y"] - 1) > tol or abs(v["t"] + v["r"] + v["s"] - 1) > tol:
            problems.append(f"row {row['n']}: x+y or t+r+s differs from 1")
            break
        if abs(sum(v[key] for key in "abcd" if key in v) - 1) > tol:
            problems.append(f"row {row['n']}: a+b+c+d differs from 1")
            break
        if not all(0 <= value <= 1 for value in v.values()):
            problems.append(f"row {row['n']}: a coefficient outside [0, 1]")
            break
    return problems


def check_verify(flags: dict, text: str) -> list[str]:
    payload = strict_json(text)
    exact = _is_integer_form(flags)
    problems = []
    if payload["kind"] != ("exact" if exact else "float"):
        problems.append(f"kind {payload['kind']!r}")
    if exact and payload["tolerance"] != 0:
        problems.append(f"exact tolerance {payload['tolerance']}")
    failed = [check["name"] for check in payload["checks"] if check["passed"] is not True]
    if failed or payload["passed"] is not True or len(payload["checks"]) != 7:
        problems.append(f"checks not all passed: {failed}")
    return problems


def _poly_rows(flags: dict, text: str) -> list[tuple[str, int, str]]:
    if flags.get("--format") == "json":
        return [(row["x"], row["n"], row["q"]) for row in strict_json(text)["rows"]]
    header, rows = _csv_rows(text)
    if header != ["x", "n", "q"]:
        raise ValueError(f"header {header}")
    return [(x, int(n), q) for x, n, q in rows]


def check_poly(flags: dict, text: str) -> list[str]:
    exact = _is_integer_form(flags)
    points = flags["--x"]
    n_max = int(flags["--n-max"])
    rows = _poly_rows(flags, text)
    problems = []
    if len(rows) != len(points) * (n_max + 1):
        problems.append(f"{len(rows)} rows for {len(points)} points and --n-max {n_max}")
    for x, n, q in rows:
        value = _scalar(q, exact)
        if n == 0 and value != 1:
            problems.append(f"q_0({x}) = {q}")
            break
        if _scalar(x, exact) == 1 and (q != "1" if exact else abs(value - 1) > 1e-9):
            problems.append(f"q_{n}(1) = {q}")
            break
    return problems


def check_graph(flags: dict, text: str) -> list[str]:
    lines = text.splitlines()
    size = int(flags["--T"])
    which = flags.get("--which", "P")
    problems = []
    if lines[:2] != [f"digraph {which} {{", "  rankdir=LR;"] or lines[-1] != "}":
        return ["malformed DOT header or footer"]
    if lines[2:2 + size] != [f"  {state};" for state in range(size)]:
        return ["node lines do not list states 0..T-1"]
    exact = _is_integer_form(flags)
    out_mass = [Fraction(0)] * size
    for line in lines[2 + size:-1]:
        edge, label = line.strip().split(" [label=")
        source, target = (int(part) for part in edge.split(" -> "))
        if not 0 <= target < size or target - source not in (-2, -1, 0, 1):
            problems.append(f"edge {source} -> {target} outside the band")
            break
        out_mass[source] += Fraction(label.strip('"];'))
    # rows that keep their up-move inside the truncation sum to 1
    interior = size if which == "PL" else size - 1
    tol = 0 if exact else Fraction(1, 10**12)
    bad = [state for state in range(interior) if abs(out_mass[state] - 1) > tol]
    if bad:
        problems.append(f"outgoing labels do not sum to 1 at states {bad[:5]}")
    return problems


def _end_state_band(flags: dict) -> tuple[int, int]:
    initial, steps = int(flags["--initial"]), int(flags["--steps"])
    experiment = flags.get("--experiment", "composite")
    low = initial if experiment == "2" else max(initial - 2 * steps, 0)
    high = initial if experiment == "1" else initial + steps
    return low, high


def check_simulate_aggregate(flags: dict, text: str) -> list[str]:
    if flags.get("--format") == "json":
        pairs = [(row["state"], row["count"]) for row in strict_json(text)["counts"]]
    else:
        header, rows = _csv_rows(text)
        if header != ["state", "count"]:
            return [f"header {header}"]
        pairs = [(int(state), int(count)) for state, count in rows]
    problems = []
    total = sum(count for _, count in pairs)
    if total != int(flags["--trials"]):
        problems.append(f"counts sum to {total}, not --trials {flags['--trials']}")
    low, high = _end_state_band(flags)
    outside = [state for state, _ in pairs if not low <= state <= high]
    if outside:
        problems.append(f"end states {outside[:5]} outside [{low}, {high}]")
    return problems


def check_compare(flags: dict, text: str) -> list[str]:
    if flags.get("--format") == "json":
        rows = strict_json(text)["rows"]
    else:
        header, body = _csv_rows(text)
        rows = [dict(zip(header, row)) for row in body]
    problems = []
    if [int(row["initial"]) for row in rows] != [int(state) for state in flags["--initial"]]:
        problems.append("rows do not match the --initial states")
    for row in rows:
        tv = _finite(str(row["tv_distance"]))
        statistic = _finite(str(row["chi_square"]))
        dof = int(row["dof"])
        p_value = chi2_sf(statistic, dof)
        if int(row["trials"]) != int(flags["--trials"]) or not 0 <= tv <= 1 or not 1 <= dof <= 3:
            problems.append(f"initial {row['initial']}: malformed row {row}")
        elif p_value < COMPARE_MIN_P:
            problems.append(
                f"initial {row['initial']}: chi-square {statistic} on {dof} dof, p = {p_value:.3g}"
            )
    return problems


def _trajectory_rows(flags: dict, text: str):
    if flags.get("--format") == "json":
        for row in strict_json(text)["rows"]:
            yield row["trial"], row["step"], row["sub_step"], row["state"]
        return
    header, rows = _csv_rows(text)
    if header != ["trial", "step", "sub_step", "state"]:
        raise ValueError(f"header {header}")
    for row in rows:
        yield tuple(int(value) for value in row)


# allowed state changes per sub-step: experiment 1 moves down by 0, 1 or 2
# (never below 0), experiment 2 moves up by 0 or 1
_DEATH = (0, -1, -2)
_BIRTH = (0, 1)


def check_simulate_trajectories(flags: dict, text: str) -> list[str]:
    experiment = flags.get("--experiment", "composite")
    subs = {"1": (_DEATH,), "2": (_BIRTH,), "composite": (_DEATH, _BIRTH)}[experiment]
    trials, steps = int(flags["--trials"]), int(flags["--steps"])
    expected = [(step, sub) for step in range(1, steps + 1) for sub in range(1, len(subs) + 1)]
    problems = []
    count = 0
    state = None
    position = 0
    for trial, step, sub, value in _trajectory_rows(flags, text):
        count += 1
        if step == 0:
            if trial != (count - 1) // (len(expected) + 1) or (sub, value) != (0, int(flags["--initial"])):
                problems.append(f"trial {trial} starts wrongly")
                break
            state, position = value, 0
            continue
        if position >= len(expected) or (step, sub) != expected[position]:
            problems.append(f"trial {trial}: unexpected row (step {step}, sub-step {sub})")
            break
        moves = subs[sub - 1]
        if value - state not in moves or value < 0:
            problems.append(
                f"trial {trial} step {step} sub-step {sub}: {state} -> {value} outside the band"
            )
            break
        state = value
        position += 1
    if not problems and count != trials * (len(expected) + 1):
        problems.append(f"{count} rows for {trials} trials of {steps} steps")
    return problems


CHECKERS = {
    "coeffs": check_coeffs,
    "verify_exact": check_verify,
    "verify_float": check_verify,
    "poly": check_poly,
    "graph": check_graph,
    "simulate_agg": check_simulate_aggregate,
    "compare": check_compare,
    "simulate_traj": check_simulate_trajectories,
}


def check(kind: str, flags: dict, text: str) -> list[str]:
    """Problems with one command's output; parse errors count as problems."""
    try:
        return CHECKERS[kind](flags, text)
    except (ValueError, KeyError, TypeError, ZeroDivisionError, IndexError) as exc:
        return [f"unparsable output: {type(exc).__name__}: {exc}"]
