"""Paired comparison of two sets of benchmark results (parent and change).

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files ``bench/run.py`` wrote to
``.bench_out/results/`` for one commit.  Run both commits with the same
seeds and ``--seconds``, alternating which side runs first; runs are
paired by workload, trace mode and seed.

For every metric and workload it prints each side's median and
quartiles, the change's win fraction over the pairs, and a verdict:

* ``gain``: the change wins at least 9 of 10 pairs and the medians differ
  by more than the parent's quartile spread;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: a side's quartile spread is wider than the bound, unless
  every change run beats every parent run;
* ``same``: none of these.

Metrics without a bound (per-layer metrics and the per-command times)
get ``gain`` or ``same``.  The exit code is 1 when any metric regressed
or the change failed more commands than the parent, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WIN_SHARE = 0.9


def load(directory: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> result record."""
    runs: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        p = record["provenance"]
        runs.setdefault((p["workload"], p["trace"]), {})[p["seed"]] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], wins: int, pairs: int,
            better: str, bound) -> str:
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    improves = sign * (pm - cm) > 0
    if bound is not None:
        spread = max((p3 - p1) / abs(pm) if pm else 0, (c3 - c1) / abs(cm) if cm else 0)
        all_better = all(sign * (p - c) > 0 for p in parent for c in change)
        if spread > bound and not all_better:
            return "unresolved"
        if sign * (cm - pm) > bound * abs(pm):
            return "regression"
    if pairs and wins >= WIN_SHARE * pairs and improves and abs(cm - pm) > p3 - p1:
        return "gain"
    return "same"


def compare(parent_dir: Path, change_dir: Path, declared: dict) -> tuple[list[dict], bool]:
    specs = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    parent_runs, change_runs = load(parent_dir), load(change_dir)
    rows, bad = [], False
    for key in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[key], change_runs[key]
        seeds = sorted(set(parent) & set(change))
        failed = [sum(r["failed"] for r in side.values()) for side in (parent, change)]
        if failed[1] > failed[0]:
            bad = True
        names = [n for n in parent[next(iter(parent))]["summary"]
                 if all(n in r["summary"] for r in [*parent.values(), *change.values()])]
        for name in names:
            spec = specs.get(name, {"unit": "s", "better": "lower"})
            sign = 1 if spec["better"] == "lower" else -1
            value = {s: r["summary"][name]["value"] for s, r in parent.items()}
            other = {s: r["summary"][name]["value"] for s, r in change.items()}
            wins = sum(sign * (value[s] - other[s]) > 0 for s in seeds)
            result = verdict(list(value.values()), list(other.values()), wins, len(seeds),
                             spec["better"], spec.get("bound"))
            bad = bad or result == "regression"
            rows.append({
                "workload": key[0], "trace": key[1], "metric": name, "unit": spec["unit"],
                "parent": quartiles(list(value.values())),
                "change": quartiles(list(other.values())),
                "wins": wins, "pairs": len(seeds), "verdict": result,
                "failed": {"parent": failed[0], "change": failed[1]},
            })
    return rows, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--json", type=Path, help="also write the rows to this file")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, bad = compare(args.parent, args.change, declared)
    if not rows:
        print("no workload has results on both sides", file=sys.stderr)
        return 2
    for row in rows:
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        delta = (cm - pm) / abs(pm) * 100 if pm else float("nan")
        print(f"{row['workload']:<13} {row['metric']:<36} {row['unit']:<8} "
              f"parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
              f"{delta:+.1f}%  wins {row['wins']}/{row['pairs']}  {row['verdict']}")
    for key in sorted({(r["workload"], r["trace"]) for r in rows}):
        failed = next(r["failed"] for r in rows if (r["workload"], r["trace"]) == key)
        print(f"{key[0]} trace {key[1]}: failed commands parent {failed['parent']}, "
              f"change {failed['change']}")
    if args.json:
        args.json.write_text(json.dumps(rows, indent=1), encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
