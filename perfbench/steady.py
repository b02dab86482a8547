#!/usr/bin/env python3
"""Check that the benchmark is steady: several seeds per workload, round-robin.

Run from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --first-seed 101

For every seed it runs each workload of ``BENCHMARK.json`` once, in turn,
so slow host drift spreads across workloads instead of landing on one.
It then prints, per workload and end-to-end metric, the median and the
quartile spread (``statistics.quantiles(values, n=4)``, distance between
the first and third quartile as a share of the median) next to the
metric's bound.  ``--out`` saves the raw results; ``--compare A B`` sets
two saved result files side by side and checks that B's medians are not
worse than A's by more than each bound.  Either mode exits non-zero when a
spread or a change is above its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_once(bench: dict, workload: str, seed: int) -> dict:
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} reported incorrect output")
    return result


def spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def report(bench: dict, results: dict[str, list[dict]]) -> bool:
    steady = True
    for workload, runs in results.items():
        print(f"{workload} ({len(runs)} runs)")
        for metric in bench["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            median, share = spread(values)
            bad = share > metric["bound"]
            steady &= not bad
            print(
                f"  {metric['name']:16s} median {median:<12.6g} spread {share:6.2%}"
                f"  bound {metric['bound']:.0%}{'  FAIL' if bad else ''}"
            )
    return steady


def compare(bench: dict, first: dict, second: dict) -> bool:
    ok = True
    for workload in first:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            change = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            bad = change > metric["bound"]
            ok &= not bad
            print(
                f"{workload:18s} {name:16s} {a:<12.6g} -> {b:<12.6g} "
                f"worse by {change:+7.2%} (bound {metric['bound']:.0%}){'  FAIL' if bad else ''}"
            )
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path)
    args = parser.parse_args()
    bench = load_benchmark()
    if args.compare:
        first, second = (json.loads(path.read_text()) for path in args.compare)
        return 0 if compare(bench, first, second) else 1

    results: dict[str, list[dict]] = {w["name"]: [] for w in bench["workloads"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name, runs in results.items():
            runs.append(run_once(bench, name, seed))
            print(f"done {name} seed {seed}", file=sys.stderr, flush=True)
    if args.out:
        args.out.write_text(json.dumps(results))
    return 0 if report(bench, results) else 1


if __name__ == "__main__":
    sys.exit(main())
