#!/usr/bin/env python3
"""The repository benchmark: scenario spec to stored outcome, per workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sync-quorum --seed 1 --seconds 25 --trace 0

``--trace 0`` times passes over the workload with no instrumentation and
prints the end-to-end metrics; ``--trace 1`` alternates plain passes with
traced passes and prints the per-layer metrics (see ``spans.py``).  Timing
metrics are in ``ref`` units: seconds divided by the pass's mean time of
the reference chunk in ``calibrate.py``, which runs between scenarios and
so tracks the shared host's drifting speed.  The last line of standard
output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the
run writes stays under ``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

WORKLOAD_NAMES = ("sync-quorum", "byzantine-unicast", "async-event-trace", "small-n-sweep")

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 9

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "scenario_ref.p50": "ref",
    "scenario_ref.p90": "ref",
    "peak_rss_mib": "MiB",
    "messages": "count",
    "ok_frac": "ratio",
}

#: The per-layer self times; they add up to ``bench.traced_wall_s``.
SELF_TIME_METRICS = (
    "api.build_s",
    "api.run_self_s",
    "sim.kernel_self_s",
    "core.step_self_s",
    "tally.build_s",
    "adversary.step_s",
    "delays.s",
    "trace.record_s",
    "store.sweep_self_s",
    "store.record_s",
    "store.put_s",
)

PER_LAYER = {
    "api.build_s": "s",
    "api.run_self_s": "s",
    "sim.run_s": "s",
    "sim.rounds": "count",
    "sim.kernel_self_s": "s",
    "sim.inboxes_per_round": "ratio",
    "sim.columnar_frac": "ratio",
    "core.steps": "count",
    "core.step_self_s": "s",
    "tally.builds": "count",
    "tally.build_s": "s",
    "adversary.steps": "count",
    "adversary.step_s": "s",
    "metrics.record_send_calls": "count",
    "delays.calls": "count",
    "delays.s": "s",
    "trace.events": "count",
    "trace.record_s": "s",
    "dynamic.joins": "count",
    "dynamic.leaves": "count",
    "store.sweep_self_s": "s",
    "store.record_s": "s",
    "store.put_s": "s",
    "store.puts": "count",
    "store.bytes": "bytes",
    "bench.traced_wall_s": "s",
    "bench.span_overhead": "ratio",
    "bench.wall_s": "s",
    "bench.ref_chunk_s": "s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up, print 'ready' and exit (the unit setup_s times)",
    )
    parser.add_argument(
        "--write-pins",
        action="store_true",
        help="re-pin every workload's default-seed signatures",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_pins:
        parser.error("--workload is required")
    return args


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def setup(workload: str, seed: int):
    """Imports, code fingerprint, a fresh store and the warm-up scenarios."""

    import bench
    import workloads
    from repro.store.digest import code_fingerprint

    code_fingerprint()
    RUN_DIR.mkdir(exist_ok=True)
    specs = workloads.WORKLOADS[workload](seed)
    warm = bench.run_pass(
        workloads.warmup_specs(specs), bench.store_path(RUN_DIR, "warmup")
    )
    if not all(warm.ok):
        raise SystemExit("perfbench: a warm-up scenario failed its gate")
    # Set-up objects live for the whole run; freezing them keeps the
    # gc.collect() between scenarios from rescanning them every time.
    gc.freeze()
    return specs


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from spawning a fresh interpreter to its first timed scenario."""

    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    start = perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        seconds = perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"perfbench: set-up probe failed ({child.returncode})")
    return seconds


def timed_passes(specs, seconds: float, traced: bool):
    """Run passes until the next would overrun ``seconds``.

    Returns ``(plain, traced_runs, ref_chunk_s)``.  Traced runs alternate a
    plain pass with a traced one, so both lists are at least one long;
    plain runs leave ``traced_runs`` empty.  ``ref_chunk_s`` is the mean
    reference chunk of the whole run.
    """

    import bench
    from calibrate import ReferenceClock
    from spans import Tracer

    plain, traced_runs = [], []
    clock = ReferenceClock()
    start = perf_counter()
    while True:
        began = perf_counter()
        plain.append(
            bench.run_pass(
                specs, bench.store_path(RUN_DIR, len(plain)), on_error=_error, clock=clock
            )
        )
        if traced:
            with Tracer() as tracer:
                result = bench.run_pass(
                    specs, bench.store_path(RUN_DIR, f"t{len(traced_runs)}"),
                    on_error=_error, clock=clock,
                )
            traced_runs.append((result, tracer))
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return plain, traced_runs, clock.mean()


def _error(spec, exc) -> None:
    log(f"scenario {spec.protocol} n={spec.n} seed={spec.seed} raised {exc!r}")


def end_to_end(plain, setup_samples) -> dict[str, float]:
    import bench

    windows = [ref for p in plain for ref in p.refs]
    attempted = sum(len(p.ok) for p in plain)
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_ref": statistics.median(sum(p.refs) for p in plain),
        "scenario_ref.p50": bench.percentile(windows, 5),
        "scenario_ref.p90": bench.percentile(windows, 9),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "messages": plain[0].counts["messages"],
        "ok_frac": sum(sum(p.ok) for p in plain) / attempted,
    }


def per_layer(plain, traced_runs, spans_path: Path, ref_chunk_s: float) -> dict[str, float]:
    """Layer numbers from the traced pass with the median traced wall time."""

    walls = sorted(traced_runs, key=lambda run: run[1].root_seconds())
    result, tracer = walls[(len(walls) - 1) // 2]
    tracer.write(spans_path)
    self_s, counts = tracer.self_s, tracer.counts
    traced_wall = tracer.root_seconds()
    plain_wall = statistics.median(p.wall for p in plain)
    return {
        "api.build_s": self_s["api.build"],
        "api.run_self_s": self_s["api.run"],
        "sim.run_s": tracer.total_s["sim.run"],
        "sim.rounds": counts["sim.rounds"],
        "sim.kernel_self_s": self_s["sim.run"] + self_s["sim.round"],
        "sim.inboxes_per_round": counts["sim.inboxes"] / max(counts["sim.stepped_rounds"], 1),
        "sim.columnar_frac": counts["sim.columnar_inboxes"]
        / max(counts["sim.nonempty_inboxes"], 1),
        "core.steps": counts["core.step"],
        "core.step_self_s": self_s["core.step"],
        "tally.builds": result.counts["tally.builds"],
        "tally.build_s": self_s["tally.build"],
        "adversary.steps": counts["adversary.step"],
        "adversary.step_s": self_s["adversary.step"],
        "metrics.record_send_calls": counts["metrics.record_send_calls"],
        "delays.calls": counts["delays"],
        "delays.s": self_s["delays"],
        "trace.events": result.counts["trace.events"],
        "trace.record_s": self_s["trace.record"],
        "dynamic.joins": counts["dynamic.joins"],
        "dynamic.leaves": counts["dynamic.leaves"],
        "store.sweep_self_s": self_s["store.sweep"],
        "store.record_s": self_s["store.record"],
        "store.put_s": self_s["store.put"],
        "store.puts": result.counts["store.puts"],
        "store.bytes": result.store_bytes,
        "bench.traced_wall_s": traced_wall,
        "bench.span_overhead": traced_wall / plain_wall,
        "bench.wall_s": plain_wall,
        "bench.ref_chunk_s": ref_chunk_s,
    }


def write_pins() -> None:
    import bench
    import workloads

    pins = {}
    for name in WORKLOAD_NAMES:
        specs = setup(name, workloads.DEFAULT_SEED)
        result = bench.run_pass(specs, bench.store_path(RUN_DIR, "pins"), on_error=_error)
        if not all(result.ok):
            raise SystemExit(f"perfbench: {name} fails its gate; not pinning")
        pins[name] = result.signatures
        log(f"pinned {len(specs)} scenarios of {name}")
    bench.write_pins(pins)


def measure(args: argparse.Namespace, specs, setup_samples) -> dict:
    """Timed passes, the checks, and the result object the run prints."""

    import bench
    import workloads

    plain, traced_runs, ref_chunk_s = timed_passes(specs, args.seconds, bool(args.trace))
    every_pass = plain + [result for result, _ in traced_runs]
    bench.check_deterministic(every_pass)
    layer_counts = [dict(tracer.counts) for _, tracer in traced_runs]
    if any(counts != layer_counts[0] for counts in layer_counts):
        raise SystemExit(f"perfbench: non-deterministic layer counts {layer_counts}")
    if args.seed == workloads.DEFAULT_SEED:
        pins = bench.load_pins(args.workload)
        for result in every_pass:
            bench.check_pins(result, pins)

    attempted = sum(len(p.ok) for p in every_pass)
    failed = attempted - sum(sum(p.ok) for p in every_pass)
    if args.trace:
        spans_path = RUN_DIR / f"spans-{args.workload}-{args.seed}.json"
        values, units = per_layer(plain, traced_runs, spans_path, ref_chunk_s), PER_LAYER
    else:
        values, units = end_to_end(plain, setup_samples), END_TO_END
    log(
        f"{args.workload} seed={args.seed}: {len(plain)} plain + "
        f"{len(traced_runs)} traced passes of {len(specs)} scenarios"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro package under {SRC}; run from the root of a checkout"
        )
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.write_pins:
        write_pins()
        return 0
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    setup_samples = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    specs = setup(args.workload, args.seed)
    print(json.dumps(measure(args, specs, setup_samples)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
