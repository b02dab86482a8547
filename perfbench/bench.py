"""Timed passes over one workload: spec -> build -> run -> stored outcome.

A *pass* runs every scenario of a workload once, closed loop with one
client: each scenario is handed to ``ResumableSweep.run_specs(jobs=1)`` on
a fresh ``RunStore`` only after the previous one is stored.  The timed
window of a scenario is exactly that call.  Between windows, and outside
them, the pass runs ``gc.collect()``, the correctness gate and, in timed
passes, the reference chunks of ``calibrate.py``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.api import ScenarioSpec
from repro.core.tally import profile_snapshot
from repro.search.score import evaluate_outcome
from repro.store import ResumableSweep, RunStore

#: Pinned signatures of every scenario on the default seed.
SIGNATURES_PATH = Path(__file__).resolve().parent / "signatures.json"


class OutcomeCapture:
    """A sweep row function that keeps the executed outcome for the gate.

    It returns the sweep's default row, so the timed work is what a plain
    ``run_specs`` call does; the outcome is inspected after the window.
    """

    def __init__(self) -> None:
        self.outcome = None

    def row(self, outcome) -> dict:
        self.outcome = outcome
        return outcome.summary_row()


def signature(outcome, violations: list[str]) -> dict:
    """What the bit-identity rule pins for one scenario."""

    decided = sorted(outcome.result.decided_outputs().items())
    return {
        "rounds": outcome.rounds,
        "stop": outcome.result.stop_reason,
        "messages": outcome.messages,
        "outputs": hashlib.sha256(repr(decided).encode()).hexdigest()[:16],
        "violations": violations,
    }


def gate(spec: ScenarioSpec, outcome, violations: list[str]) -> bool:
    """The per-scenario correctness rule, pins aside.

    In synchrony with ``n > 3f`` no safety property may break and every
    protocol but total order (which runs a fixed horizon) must stop by its
    own rule.  Under other delay models the paper predicts violations, so
    those are left to the pinned signatures.
    """

    if spec.delay != "synchronous" or spec.n <= 3 * spec.f:
        return True
    if violations:
        return False
    return spec.protocol == "total-order" or outcome.result.stop_reason == "stop_condition"


@dataclass
class PassResult:
    """Timings, gate verdicts and deterministic counts of one pass."""

    seconds: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    signatures: list[dict] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    store_bytes: int = 0
    ref_chunk_s: float = 0.0

    @property
    def wall(self) -> float:
        return sum(self.seconds)

    @property
    def refs(self) -> list[float]:
        """Each scenario's seconds in this pass's reference chunks."""

        return [seconds / self.ref_chunk_s for seconds in self.seconds]


def run_pass(
    specs: list[ScenarioSpec], store_path: Path, on_error=None, clock=None
) -> PassResult:
    """Execute ``specs`` once on a fresh store at ``store_path``.

    With a :class:`calibrate.ReferenceClock`, the clock sees each
    scenario's seconds after its window and runs its reference chunks
    there; their mean is the pass's ``ref_chunk_s``.
    """

    result = PassResult()
    if clock is not None:
        clock.begin()
    counts = dict.fromkeys(("messages", "rounds", "store.puts", "trace.events"), 0)
    builds_before = profile_snapshot()["builds"]
    capture = OutcomeCapture()
    store = RunStore(store_path)
    try:
        sweep = ResumableSweep(store, jobs=1)
        for spec in specs:
            gc.collect()
            start = perf_counter()
            try:
                report = sweep.run_specs([spec], row_fn=capture.row)
            except Exception as exc:  # a failing scenario is counted, not fatal
                result.seconds.append(perf_counter() - start)
                if clock is not None:
                    clock.after(result.seconds[-1])
                result.ok.append(False)
                result.signatures.append({"error": repr(exc)})
                if on_error is not None:
                    on_error(spec, exc)
                continue
            result.seconds.append(perf_counter() - start)
            if clock is not None:
                clock.after(result.seconds[-1])
            outcome, capture.outcome = capture.outcome, None
            violations = [v.property_name for v in evaluate_outcome(outcome)]
            stored = report.ran == 1 and store.has_run(report.run_keys[0])
            result.ok.append(stored and gate(spec, outcome, violations))
            result.signatures.append(signature(outcome, violations))
            counts["messages"] += sum(outcome.result.metrics.per_node_delivered.values())
            counts["rounds"] += outcome.rounds
            counts["store.puts"] += report.ran
            if spec.trace:
                counts["trace.events"] += len(outcome.result.trace)
            del outcome
    finally:
        store.close()
        for suffix in ("", "-wal", "-shm"):
            path = Path(f"{store_path}{suffix}")
            if path.exists():
                if suffix != "-shm":
                    result.store_bytes += path.stat().st_size
                path.unlink()
    counts["tally.builds"] = profile_snapshot()["builds"] - builds_before
    result.counts = counts
    if clock is not None:
        result.ref_chunk_s = clock.pass_mean()
    return result


def load_pins(workload: str) -> list[dict]:
    with open(SIGNATURES_PATH, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def write_pins(pins: dict[str, list[dict]]) -> None:
    with open(SIGNATURES_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


def check_pins(result: PassResult, pins: list[dict]) -> None:
    """Fail every scenario whose signature differs from its pin."""

    if len(pins) != len(result.signatures):
        raise SystemExit(
            f"perfbench: {len(pins)} pinned signatures for "
            f"{len(result.signatures)} scenarios"
        )
    for index, (got, pinned) in enumerate(zip(result.signatures, pins)):
        if got != pinned:
            result.ok[index] = False
            print(
                f"perfbench: scenario {index} signature {got} != pinned {pinned}",
                file=sys.stderr,
            )


def check_deterministic(passes: list[PassResult]) -> None:
    """Counts must repeat exactly across passes; noise here is a bug.

    One count is exempt, and only on the first pass: ``tally.builds``.  The
    program memoises tallies on the process-wide empty inbox, so the first
    pass in a process can build a few that later passes reuse, which the
    warm-up does not always cover.  The excess is logged and may not be
    negative; every other count of the first pass must match exactly.
    """

    def fail(index: int) -> None:
        raise SystemExit(
            f"perfbench: non-deterministic counts: pass {index} {passes[index].counts} "
            f"vs pass 1 {passes[1].counts}"
        )

    if len(passes) < 2:
        return
    for index in range(2, len(passes)):
        if passes[index].counts != passes[1].counts:
            fail(index)
    first, later = dict(passes[0].counts), dict(passes[1].counts)
    excess = first.pop("tally.builds") - later.pop("tally.builds")
    if first != later or excess < 0:
        fail(0)
    if excess:
        print(f"perfbench: first pass built {excess} more tallies", file=sys.stderr)


def percentile(values: list[float], decile: int) -> float:
    """The ``decile``-th tenth (5 -> p50, 9 -> p90) by statistics.quantiles."""

    return statistics.quantiles(values, n=10)[decile - 1]


def store_path(run_dir: Path, label: str) -> Path:
    return run_dir / f"store-{os.getpid()}-{label}.sqlite"
