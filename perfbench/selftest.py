"""Self-test of the benchmark.

Run from the root of a checkout (it is not part of the tier-1 suite)::

    python3 -m pytest -q perfbench/selftest.py

It measures two scenarios per workload through the same code the
benchmark runs, and checks that every metric named in ``BENCHMARK.json``
is reported with its unit, that the layer self times add up to the traced
wall time, and that the command refuses to run without the program.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_file_follows_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for section, keys in (
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for metric in BENCHMARK[section]:
            assert set(metric) == keys
            assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
            assert metric["better"] in ("lower", "higher")
            names.append(metric["name"])
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= BENCHMARK["run_seconds"] <= 60


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_reported_and_self_times_add_up(workload):
    # A non-default seed: the pinned signatures cover whole workloads only.
    specs = run.setup(workload, 2)[:2]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        args = argparse.Namespace(workload=workload, seed=2, seconds=0, trace=trace)
        result = run.measure(args, specs, setup_samples=[0.5])
        assert result["correct"] and result["attempted"] >= 2 and result["failed"] == 0
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        assert reported == {m["name"]: m["unit"] for m in BENCHMARK[section]}
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert all(isinstance(v, (int, float)) for v in values.values())
    layers = sum(values[name] for name in run.SELF_TIME_METRICS)
    assert layers == pytest.approx(values["bench.traced_wall_s"], rel=1e-9)
    assert values["bench.traced_wall_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    command = BENCHMARK["command"] + [
        "--workload", "sync-quorum", "--seed", "1", "--seconds", "1", "--trace", "0"
    ]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
