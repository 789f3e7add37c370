"""Self-test of the benchmark at a tiny size.

Run from the repository root:  python3 -m pytest benchmarks/tests -q
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.load_program()
import workloads  # noqa: E402

SPECS = run.metric_specs()


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], n=48, frames=2, inputs=4)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_with_its_unit_and_seed_changes_only_inputs(name, tmp_path):
    for trace in (0, 1):
        seen = []
        for seed in (1, 2):
            result, facts, spans = run.measure(tiny(name), seed, 0.0, bool(trace), str(tmp_path))
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            line = json.loads(json.dumps(run.result_line(result, SPECS[trace])))
            assert [(k, m["unit"]) for k, m in line["metrics"].items()] == list(SPECS[trace].items())
            assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
            assert bool(spans) == bool(trace)
            seen.append(facts["input_digest"])
        assert seen[0] != seen[1]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command exits nonzero and prints no result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "BENCHMARK.json", encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(
        command + ["--workload", "corner-p096", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
