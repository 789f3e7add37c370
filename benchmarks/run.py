"""Benchmark of the swldpc simulator and CLI decoder.

Usage, from the root of a checkout (nothing to build; the package is
imported from ``src``):

    python3 benchmarks/run.py --workload corner-p096 --seed 1 --seconds 20 --trace 0

Prints one JSON line of run facts (machine, seed, input digest, sample
counts and, when tracing, the per-module split), then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer
metrics, and writes the spans to ``.bench_out/``. See benchmarks/README.md
for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")


def load_program() -> None:
    """Import swldpc from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "swldpc", "__init__.py")):
        raise SystemExit(f"benchmark: no swldpc package under {src}")
    sys.path.insert(0, src)
    import swldpc

    if os.path.dirname(os.path.dirname(os.path.abspath(swldpc.__file__))) != src:
        raise SystemExit(f"benchmark: swldpc was imported from {swldpc.__file__}, not {src}")


def metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def machine() -> dict:
    import numpy as np

    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(index, key), encoding="ascii") as fh:
                    fields[key] = fh.read().strip()
        except OSError:
            continue
        kind = {"Data": "d", "Instruction": "i"}.get(fields["type"], "")
        caches[f"L{fields['level']}{kind}"] = fields["size"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caches_per_core": caches,
        "platform": platform.platform(),
    }


def peak_rss_mib() -> float:
    """Peak resident memory of this process or its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: str):
    """Run one workload; returns (result line, facts line, spans)."""
    import tracing
    import workloads

    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        metrics, facts, tracer, attempted, failed = workloads.run(
            workload, seed, seconds, trace, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics["peak_rss_mb"] = peak_rss_mib()
    facts.update(workload=workload.name, seed=seed, machine=machine(), trace=int(trace))
    if trace:
        layer, extra = tracing.derive(tracer.spans, workload.frames, workloads.POOL_JOBS)
        facts.update(extra)
        facts["end_to_end_traced"] = metrics
        metrics = layer
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, facts, tracer.spans


def result_line(result: dict, units: dict) -> dict:
    """The result with each metric as {"value", "unit"}, in BENCHMARK.json's
    order; the measured metrics must be exactly the ones it names."""
    if set(result["metrics"]) != set(units):
        raise SystemExit(f"benchmark: metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    return dict(result, metrics=metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    result, facts, spans = measure(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT_DIR
    )
    line = result_line(result, metric_specs()[args.trace])
    if args.trace:
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"facts": facts, "spans": spans}, fh)
        facts["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps({"facts": facts}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
