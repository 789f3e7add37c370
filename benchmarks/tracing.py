"""In-memory spans around the benchmark's calls into swldpc, and the
per-layer metrics derived from them.

A span is a dict with ``id`` (its index in the list), ``name``,
``start`` and ``end`` (perf_counter seconds), ``parent`` (id of the
enclosing span or None), ``op`` (the operation id it belongs to,
inherited from its parent) and ``attrs``.
Spans are kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

# Span names of the layer calls, grouped by the swldpc module they enter.
LAYER_OF = {
    "correlation.sample_pair": "correlation",
    "ldpc.syndrome": "ldpc",
    "ldpc.load_alist": "ldpc",
    "graph.build_joint_graph": "graph",
    "decoder.decode": "decoder",
}

SETUP = "bench.setup"
REPLAY = "bench.replay"
POOL_PROBE = "bench.pool_probe"
SIM_OP = "sim.run_trials"
CLI_OP = "cli.main"


class Tracer:
    """Span recorder; a disabled tracer records nothing and costs one call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op=None, **attrs):
        """Time the body as one span; yields the attrs dict to fill in."""
        if not self.enabled:
            yield attrs
            return
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {
            "id": len(self.spans), "name": name, "start": 0.0, "end": 0.0,
            "parent": parent, "op": op, "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, describe=None):
        """``fn`` inside a span; ``describe(result)`` adds span attributes."""

        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(result))
            return result

        return traced


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _median(values) -> float:
    return float(np.median(values))


def _least_per_input(items, cost) -> dict:
    """For each input (attrs["point"]) the item of least ``cost``."""
    best: dict = {}
    for item in items:
        i = item["attrs"]["point"]
        if i not in best or cost(item) < cost(best[i]):
            best[i] = item
    return best


def derive(spans: list[dict], frames_per_op: int, pool_jobs: int) -> tuple[dict, dict]:
    """Per-layer metrics and the additive per-operation split.

    Operations are ``sim.run_trials`` or ``cli.main`` spans outside set-up.
    The layer calls of an operation are the children of its replay (a
    simulate operation, whose internal calls run in program code or in
    worker processes) or of the operation span itself (a CLI call, whose
    module-level calls the benchmark wraps). For each input the fastest
    operation and the fastest replay are used, so a burst of load from
    other processes on the host does not enter the split. The frontend
    self time is the operation time less the layer time. A traced simulate
    run also times each operation with ``pool_jobs`` worker processes,
    which gives the pool speed-up.

    Returns (metrics, facts): metrics keyed by per-layer metric name, and
    the split of the mean operation time into layers plus self time with
    the metrics that apply to this workload only.
    """
    roots, calls = [], [[] for _ in spans]  # calls: layer-call children
    for s in spans:
        roots.append(s["id"] if s["parent"] is None else roots[s["parent"]])
        if s["parent"] is not None and s["name"] in LAYER_OF:
            calls[s["parent"]].append(s)
    in_setup = [spans[r]["name"] == SETUP for r in roots]

    def named(name, setup=None):
        return [
            s for s, st in zip(spans, in_setup)
            if s["name"] == name and (setup is None or st == setup)
        ]

    def layer_time(unit):
        return sum(_dur(c) for c in calls[unit["id"]])

    def decodes_of(unit):
        return [c for c in calls[unit["id"]] if c["name"] == "decoder.decode"]

    ops = named(SIM_OP, setup=False) + named(CLI_OP, setup=False)
    replays = named(REPLAY)
    is_sim = bool(replays)
    # A unit is the span whose children are the layer calls of one operation.
    units = replays if is_sim else ops
    op_best = _least_per_input(ops, _dur)
    unit_best = _least_per_input(units, layer_time)
    points = sorted(op_best)

    split = dict.fromkeys(("correlation", "ldpc", "graph", "decoder"), 0.0)
    self_ms = []
    for i in points:
        for c in calls[unit_best[i]["id"]]:
            split[LAYER_OF[c["name"]]] += _dur(c) * 1e3 / len(points)
        self_ms.append((_dur(op_best[i]) - layer_time(unit_best[i])) * 1e3)
    op_ms_mean = float(np.mean([_dur(op_best[i]) for i in points])) * 1e3
    split["self"] = float(np.mean(self_ms))
    split = {k: {"ms_per_op": v, "share": v / op_ms_mean} for k, v in split.items()}
    split["op_ms_mean"] = op_ms_mean

    decodes = named("decoder.decode", setup=False)
    decode_time = sum(_dur(s) for s in decodes)
    decode_iters = sum(s["attrs"]["iterations"] for s in decodes)
    # Exact counts come from one unit per input, whose decodes are the
    # input's frames.
    first_units = _least_per_input(units, lambda u: u["start"])
    counted = [c for u in first_units.values() for c in decodes_of(u)]
    iterations = sum(c["attrs"]["iterations"] for c in counted)
    wasted = sum(c["attrs"]["iterations"] for c in counted if not c["attrs"]["converged"])
    first_calls = [_dur(decodes_of(u)[0]) for u in units if decodes_of(u)]
    work = sum(layer_time(u) if is_sim else _dur(u) for u in units)
    builds = named("graph.build_joint_graph", setup=False)
    edges = builds[0]["attrs"]["edges"]
    decode_ms = [_dur(s) * 1e3 for s in decodes]
    traced_fps = frames_per_op * len(points) / sum(_dur(op_best[i]) for i in points)

    metrics = {
        "correlation.sample_pair_us": _median([_dur(s) * 1e6 for s in named("correlation.sample_pair")]),
        "ldpc.syndrome_us": _median([_dur(s) * 1e6 for s in named("ldpc.syndrome")]),
        "ldpc.construct_s": _median([_dur(s) for s in named("ldpc.gallager_construct")]),
        "ldpc.load_alist_ms": _median([_dur(s) * 1e3 for s in named("ldpc.load_alist")]),
        "graph.build_ms": _median([_dur(s) * 1e3 for s in builds]),
        "graph.edges": edges,
        "decoder.call_ms_p50": float(np.percentile(decode_ms, 50)),
        "decoder.call_ms_p90": float(np.percentile(decode_ms, 90)),
        "decoder.first_call_ms": _median(first_calls) * 1e3,
        "decoder.iterations": iterations,
        "decoder.iters_per_frame": iterations / len(counted),
        "decoder.iter_us": decode_time / decode_iters * 1e6,
        "decoder.edge_updates_per_s": edges * decode_iters / decode_time,
        "decoder.busy_share": decode_time / work,
        "decoder.converged_frac": sum(bool(c["attrs"]["converged"]) for c in counted) / len(counted),
        "decoder.wasted_iter_share": wasted / iterations,
        "frontend.self_ms": _median(self_ms),
        "trace.frames_per_s": traced_fps,
    }
    only_here = {("sim.overhead_ms_per_point" if is_sim else "cli.self_ms"): metrics["frontend.self_ms"]}
    pooled = _least_per_input(named(POOL_PROBE), _dur)
    if pooled:
        pooled_fps = frames_per_op * len(pooled) / sum(_dur(s) for s in pooled.values())
        only_here["sim.pool_speedup"] = {
            "value": pooled_fps / traced_fps,
            "frames_per_s": {f"jobs={pool_jobs}": pooled_fps, "jobs=1": traced_fps},
            "basis": "run_trials on the same inputs in the same traced run, fastest repeat of each",
        }
    return metrics, {"split": split, "workload_metrics": only_here}
