"""Workloads of the swldpc benchmark: set-up, timed operations and the
checks that every operation's output is correct.

Import only after ``src`` of the checkout is on ``sys.path`` (run.py
does this), so that the code under test is the checkout's own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from swldpc import (
    FOLDED_Z,
    CorrelationModel,
    DecoderConfig,
    SimConfig,
    build_joint_graph,
    cli,
    decode,
    derive_trial_seed,
    gallager_construct,
    identity_matrix,
    load_alist,
    run_trials,
    sample_pair,
    save_alist,
    syndrome,
)

from reference import REFERENCE_S, Reference, scale_factors
from tracing import CLI_OP, POOL_PROBE, REPLAY, SETUP, SIM_OP, Tracer

SIMULATE = "simulate"
CLI = "cli"

# Inputs are timed round by round, interleaved, for at least this many
# rounds, and each counts at its median scaled time. The scaled time of one
# operation varies by a few per cent, much less than the work of one input
# varies with its frames, so a run spends its time on many inputs rather
# than on many rounds.
MIN_ROUNDS = 1
SETUP_REPEATS = 5
# Every workload uses the paper's (3,6)-regular code for h2, built from a
# fixed seed, and the CLI's default iteration budget.
DV, DC = 3, 6
CODE_SEED = 2024
MAX_ITERATIONS = 100
# Workers of the pool probe in traced simulate runs: the reference host has
# 2 cores, so more workers would only time-slice.
POOL_JOBS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload. Only the source frames depend on the seed."""

    name: str
    kind: str  # SIMULATE or CLI
    n: int
    p: float
    frames: int  # frames per operation
    inputs: int  # distinct operations per round


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corner-p096", SIMULATE, n=1024, p=0.96, frames=16, inputs=40),
        Workload("corner-p092", SIMULATE, n=1024, p=0.92, frames=10, inputs=80),
        Workload("cli-decode-n16384", CLI, n=16384, p=0.96, frames=4, inputs=8),
    )
}


class BenchError(RuntimeError):
    """The benchmark could not prepare a workload."""


def input_seeds(seed: int, count: int) -> list[int]:
    """``count`` 64-bit seeds drawn from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def bits_line(bits: np.ndarray) -> str:
    return (bits.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _counts_match(record, counts, n: int) -> bool:
    """True iff a SimRecord carries exactly these integer trial counts."""
    bit1, bit2, frames, iters, conv = counts
    t = record.trials
    return (
        record.ber1 == bit1 / (t * n)
        and record.ber2 == bit2 / (t * n)
        and record.fer == frames / t
        and record.avg_iterations == iters / t
        and record.converged_fraction == conv / t
    )


class _Bench:
    def __init__(self, w: Workload, seed: int, workdir: str, tracer: Tracer):
        self.w, self.seed, self.workdir, self.tracer = w, seed, workdir, tracer
        self.model = CorrelationModel(w.p)
        self.bad_inputs: set = set()  # inputs whose output was wrong


class SimulateBench(_Bench):
    """One operation is one ``run_trials`` call for one simulation point."""

    def __init__(self, *args):
        super().__init__(*args)
        self.first: dict = {}  # input -> SimRecord of its first operation
        self.replayed: dict = {}  # input -> trial counts from the replay

    def setup(self) -> None:
        w, span = self.w, self.tracer.span
        with span(SETUP):
            with span("ldpc.gallager_construct"):
                built = gallager_construct(w.n, DV, DC, CODE_SEED)
            # The code travels as an alist file, as from `swldpc makecode`
            # to `swldpc simulate --code2`.
            path = os.path.join(self.workdir, "code2.alist")
            _write(path, save_alist(built))
            text = _read(path)
            with span("ldpc.load_alist"):
                h2 = load_alist(text)
            if h2 != built:
                raise BenchError("alist round trip changed the code")
            self.h1 = identity_matrix(w.n)
            decoder = DecoderConfig(max_iterations=MAX_ITERATIONS)
            self.configs = [
                SimConfig(self.model, h2, w.frames, s, decoder=decoder)
                for s in input_seeds(self.seed, w.inputs)
            ]
            # Warm-up on a point fixed by the workload, not by the seed, so
            # that set-up time does not vary with the seed.
            with span(SIM_OP):
                run_trials(replace(self.configs[0], master_seed=CODE_SEED))

    def input_digest(self) -> str:
        text = ",".join(str(c.master_seed) for c in self.configs)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def op(self, i: int, op_id: int):
        with self.tracer.span(SIM_OP, op=op_id, point=i):
            return run_trials(self.configs[i])

    def verify(self, i: int, record, op_id: int) -> bool:
        """Same record as the input's first operation. Traced runs also
        rerun every operation through the process pool, which must give the
        same record, and replay it; untraced ones replay each input once in
        ``finish``."""
        if self.first.setdefault(i, record) != record:
            return False
        if self.tracer.enabled:
            with self.tracer.span(POOL_PROBE, op=op_id, point=i):
                pooled = run_trials(self.configs[i], jobs=POOL_JOBS)
            return pooled == record and self._replay_ok(i, op_id)
        return True

    def finish(self) -> set:
        """Replay inputs not yet replayed; returns the inputs that failed."""
        for i in sorted(self.first):
            if i not in self.replayed:
                self._replay_ok(i, None)
        return self.bad_inputs

    def _replay_ok(self, i: int, op_id) -> bool:
        counts, bad_frames = self._replay(self.configs[i], op_id, i)
        self.replayed[i] = counts
        if bad_frames or not _counts_match(self.first[i], counts, self.w.n):
            self.bad_inputs.add(i)
            return False
        return True

    def _replay(self, config: SimConfig, op_id, i: int):
        """The trial loop of run_trials, rebuilt from public functions.

        Returns the integer counts (bit errors 1, bit errors 2, frame
        errors, iterations, converged frames) and the number of frames
        reported converged whose output misses a syndrome.
        """
        span, h1, h2, n = self.tracer.span, self.h1, config.h2, self.w.n
        bit1 = bit2 = frames = iters = conv = bad = 0
        with span(REPLAY, op=op_id, point=i):
            with span("graph.build_joint_graph") as attrs:
                graph = build_joint_graph(h1, h2, config.model, form=FOLDED_Z)
                attrs["edges"] = graph.num_edges
            for t in range(config.trials):
                with span("correlation.sample_pair"):
                    pair = sample_pair(config.model, n, derive_trial_seed(config.master_seed, t))
                with span("ldpc.syndrome"):
                    s1 = syndrome(h1, pair.u1)
                with span("ldpc.syndrome"):
                    s2 = syndrome(h2, pair.u2)
                with span("decoder.decode") as attrs:
                    result = decode(graph, s1, s2, config.decoder)
                    attrs.update(iterations=result.iterations_used, converged=result.converged)
                if result.converged and not (
                    np.array_equal(syndrome(h1, result.u1_hat), s1)
                    and np.array_equal(syndrome(h2, result.u2_hat), s2)
                ):
                    bad += 1
                e1 = int(np.count_nonzero(result.u1_hat != pair.u1))
                e2 = int(np.count_nonzero(result.u2_hat != pair.u2))
                bit1, bit2 = bit1 + e1, bit2 + e2
                frames += 1 if (e1 or e2) else 0
                iters += result.iterations_used
                conv += 1 if result.converged else 0
        return (bit1, bit2, frames, iters, conv), bad

    def frame_errors(self) -> int:
        return sum(counts[2] for counts in self.replayed.values())

    def traced_calls(self):
        """Layer calls run inside run_trials; the replay traces them."""
        return contextlib.nullcontext()


@dataclass
class CliInput:
    argv: list
    truth: list  # per frame: (u1 line, u2 line)
    syndromes: list  # per frame: (s1, s2)


class CliBench(_Bench):
    """One operation is one in-process ``swldpc decode`` call."""

    def __init__(self, *args):
        super().__init__(*args)
        self.expected: dict = {}  # input -> (exit code, stdout, frame errors)

    def setup(self) -> None:
        w, span, d = self.w, self.tracer.span, self.workdir
        with span(SETUP):
            with span("ldpc.gallager_construct"):
                self.h2 = gallager_construct(w.n, DV, DC, CODE_SEED)
            self.h1 = identity_matrix(w.n)
            code1, code2 = os.path.join(d, "code1.alist"), os.path.join(d, "code2.alist")
            _write(code1, save_alist(self.h1))
            _write(code2, save_alist(self.h2))
            seeds = iter(input_seeds(self.seed, w.inputs * w.frames))
            self.inputs = []
            for i in range(w.inputs):
                truth, syndromes = [], []
                for _ in range(w.frames):
                    with span("correlation.sample_pair"):
                        pair = sample_pair(self.model, w.n, next(seeds))
                    with span("ldpc.syndrome"):
                        s1 = syndrome(self.h1, pair.u1)
                    with span("ldpc.syndrome"):
                        s2 = syndrome(self.h2, pair.u2)
                    truth.append((bits_line(pair.u1), bits_line(pair.u2)))
                    syndromes.append((s1, s2))
                syn1, syn2 = (os.path.join(d, f"syn{k}-{i}.txt") for k in (1, 2))
                _write(syn1, "".join(bits_line(s) + "\n" for s, _ in syndromes))
                _write(syn2, "".join(bits_line(s) + "\n" for _, s in syndromes))
                argv = ["decode", "--code1", code1, "--code2", code2,
                        "--syn1", syn1, "--syn2", syn2, "--p", repr(w.p),
                        "--max-iters", str(MAX_ITERATIONS)]
                self.inputs.append(CliInput(argv, truth, syndromes))
            with span(CLI_OP):
                code, _, _ = self._call(self.inputs[0].argv)
            if code not in (0, 3):
                raise BenchError(f"warm-up decode exited {code}")

    def input_digest(self) -> str:
        text = "".join(u1 + u2 for inp in self.inputs for u1, u2 in inp.truth)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @staticmethod
    def _call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def op(self, i: int, op_id: int):
        with self.tracer.span(CLI_OP, op=op_id, point=i):
            return self._call(self.inputs[i].argv)

    def verify(self, i: int, outcome, op_id: int) -> bool:
        """The call's exit code and output equal the library's replay."""
        code, out, _ = outcome
        if i not in self.expected:
            self.expected[i] = self._replay(self.inputs[i])
        want_code, want_out, _ = self.expected[i]
        if (code, out) != (want_code, want_out):
            self.bad_inputs.add(i)
            return False
        return True

    def _replay(self, inp: CliInput):
        """What ``swldpc decode`` must print for one input, from the library.

        Every frame is decoded with ``decode`` on ``build_joint_graph``; a
        frame reported converged must reproduce both syndromes (else the
        expected exit code is None, which no call matches). Frame errors
        compare the blocks with the generated pair.
        """
        graph = build_joint_graph(self.h1, self.h2, self.model)
        config = DecoderConfig(max_iterations=MAX_ITERATIONS)
        lines, code, errors = [], 0, 0
        for (u1, u2), (s1, s2) in zip(inp.truth, inp.syndromes):
            result = decode(graph, s1, s2, config)
            if not result.converged:
                code = 3
            elif not (np.array_equal(syndrome(self.h1, result.u1_hat), s1)
                      and np.array_equal(syndrome(self.h2, result.u2_hat), s2)):
                code = None
            got = (bits_line(result.u1_hat), bits_line(result.u2_hat))
            lines += got
            errors += got != (u1, u2)
        return code, "".join(line + "\n" for line in lines), errors

    def finish(self) -> set:
        return self.bad_inputs

    def frame_errors(self) -> int:
        return sum(errors for _, _, errors in self.expected.values())

    @contextlib.contextmanager
    def traced_calls(self):
        """Spans around the layer calls the CLI makes, while tracing."""
        if not self.tracer.enabled:
            yield
            return
        saved = {name: getattr(cli, name) for name in ("load_alist", "build_joint_graph", "decode")}
        wrap = self.tracer.wrap
        cli.load_alist = wrap(saved["load_alist"], "ldpc.load_alist")
        cli.build_joint_graph = wrap(
            saved["build_joint_graph"], "graph.build_joint_graph", lambda g: {"edges": g.num_edges}
        )
        cli.decode = wrap(
            saved["decode"], "decoder.decode",
            lambda r: {"iterations": r.iterations_used, "converged": r.converged},
        )
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)


def _schedule(inputs: int, seconds: float):
    """Input indices round by round, until ``seconds`` have passed and at
    least MIN_ROUNDS rounds are complete."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        for i in range(inputs):
            if rounds >= MIN_ROUNDS and time.perf_counter() >= deadline:
                return
            yield i
        rounds += 1


def _steal_s():
    """Seconds the host has withheld from this virtual machine's CPUs so
    far (the ``steal`` column of /proc/stat), or None where unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


def _summary(times: list, frames_per_op: int) -> dict:
    """Throughput and percentiles over each input's median time."""
    typical = np.array([np.median(t) for t in times if t])
    if not len(typical):
        return {"frames_per_s": 0.0, "op_ms_p50": 0.0, "op_ms_p90": 0.0}
    return {
        "frames_per_s": len(typical) * frames_per_op / typical.sum(),
        "op_ms_p50": float(np.percentile(typical, 50)) * 1e3,
        "op_ms_p90": float(np.percentile(typical, 90)) * 1e3,
    }


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: str):
    """Set up, time and check one workload.

    Returns (end-to-end metrics without peak_rss_mb, run facts, tracer,
    operations attempted, operations failed). Every set-up and operation is
    timed in CPU time and scaled to the reference host by the reference
    kernel runs next to it (see reference.py). Metrics use each input's
    median scaled operation time: ``frames_per_ref_s`` is frames over the
    summed median times, ``op_ref_ms_p50``/``op_ref_ms_p90`` are percentiles
    across inputs. The facts line gives the same figures unscaled, in CPU
    time and in wall time.
    """
    tracer = Tracer(trace)
    bench = (SimulateBench if w.kind == SIMULATE else CliBench)(w, seed, workdir, tracer)
    kernel = Reference()
    for _ in range(3):
        kernel.run()
    reference_s: list[float] = []  # one kernel run before each operation
    timed = []  # (position in reference_s, input, CPU s, wall s)
    attempted = failed = 0
    steal_start = _steal_s()
    with bench.traced_calls():
        setup_cpu, setup_wall, setup_ref = [], [], []
        for _ in range(SETUP_REPEATS):
            around = [kernel.run() for _ in range(3)]
            cpu, wall = time.process_time(), time.perf_counter()
            bench.setup()
            setup_cpu.append(time.process_time() - cpu)
            setup_wall.append(time.perf_counter() - wall)
            around += [kernel.run() for _ in range(3)]
            setup_ref.append(setup_cpu[-1] * REFERENCE_S / float(np.median(around)))

        for op_id, i in enumerate(_schedule(w.inputs, seconds), start=1):
            attempted += 1
            reference_s.append(kernel.run())
            cpu, wall = time.process_time(), time.perf_counter()
            try:
                outcome = bench.op(i, op_id)
            except Exception as err:  # counted as a failed operation
                print(f"operation {op_id} (input {i}) raised {err!r}", file=sys.stderr)
                failed += 1
                continue
            cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
            if bench.verify(i, outcome, op_id):
                timed.append((len(reference_s) - 1, i, cpu, wall))
            else:
                failed += 1
        bad_inputs = bench.finish()
    steal_end = _steal_s()

    # Operations of an input that failed its replay count as failed too.
    failed += sum(1 for _, i, _, _ in timed if i in bad_inputs)
    timed = [t for t in timed if t[1] not in bad_inputs]
    factors = scale_factors(reference_s)
    times = {"ref": [[] for _ in range(w.inputs)], "cpu": [[] for _ in range(w.inputs)],
             "wall": [[] for _ in range(w.inputs)]}
    for k, i, cpu, wall in timed:
        times["ref"][i].append(cpu * factors[k])
        times["cpu"][i].append(cpu)
        times["wall"][i].append(wall)
    done = sum(1 for t in times["ref"] if t)
    frames = done * w.frames
    ref = _summary(times["ref"], w.frames)
    metrics = {
        "frames_per_ref_s": ref["frames_per_s"],
        "op_ref_ms_p50": ref["op_ms_p50"],
        "op_ref_ms_p90": ref["op_ms_p90"],
        "setup_s": float(np.median(setup_ref)),
        "frame_success_rate": 1.0 - bench.frame_errors() / frames if done else 0.0,
    }
    facts = {
        "input_digest": bench.input_digest(),
        "inputs_timed": done,
        "operations_timed": len(timed),
        "frames_per_op": w.frames,
        "frame_errors": bench.frame_errors(),
        "setup_runs_ref_s": setup_ref,
        "setup_runs_cpu_s": setup_cpu,
        "setup_runs_wall_s": setup_wall,
        "reference_kernel_ms": {
            "p10": float(np.percentile(reference_s, 10)) * 1e3 if reference_s else None,
            "p50": float(np.median(reference_s)) * 1e3 if reference_s else None,
            "p90": float(np.percentile(reference_s, 90)) * 1e3 if reference_s else None,
        },
        "unscaled_cpu": _summary(times["cpu"], w.frames),
        "unscaled_wall": _summary(times["wall"], w.frames),
        "host_steal_s": None if steal_start is None else steal_end - steal_start,
    }
    return metrics, facts, tracer, attempted, failed
