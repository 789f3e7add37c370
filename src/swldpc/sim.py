"""Monte Carlo measurement of joint-decoder rate/error performance.

A simulation point fixes the correlation parameter, the codes, and the
decoder settings, then runs independent trials: sample a correlated pair,
compress both words to syndromes, decode jointly, and compare against the
truth. Results report bit and frame error rates together with the
operating point's distance from the admissible-rate boundary
(``sw_sum_slack`` is the ``sum_slack`` of ``sw_region_check``,
r1 + r2 - H(U1,U2) = r1 + r2 - (1 + h(p)); negative means the point lies
outside the achievable region and errors are expected).

``sweep`` runs every point's trials, and ``run_trials`` is a sweep of one
point. It splits each point into ``min(jobs, trials, cpus)`` contiguous
trial ranges, ``cpus`` the CPUs this process may use, and runs them in
this process where every point is one range, otherwise on one pool of
worker processes per call.

A trial draws its pair with the sampler of ``sample_pair`` and calls the
cores of ``syndrome`` and ``decode`` directly: the config was checked
when it was made, and the arrays are the library's own. It reads only
the decoder's hard decisions, so the u1 posteriors of a corner decode
are never built (see ``decoder``).

Determinism: trial t draws its source pair from a seed produced by
``derive_trial_seed(master_seed, t)``, from the raw PCG64 stream that
NEP 19 keeps stable across numpy versions (see ``sample_pair``), and
error counts are accumulated as integers, so results are identical for
any ``jobs`` setting or chunk split. Without a code for the first source
it is sent uncompressed (its code is the identity, r1 = 1) and only the
second is compressed; given one, both sources are compressed (the
symmetric mode of the command line).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from itertools import islice
from typing import Iterable, Optional, Sequence

import numpy as np

from .correlation import CorrelationModel, RatePair, _draw, sw_region_check
from .decoder import DecoderConfig, _decode, build_joint_graph
from .ldpc import SparseParityMatrix, _check_type, _integer, _row_parity, identity_matrix

_MASK64 = (1 << 64) - 1


def derive_trial_seed(master_seed: int, trial: int) -> int:
    """Seed for one trial's source draw, stable across chunk layouts.

    This is the splitmix64 generator seeded at ``master_seed``, evaluated
    at stream position ``trial``: advance by the 64-bit golden ratio, then
    apply the standard finalizer.
    """
    master_seed, trial = _integer("master_seed", master_seed), _integer("trial", trial)
    if trial < 0:
        raise ValueError("trial index must be nonnegative")
    z = (master_seed + (trial + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class SimConfig:
    """One simulation point.

    Args:
        model: correlation model the source pairs are drawn from.
        h2: code compressing the second source.
        trials: number of independent frames.
        master_seed: seed from which all per-trial seeds derive.
        h1: code compressing the first source; None sends it uncompressed
            (the identity).
        decoder: decoder settings shared by all trials.
        decode_model: correlation model the decoder assumes; defaults to
            the sampling model. Setting it differently measures the cost
            of a mismatched correlation estimate.
    """

    model: CorrelationModel
    h2: SparseParityMatrix
    trials: int
    master_seed: int
    h1: Optional[SparseParityMatrix] = None
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    decode_model: Optional[CorrelationModel] = None

    def __post_init__(self):
        _check_type("model", self.model, CorrelationModel)
        if self.decode_model is not None:
            _check_type("decode_model", self.decode_model, CorrelationModel)
        _check_type("h2", self.h2, SparseParityMatrix)
        if self.h1 is not None:
            _check_type("h1", self.h1, SparseParityMatrix)
            if self.h1.n != self.h2.n:
                raise ValueError(f"codes disagree on block length: {self.h1.n} vs {self.h2.n}")
        _check_type("decoder", self.decoder, DecoderConfig)
        object.__setattr__(self, "trials", _integer("trials", self.trials, positive=True))
        object.__setattr__(self, "master_seed", _integer("master_seed", self.master_seed))


@dataclass(frozen=True)
class SimRecord:
    """Aggregated outcome of one simulation point (one CSV row)."""

    p: float
    n: int
    r1: float
    r2: float
    trials: int
    ber1: float
    ber2: float
    fer: float
    avg_iterations: float
    converged_fraction: float
    sw_sum_slack: float

    def row(self) -> tuple:
        return tuple(getattr(self, c) for c in CSV_COLUMNS)


CSV_COLUMNS = tuple(f.name for f in fields(SimRecord))


def _run_range(config: SimConfig, start: int, stop: int) -> tuple[int, int, int, int, int]:
    """Raw error counts for trials [start, stop).

    Returns (bit errors source 1, bit errors source 2, frame errors,
    summed iteration counts, converged frames).
    """
    n, p = config.h2.n, config.model.p
    h1 = config.h1 if config.h1 is not None else identity_matrix(n)
    graph = build_joint_graph(h1, config.h2, config.decode_model or config.model)
    bit1 = bit2 = frames = iters = conv = 0
    for trial in range(start, stop):
        # the cores of sample_pair, syndrome and decode, which check
        # nothing: the config was checked when made, the arrays are ours
        u1, z = _draw(p, n, derive_trial_seed(config.master_seed, trial))
        u2 = u1 ^ z
        # the identity's syndrome is the block itself
        s1 = u1 if config.h1 is None else _row_parity(h1, u1)
        result = _decode(graph, s1, _row_parity(config.h2, u2), config.decoder)
        e1 = int(np.count_nonzero(result.u1_hat != u1))
        e2 = int(np.count_nonzero(result.u2_hat != u2))
        bit1 += e1
        bit2 += e2
        frames += 1 if (e1 or e2) else 0
        iters += result.iterations_used
        conv += 1 if result.converged else 0
    return bit1, bit2, frames, iters, conv


def _split(trials: int, jobs: int) -> list[tuple[int, int]]:
    """Trials [0, trials) as ``jobs`` contiguous ranges in order, by exact
    integer bounds trials*k // jobs; none is empty when jobs <= trials."""
    bounds = [trials * k // jobs for k in range(jobs + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _record(config: SimConfig, parts: Iterable[tuple[int, int, int, int, int]]) -> SimRecord:
    """One point's record from the counts of its trial ranges."""
    bit1, bit2, frames, iters, conv = (sum(column) for column in zip(*parts))
    n, trials = config.h2.n, config.trials
    r1 = 1.0 if config.h1 is None else config.h1.m / n
    r2 = config.h2.m / n
    return SimRecord(
        p=config.model.p,
        n=n,
        r1=r1,
        r2=r2,
        trials=trials,
        ber1=bit1 / (trials * n),
        ber2=bit2 / (trials * n),
        fer=frames / trials,
        avg_iterations=iters / trials,
        converged_fraction=conv / trials,
        sw_sum_slack=sw_region_check(config.model, RatePair(r1, r2)).sum_slack,
    )


def run_trials(config: SimConfig, jobs: int = 1) -> SimRecord:
    """Run all trials of one simulation point: ``sweep([config], jobs)[0]``.

    ``jobs`` > 1 runs the point's ``min(jobs, trials, cpus)`` trial
    ranges on a pool of worker processes (see ``sweep``); the result does
    not depend on it.
    """
    return sweep([config], jobs)[0]


def sweep(configs: Sequence[SimConfig], jobs: int = 1) -> list[SimRecord]:
    """Run several simulation points; output order matches input order.

    Each point's trials split into ``min(jobs, trials, cpus)`` contiguous
    ranges, where ``cpus`` counts the CPUs this process may run on: each
    range rebuilds the point's graphs in its worker, so ranges beyond the
    workers that can run at once only add that cost. Where every point is
    one range (``jobs`` 1, single-trial points, or one CPU), the ranges
    run in this process. Otherwise every range of every point goes to one
    pool of worker processes, opened once per call, with as many workers
    as the point with the most ranges has. Each point's integer counts are
    summed, so the records do not depend on ``jobs``.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("sweep requires at least one configuration")
    for config in configs:
        _check_type("config", config, SimConfig)
    jobs = _integer("jobs", jobs, positive=True)
    if jobs > 1:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        jobs = min(jobs, cpus or 1)
    ranges = [_split(config.trials, min(jobs, config.trials)) for config in configs]
    tasks = [(config, lo, hi) for config, split in zip(configs, ranges) for lo, hi in split]
    if len(tasks) == len(configs):
        parts = [_run_range(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=max(map(len, ranges))) as pool:
            parts = list(pool.map(_run_range, *zip(*tasks)))
    counts = iter(parts)
    return [_record(config, islice(counts, len(split))) for config, split in zip(configs, ranges)]


def configs_over_p(config: SimConfig, p_values: Sequence[float]) -> list[SimConfig]:
    """Variants of one configuration across correlation parameters.

    Every point keeps the master seed, so points differ only in p. A
    configured decode_model is swept along with the sampling model.
    """
    _check_type("config", config, SimConfig)
    points = []
    for p in p_values:
        model = CorrelationModel(p)
        points.append(
            replace(
                config,
                model=model,
                decode_model=None if config.decode_model is None else model,
            )
        )
    return points


def format_csv(results: Sequence[SimRecord]) -> str:
    """Render results as CSV text with a fixed column order.

    Floats are written with repr, which round-trips exactly, so equal
    results produce byte-identical files.
    """
    lines = [",".join(CSV_COLUMNS)]
    for res in results:
        _check_type("result", res, SimRecord)
        cells = []
        for value in res.row():
            cells.append(str(value) if isinstance(value, int) else repr(float(value)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
