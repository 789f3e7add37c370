"""End-to-end acceptance gate.

Each test checks one shipping criterion and prints a single PASS/FAIL line
(visible under ``pytest -s``) before asserting, so a full run yields one
line per criterion.
"""

import math
import subprocess
import sys

import numpy as np

from swldpc import (
    FOLDED_Z,
    CorrelationModel,
    DecoderConfig,
    SimConfig,
    binary_entropy,
    build_joint_graph,
    conditional_entropy,
    decode,
    format_csv,
    gallager_construct,
    hidden_llr,
    identity_matrix,
    joint_entropy,
    run_trials,
    sample_pair,
    syndrome,
)

from _decoder_reference import EXPLICIT_Z, ReferenceGraph, decode_reference, kernel_snapshots
from _exact_reference import brute_force_marginals
from _forest import random_forest_instance

GRID = [k / 100 for k in range(1, 100)]


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_entropy_identities():
    worst = 0.0
    for p in GRID:
        model = CorrelationModel(p)
        worst = max(worst, abs(conditional_entropy(model) - binary_entropy(p)))
        worst = max(worst, abs(joint_entropy(model) - 1.0 - binary_entropy(p)))
    spot_cond = abs(conditional_entropy(CorrelationModel(0.9)) - 0.4690)
    spot_joint = abs(joint_entropy(CorrelationModel(0.9)) - 1.4690)
    ok = worst <= 1e-12 and spot_cond <= 1e-4 and spot_joint <= 1e-4
    _report(
        1, ok,
        f"entropy identities on 99-point grid (worst dev {worst:.2e}), "
        f"spot h2(0.9) dev {spot_cond:.2e}, joint dev {spot_joint:.2e}",
    )


def test_criterion_2_hidden_llr_magnitude():
    worst = 0.0
    for p in GRID:
        got = abs(hidden_llr(CorrelationModel(p)))
        want = abs(math.log((1.0 - p) / p))
        worst = max(worst, abs(got - want))
    center = hidden_llr(CorrelationModel(0.5))
    ok = worst <= 1e-12 and center == 0.0
    _report(
        2, ok,
        f"|hidden_llr| matches |ln((1-p)/p)| on grid (worst dev {worst:.2e}), "
        f"hidden_llr(0.5)={center!r}",
    )


def test_criterion_3_bp_matches_brute_force_on_trees():
    config = DecoderConfig(max_iterations=60, early_stop=False)
    worst_llr = 0.0
    mismatches = 0
    instances = 25
    for seed in range(instances):
        h1, h2, model, s1, s2 = random_forest_instance(seed)
        graph = build_joint_graph(h1, h2, model, form=FOLDED_Z)
        result = decode(graph, s1, s2, config)
        oracle = brute_force_marginals(h1, h2, model, s1, s2)
        oracle_llr = oracle.posterior_llrs()
        bp_llr = result.posterior_llrs
        worst_llr = max(worst_llr, float(np.max(np.abs(bp_llr - oracle_llr))))
        confident = np.abs(bp_llr) > 1e-6
        hard_bp = bp_llr < 0
        hard_oracle = oracle_llr < 0
        mismatches += int(np.sum(hard_bp[confident] != hard_oracle[confident]))
    ok = worst_llr <= 1e-9 and mismatches == 0
    _report(
        3, ok,
        f"{instances} cycle-free instances: worst posterior deviation "
        f"{worst_llr:.2e} (tol 1e-9), confident hard-decision mismatches {mismatches}",
    )


def test_criterion_4_explicit_and_folded_forms_agree():
    # 10 symmetric instances, both codes (3,6)-regular, where every message
    # stays 0, and 10 corner instances, h1 the identity, whose degree-1
    # checks move the messages; the largest |message| compared shows which
    n = 64
    worst = largest = 0.0
    for r in range(10):
        h2 = gallager_construct(n, 3, 6, seed=100 + r)
        for h1 in (gallager_construct(n, 3, 6, seed=200 + r), identity_matrix(n)):
            model = CorrelationModel(0.9)
            pair = sample_pair(model, n, seed=300 + r)
            s1 = syndrome(h1, pair.u1)
            s2 = syndrome(h2, pair.u2)
            # the explicit graph of the paper is a test oracle, decoded by the
            # reference loop; the library kernel runs the folded graph
            explicit = ReferenceGraph(h1, h2, model, EXPLICIT_Z)
            folded = build_joint_graph(h1, h2, model, form=FOLDED_Z)
            shared = explicit.edge_var < 2 * n

            config = DecoderConfig(max_iterations=20, early_stop=False)
            trace_e = []
            decode_reference(explicit, s1, s2, config, iteration_hook=trace_e.append)
            trace_f = kernel_snapshots(folded, s1, s2, config)
            assert len(trace_e) == len(trace_f) == 20
            for info_e, info_f in zip(trace_e, trace_f):
                pairs = (
                    (info_e.v2c[shared], info_f.v2c),
                    (info_e.c2v[shared], info_f.c2v),
                    (info_e.posteriors[: 2 * n], info_f.posteriors),
                )
                for want, got in pairs:
                    worst = max(worst, float(np.max(np.abs(want - got))))
                    largest = max(largest, float(np.max(np.abs(got))))
    ok = worst <= 1e-12 and largest > 0.0
    _report(
        4, ok,
        f"20 instances (10 symmetric, 10 corner) x 20 iterations: worst "
        f"source-message deviation between explicit and folded forms "
        f"{worst:.2e} (tol 1e-12), largest |message| compared {largest:.2f}",
    )


def _corner_record(p, trials=200, decode_model=None, seed=2024):
    config = SimConfig(
        model=CorrelationModel(p),
        h2=gallager_construct(1024, 3, 6, seed=7),
        trials=trials,
        master_seed=seed,
        decode_model=decode_model,
    )
    return run_trials(config, jobs=4)


def test_criterion_5_corner_point_waterfall():
    good = _corner_record(0.96)
    bad = _corner_record(0.88)
    assert good.r2 == 0.5 and bad.r2 == 0.5
    ok = good.ber2 < 1e-4 and good.fer < 0.05 and bad.fer > 0.9
    _report(
        5, ok,
        f"n=1024 r2=0.5: p=0.96 gives ber2={good.ber2!r}, fer={good.fer!r} "
        f"(need <1e-4, <0.05); p=0.88 gives fer={bad.fer!r} (need >0.9)",
    )


def test_criterion_6_correlation_benefit():
    disabled = _corner_record(0.95, decode_model=CorrelationModel(0.5))
    enabled = _corner_record(0.95)
    ok = disabled.ber2 >= 0.05 and enabled.ber2 < 1e-3
    _report(
        6, ok,
        f"p=0.95: zero hidden LLR gives ber2={disabled.ber2!r} (need >=0.05), "
        f"enabled gives ber2={enabled.ber2!r} (need <1e-3)",
    )


def test_criterion_7_consistency_and_determinism():
    # Part 1: converged frames survive independent re-verification.
    n = 128
    h1 = identity_matrix(n)
    h2 = gallager_construct(n, 3, 6, seed=6)
    converged_frames = 0
    violations = 0
    for t in range(30):
        p = 0.93 if t % 2 else 0.96
        model = CorrelationModel(p)
        pair = sample_pair(model, n, seed=5000 + t)
        s1 = syndrome(h1, pair.u1)
        s2 = syndrome(h2, pair.u2)
        graph = build_joint_graph(h1, h2, model, form=FOLDED_Z)
        result = decode(graph, s1, s2)
        if not result.converged:
            continue
        converged_frames += 1
        if not np.array_equal(syndrome(h1, result.u1_hat), s1):
            violations += 1
        if not np.array_equal(syndrome(h2, result.u2_hat), s2):
            violations += 1
        parity = (result.u1_hat ^ result.u2_hat ^ result.z_hat).astype(np.uint8)
        if parity.any():
            violations += 1
    assert converged_frames >= 10

    # Part 2: CSV output is byte-identical across repeats and worker counts.
    config = SimConfig(
        model=CorrelationModel(0.94),
        h2=gallager_construct(256, 3, 6, seed=6),
        trials=12,
        master_seed=99,
    )
    baseline = format_csv([run_trials(config)])
    library_same = (
        format_csv([run_trials(config)]) == baseline
        and format_csv([run_trials(config, jobs=3)]) == baseline
    )

    argv = [sys.executable, "-m", "swldpc", "simulate", "--p", "0.94", "--n", "64",
            "--dv", "3", "--dc", "6", "--trials", "8", "--seed", "11"]
    runs = [
        subprocess.run(argv + extra, capture_output=True, check=True).stdout
        for extra in ([], [], ["--jobs", "3"])
    ]
    cli_same = runs[0] == runs[1] == runs[2] and len(runs[0]) > 0

    ok = violations == 0 and library_same and cli_same
    _report(
        7, ok,
        f"{converged_frames} converged frames re-verified "
        f"({violations} violations); CSV byte-identical across repeats and "
        f"--jobs variants (library {library_same}, CLI {cli_same})",
    )
