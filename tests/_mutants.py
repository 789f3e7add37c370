"""Committed mutants of the library, each with the tier-1 tests that kill it.

``MUTANTS`` lists single mutations of files under ``src/``: a name, the
file, its old text, which occurs exactly once there, the new text, and
the ids of the tests that must fail on it. pytest does not collect this
file; ``tests/test_mutants.py`` checks that every entry still applies.

Run it from any directory; it works on the checkout that holds it:

    python tests/_mutants.py

It first runs every listed test on an unmutated copy of the checkout,
where all must pass. Then, for each mutant, it copies the checkout to a
temporary directory, applies the mutant there and runs its tests with
``-x -q``: the mutant is killed where pytest reports a failed test. It
prints each outcome with its time and the total wall time, and exits 1
if a mutant survives, a run ends in anything but passed or failed tests
(a missing test id, an import error), or the unmutated run fails.

A change to ``src/`` adds mutants for the code it changes, and removes
one only with a proof that it is equivalent. ``EQUIVALENT`` lists such
rewrites, which no test can kill, each with its one-line proof; the
runner does not run them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# what building, testing and running leave behind, and the history; no
# test reads them
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                               ".bench_out", ".benchmarks", "*.egg-info", "build")


class Mutant(NamedTuple):
    name: str
    path: str  # from the root of the checkout
    old: str
    new: str
    killers: tuple[str, ...]


DECODER, LDPC, CORRELATION, SIM, CLI = (
    f"src/swldpc/{module}.py" for module in ("decoder", "ldpc", "correlation", "sim", "cli")
)

MUTANTS = (
    Mutant(
        "stall-exit-only-without-hook", DECODER,
        "if iteration == first and not done and not c2v.any():",
        "if record is None and iteration == first and not done and not c2v.any():",
        ("tests/test_decoder.py::TestStalledGraphs::test_traced_frame_runs_one_iteration[corner]",),
    ),
    Mutant(
        "known-u1-trace-skips-iteration-1", DECODER,
        "record.append(_trace_entry(int(np.count_nonzero(s2)), build, priors, np.zeros(len(s1))))",
        "pass",
        ("tests/test_cli.py::TestTraceParity::test_same_output_with_and_without_trace[exit-0]",),
    ),
    Mutant(
        "stalled-state-handed-over-once", DECODER,
        "record += [entry] * (iterations_used + 1 - iteration)",
        "record += [entry]",
        ("tests/test_acceptance.py::test_criterion_4_explicit_and_folded_forms_agree",),
    ),
    Mutant(
        "damped-mix-drops-old-messages", DECODER,
        "np.add(c2v, new, out=c2v)",
        "np.copyto(c2v, new)",
        ("tests/test_decoder.py::TestWorkspace::test_damped_hooked_frame_mixes_in_place",),
    ),
    Mutant(
        "damping-weights-swapped", DECODER,
        "np.multiply(new, 1.0 - damping, out=new)\n"
        "                np.multiply(c2v, damping, out=c2v)",
        "np.multiply(new, damping, out=new)\n"
        "                np.multiply(c2v, 1.0 - damping, out=c2v)",
        ("tests/test_decoder.py::TestWorkspace::test_damped_hooked_frame_mixes_in_place",),
    ),
    Mutant(
        "damped-frame-builds-in-c2v", DECODER,
        "new = t if damping > 0.0 else c2v",
        "new = c2v",
        ("tests/test_decoder.py::TestWorkspace::test_damped_hooked_frame_mixes_in_place",),
    ),
    Mutant(
        "variable-clamp-dropped", DECODER,
        "t.clip(-limit, limit, out=t)",
        "pass",
        ("tests/test_decoder.py::TestEdgeCases::test_saturated_frame_at_iteration_cap_stays_finite",),
    ),
    Mutant(
        "variable-clamp-narrowed", DECODER,
        "t.clip(-limit, limit, out=t)",
        "t.clip(-0.9 * limit, 0.9 * limit, out=t)",
        ("tests/test_decoder.py::TestEdgeCases::test_saturated_frame_at_iteration_cap_stays_finite",),
    ),
    Mutant(
        "row-parity-or-for-xor", LDPC,
        "return np.bitwise_xor.reduce(u[blocks[0][0]], axis=0)",
        "return np.bitwise_or.reduce(u[blocks[0][0]], axis=0)",
        ("tests/test_ldpc.py::TestSyndrome::test_linearity",),
    ),
    Mutant(
        "load-alist-takes-bytes", LDPC,
        '_check_type("text", text, str)',
        "pass",
        ("tests/test_modules.py::test_entry_points_name_a_wrong_argument[load_alist-bytes]",),
    ),
    Mutant(
        "z-from-one-bit-fewer", CORRELATION,
        "tail >>= 11",
        "tail >>= 12",
        ("tests/test_correlation.py::TestSamplePair::test_draws_what_default_rng_draws[0.5]",),
    ),
    Mutant(
        "pair-keeps-its-arguments", CORRELATION,
        "object.__setattr__(self, name, as_bit_array(getattr(self, name)))",
        "pass",
        ("tests/test_correlation.py::TestCorrelatedPair::test_holds_uint8_bits",),
    ),
    Mutant(
        "fer-counts-source-2-alone", SIM,
        "frames += 1 if (e1 or e2) else 0",
        "frames += 1 if e2 else 0",
        ("tests/test_sim.py::TestRunTrials::test_frames_wrong_in_source_1_alone_count",),
    ),
    Mutant(
        "point-drops-its-last-range", SIM,
        "islice(counts, len(split))",
        "islice(counts, len(split) - 1)",
        ("tests/test_cli.py::TestWorkerProcesses::test_same_csv_with_one_and_two_workers",),
    ),
    Mutant(
        "every-point-runs-the-first-config", SIM,
        "tasks = [(config, lo, hi) for",
        "tasks = [(configs[0], lo, hi) for",
        ("tests/test_cli.py::TestWorkerProcesses::test_same_rows_from_a_sweep_as_from_single_points",),
    ),
    Mutant(
        "configs-over-p-casts-text", SIM,
        "model = CorrelationModel(p)",
        "model = CorrelationModel(float(p))",
        ("tests/test_modules.py::test_configs_over_p_takes_no_text",),
    ),
    Mutant(
        "one-failed-frame-exits-0", CLI,
        "return 3 if failed else 0",
        "return 3 if failed > 1 else 0",
        ("tests/test_cli.py::TestDecode::test_exit_3_on_unconverged_frame",),
    ),
    Mutant(
        "trace-numbers-from-0", CLI,
        "enumerate(result.trace or (), start=1)",
        "enumerate(result.trace or (), start=0)",
        ("tests/test_cli.py::TestTraceParity::test_same_output_with_and_without_trace[exit-0]",),
    ),
    Mutant(
        "joint-u1-from-the-u2-block", DECODER,
        "u1_hat, u2_hat = hard[: graph.n], hard[graph.n :]",
        "u1_hat, u2_hat = hard[graph.n :], hard[graph.n :]",
        ("tests/test_cli.py::TestWorkerProcesses::test_same_decode_and_csv_on_an_irregular_code",),
    ),
    Mutant(
        "known-u1-u2-off-the-priors", DECODER,
        "u2_hat = np.less(posteriors, 0).view(np.uint8)",
        "u2_hat = np.less(priors, 0).view(np.uint8)",
        ("tests/test_cli.py::TestWorkerProcesses::test_same_decode_and_csv_on_an_irregular_code",),
    ),
    Mutant(
        "known-u1-trace-rebuilds-from-the-same-iteration", DECODER,
        "v = np.subtract(previous, priors)",
        "v = np.subtract(posteriors, priors)",
        ("tests/test_cli.py::TestTraceParity::test_same_output_with_and_without_trace[max-iters-3]",),
    ),
    Mutant(
        "closed-form-trace-counts-s1", DECODER,
        "record.append(_trace_entry(int(np.count_nonzero(s2)),",
        "record.append(_trace_entry(int(np.count_nonzero(s1)),",
        ("tests/test_cli.py::TestTraceParity::test_same_output_with_and_without_trace"
         "[n16384-max-iters-1]",),
    ),
    Mutant(
        "start-state-trace-in-half-llrs", DECODER,
        "start = plan.by_id(posteriors * 2.0)",
        "start = plan.by_id(posteriors)",
        ("tests/test_cli.py::TestTraceParity::test_same_output_with_and_without_trace"
         "[n16384-max-iters-2]",),
    ),
    Mutant(
        "loop-trace-in-half-llrs", DECODER,
        "last, plan.by_id(posteriors * 2.0))",
        "last, plan.by_id(posteriors))",
        ("tests/test_cli.py::TestTraceParity::test_same_output_with_and_without_trace[exit-0]",),
    ),
    Mutant(
        "known-u1-trace-rebuilds-from-the-priors", DECODER,
        "last = None if joint is None else plan.by_id(previous * 2.0)",
        "last = None if joint is None else plan.by_id(workspace.base * 2.0)",
        ("tests/test_cli.py::TestTraceParity::test_same_output_with_and_without_trace[exit-3]",),
    ),
    Mutant(
        "loop-trace-built-from-one-state", DECODER,
        "last = None if joint is None else plan.by_id(previous * 2.0)",
        "last = None if joint is None else plan.by_id(posteriors * 2.0)",
        ("tests/test_cli.py::TestTraceParity::test_same_output_with_and_without_trace[max-iters-3]",),
    ),
    Mutant(
        "known-u1-trace-leaves-iteration-2-unbuilt", DECODER,
        "record.append(_trace_entry(unsatisfied_checks, joint, start, start))",
        "record.append(_trace_entry(unsatisfied_checks, None, start, start))",
        ("tests/test_cli.py::TestTraceParity::test_same_output_with_and_without_trace[max-iters-2]",),
    ),
    Mutant(
        "trace-mean-without-abs", DECODER,
        "float(np.abs(posteriors).mean())",
        "float(posteriors.mean())",
        ("tests/test_decoder.py::TestIterationHook::test_snapshots_cover_every_iteration",
         "tests/test_cli.py::TestTraceParity::test_same_output_with_and_without_trace[exit-0]"),
    ),
    Mutant(
        "decode-takes-any-trace", DECODER,
        'trace = _boolean("trace", trace)',
        "pass",
        ("tests/test_decoder.py::TestConfig::test_decode_rejects_a_trace_that_is_not_a_bool[str]",),
    ),
    Mutant(
        "flag-check-takes-ints", LDPC,
        "if not isinstance(value, (bool, np.bool_)):",
        "if not isinstance(value, (int, np.bool_)):",
        ("tests/test_decoder.py::TestConfig::test_early_stop_must_be_a_bool[int-0]",),
    ),
    Mutant(
        "bits-check-only-above-one", LDPC,
        "((u == 0) | (u == 1)).all()",
        "(u <= 1).all()",
        ("tests/test_ldpc.py::TestAsBitArray::test_rejects_anything_else[minus-one]",
         "tests/test_ldpc.py::TestAsBitArray::test_rejects_anything_else[half]"),
    ),
    Mutant(
        "row-blocks-by-weight", LDPC,
        "for d in dict.fromkeys(runs)]",
        "for d in sorted(set(runs))]",
        ("tests/test_ldpc.py::TestRowBlocks::test_blocks_partition_the_rows",),
    ),
    Mutant(
        "low-word-reads-every-digit", LDPC,
        "np.minimum(num_digits, 8) if width > 8 else num_digits)",
        "num_digits)",
        ("tests/test_cli.py::TestTraceParity::test_same_output_with_and_without_trace"
         "[n16384-max-iters-3]",),
    ),
    Mutant(
        "crlf-read-as-two-line-ends", CLI,
        'data.replace(b"\\r\\n", b"\\n").replace(b"\\r", b"\\n")',
        'data.replace(b"\\r", b"\\n")',
        ("tests/test_cli.py::TestTraceParity::test_same_output_with_and_without_trace"
         "[n16384-max-iters-100]",),
    ),
    Mutant(
        "config-file-wins-over-flags", CLI,
        "if getattr(args, name) is not None:",
        "if getattr(args, name) is not None and name not in settings:",
        ("tests/test_cli.py::TestWorkerProcesses::test_same_rows_from_a_sweep_as_from_single_points",),
    ),
    Mutant(
        "no-warning-outside-the-region", CLI,
        "if not check.admissible:",
        "if False:",
        ("tests/test_cli.py::TestSimulate::test_warns_of_a_point_outside_the_region[symmetric]",),
    ),
    Mutant(
        "read-catches-only-oserror", CLI,
        "return parse(text)\n    except (OSError, ValueError) as err:",
        "return parse(text)\n    except OSError as err:",
        ("tests/test_cli.py::test_no_traceback_from_a_bad_input_file",),
    ),
    Mutant(
        "alist-minus-sign-dropped", LDPC,
        "values[negative] *= -1",
        "pass",
        ("tests/test_alist.py::TestGrammar::test_signs_and_leading_zeros_keep_their_meaning",),
    ),
    Mutant(
        "alist-cross-check-skipped", LDPC,
        "if not np.array_equal(from_cols, from_rows):",
        "if False:",
        ("tests/test_alist.py::TestDifferential::test_single_token_mutations[chain]",),
    ),
    Mutant(
        "column-staircase-heaviest-first", LDPC,
        'order = np.argsort(weights, kind="stable")',
        'order = np.argsort(weights, kind="stable")[::-1]',
        ("tests/test_decoder.py::TestKernelPlan::test_code_plans[irregular]",),
    ),
    Mutant(
        "construct-keeps-parallel-edges", LDPC,
        "if any((checks_of_var[:, a] == checks_of_var[:, b]).any() for a, b in socket_pairs):",
        "if False:",
        ("tests/test_construct.py::TestMatchesReference::test_benchmark_size",),
    ),
    Mutant(
        "trial-seed-from-position-0", SIM,
        "(trial + 1) * 0x9E3779B97F4A7C15",
        "trial * 0x9E3779B97F4A7C15",
        ("tests/test_sim.py::TestTrialSeeds::test_frozen_values",),
    ),
    Mutant(
        "split-drops-the-remainder", SIM,
        "bounds = [trials * k // jobs for k in range(jobs + 1)]",
        "bounds = [trials // jobs * k for k in range(jobs + 1)]",
        ("tests/test_sim.py::TestRunTrials::test_split_is_exact[2-7]",),
    ),
    Mutant(
        "model-takes-p-zero", CORRELATION,
        "if not 0.0 < p < 1.0:",
        "if not 0.0 <= p < 1.0:",
        ("tests/test_correlation.py::TestModel::test_valid_range_is_open",),
    ),
    Mutant(
        "damping-takes-one", DECODER,
        "0.0 <= self.damping < 1.0",
        "0.0 <= self.damping <= 1.0",
        ("tests/test_decoder.py::TestConfig::test_damping_must_be_a_number_in_range[1.0]",),
    ),
    Mutant(
        "sum-slack-off-the-joint-entropy", CORRELATION,
        "sum_slack = rates.r1 + rates.r2 - joint_entropy(model)",
        "sum_slack = rates.r1 + rates.r2 - 1.0 - h",
        ("tests/test_cli.py::TestSimulate::test_warns_of_a_point_outside_the_region[symmetric]",),
    ),
    Mutant(
        "check-message-without-half", DECODER,
        "np.tanh(np.multiply(m, 0.5, out=m), out=m)",
        "np.tanh(m, out=m)",
        # c_id becomes 2 atanh(tanh(LLR_MAX)) = 2 atanh(1.0), an inf and a
        # warning at import, which fails every test module at collection
        ("tests/test_readme.py::test_python_blocks_run",),
    ),
    Mutant(
        "known-u1-priors-negated", DECODER,
        "_SIGN * q",
        "_SIGN * -q",
        ("tests/test_decoder.py::TestKnownU1::test_applies_to_the_corner_graph[built]",),
    ),
    Mutant(
        "u2-or-for-xor", CORRELATION,
        "u2 = self.u1 ^ self.z",
        "u2 = self.u1 | self.z",
        ("tests/test_correlation.py::TestSamplePair::test_draws_what_default_rng_draws[0.5]",),
    ),
    Mutant(
        "z-hat-or-for-xor", DECODER,
        "return self.u1_hat ^ self.u2_hat",
        "return self.u1_hat | self.u2_hat",
        ("tests/test_decoder.py::TestConvergenceFlag::test_flag_matches_reencoded_syndromes",),
    ),
    Mutant(
        "known-u1-keeps-a-degree-1-row", DECODER,
        "if any(len(block) == 1 for block, _ in self.h2._row_blocks):",
        "if False:",
        ("tests/test_decoder.py::TestKnownU1::test_does_not_apply[h2-degree-1]",),
    ),
    Mutant(
        "pair-arrays-left-writable", CORRELATION,
        "getattr(self, name).flags.writeable = False",
        "pass",
        ("tests/test_correlation.py::TestCorrelatedPair::test_arrays_are_read_only",),
    ),
    Mutant(
        "known-u1-priors-off-the-hidden-llr", DECODER,
        "q = _check_message(self._corr_factor, np.array(_IDENTITY_BY_BIT[0]))",
        "q = _check_message(self._corr_factor, np.array(hidden_llr(self.model)))",
        ("tests/test_decoder.py::TestKnownU1::test_applies_to_the_corner_graph[built]",),
    ),
    Mutant(
        "workspace-buffer-from-malloc", DECODER,
        "self.c2v = _page_aligned(num_edges)",
        "self.c2v = np.empty(num_edges)",
        ("tests/test_decoder.py::TestWorkspace::test_buffers_are_page_aligned",),
    ),
    Mutant(
        "plan-staircase-left-unaligned", DECODER,
        "_page_aligned(len(staircase), dtype=np.int64, fill=staircase)",
        "staircase",
        ("tests/test_decoder.py::TestWorkspace::test_buffers_are_page_aligned",),
    ),
    Mutant(
        "excl-degree-1-not-filled", DECODER,
        "self.excl = _page_aligned(num_edges, fill=_TANH_LIMIT)",
        "self.excl = _page_aligned(num_edges)",
        ("tests/test_decoder.py::TestAtanhArgumentClip::test_joint_graph_with_degree_1_checks",),
    ),
)


class Equivalent(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    proof: str  # why no input can tell the two apart


# Rewrites that change no result, each with its proof; the runner does not
# run them, and ``tests/test_mutants.py`` checks that each still applies.
EQUIVALENT = (
    Equivalent(
        "check-message-factor-on-the-right", DECODER,
        "np.multiply(m, factor, out=m)",
        "np.multiply(factor, m, out=m)",
        "IEEE 754 multiplication is commutative: both orders round the one exact product",
    ),
    Equivalent(
        "known-u1-trace-rebuilds-each-stalled-repeat", DECODER,
        "record += [entry] * (iterations_used + 1 - iteration)",
        "record += [_trace_entry(unsatisfied_checks, joint, last, plan.by_id(posteriors * 2.0))\n"
        "                           for _ in range(iterations_used + 1 - iteration)]",
        "an entry is an int and a float, made by the same calls on the same arrays for every "
        "repeat, so each repeat's equals the shared one and the record holds no array to share",
    ),
    Equivalent(
        "known-u1-priors-spelled-out", DECODER,
        "_SIGN * q",
        "np.array([q, -q])",
        "1.0 * q and -1.0 * q are exact, so _SIGN * q holds q and -q bit for bit",
    ),
)


def _copy(scratch: Path, name: str, mutant: Mutant | None = None) -> Path:
    """A copy of the checkout under ``scratch``, with ``mutant`` applied."""
    tree = scratch / name
    shutil.copytree(ROOT, tree, ignore=_SKIP)
    if mutant is not None:
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} "
                             f"times in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new))
    return tree


def _run(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """``python *args`` in ``tree``, importing the package from its ``src``."""
    path = [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True,
                          text=True)


def _pytest(tree: Path, tests, *options: str) -> subprocess.CompletedProcess:
    return _run(tree, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options, *tests)


def main() -> int:
    tests = list(dict.fromkeys(test for mutant in MUTANTS for test in mutant.killers))
    start = time.perf_counter()
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        tree = _copy(Path(scratch), "unmutated")
        where = _run(tree, "-c", "import swldpc; print(swldpc.__file__)").stdout.strip()
        if not Path(where).is_relative_to(tree):
            print(f"the copy imports swldpc from {where!r}", file=sys.stderr)
            return 1
        run = _pytest(tree, tests)
        print(f"unmutated: {len(tests)} tests, exit {run.returncode} "
              f"({time.perf_counter() - start:.1f} s)")
        if run.returncode != 0:
            print(run.stdout[-3000:], run.stderr[-3000:], sep="\n")
            return 1
        for k, mutant in enumerate(MUTANTS):
            began = time.perf_counter()
            run = _pytest(_copy(Path(scratch), f"mutant-{k}", mutant), mutant.killers, "-x")
            # pytest exits 1 only where a test failed: any other code is no kill
            outcome = {0: "SURVIVED", 1: "killed"}.get(run.returncode, f"ERROR {run.returncode}")
            print(f"{outcome:<9} {mutant.name} ({time.perf_counter() - began:.1f} s)")
            if run.returncode != 1:
                failures += 1
                print(run.stdout[-3000:], run.stderr[-3000:], sep="\n")
    print(f"{len(MUTANTS)} mutants, {len(MUTANTS) - failures} killed; "
          f"wall time {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
