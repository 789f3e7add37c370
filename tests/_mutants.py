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
one only with a proof that it is equivalent.
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
        "if hook is None and iteration == first and not done and not c2v.any():",
        ("tests/test_decoder.py::TestStalledGraphs::test_traced_frame_runs_one_iteration[corner]",),
    ),
    Mutant(
        "known-u1-trace-skips-iteration-1", DECODER,
        "hook(1, int(np.count_nonzero(s2)), rebuild(zeros, zeros, zeros), None)",
        "pass",
        ("tests/test_cli.py::TestTraceParity::test_same_output_with_and_without_trace[exit-0]",),
    ),
    Mutant(
        "stalled-state-handed-over-once", DECODER,
        "for repeat in range(iteration, iterations_used + 1):",
        "for repeat in range(iteration, iteration + 1):",
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
