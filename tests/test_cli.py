import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swldpc
from swldpc import (
    ConstructionError,
    CorrelationModel,
    DecoderConfig,
    SimConfig,
    build_joint_graph,
    format_csv,
    gallager_construct,
    identity_matrix,
    load_alist,
    run_trials,
    sample_pair,
    save_alist,
    syndrome,
)
from swldpc import cli
from swldpc.cli import main
from swldpc.ldpc import SparseParityMatrix

from _decoder_reference import decode_reference

BOUNDS_LINE = (
    "admissible=true r1_slack=0.5310044064107189 "
    "r2_slack=0.031004406410718888 sum_slack=0.031004406410718888\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "error" in err

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "transmogrify")[0] == 1

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "bounds", "--p", "0.9", "--r1", "1", "--r2", "1", "--x")[0] == 1

    def test_reused_parser_reads_like_a_fresh_one(self, capsys, coding_setup):
        paths, _ = coding_setup
        decode_argv = [
            "decode", "--code1", str(paths["c1"]), "--code2", str(paths["c2"]),
            "--syn1", str(paths["s1"]), "--syn2", str(paths["s2"]), "--p", "0.93",
        ]
        calls = [
            ["bounds", "--p", "0.9", "--r1", "1.0", "--r2", "0.5"],
            ["encode", str(paths["u2"]), "--code1", str(paths["c2"])],
            ["bounds", "--p", "0.9", "--r1", "-inf", "--r2", "0.5"],
            decode_argv,
            ["makecode", "--n", "12", "--dv", "3", "--dc", "6", "--seed", "4"],
            ["simulate", "--p", "0.9", "--n", "16", "--dv", "3", "--dc", "6", "--trials", "2"],
            decode_argv + ["--max-iters", "2", "--trace"],
            ["encode", str(paths["u2"])],
            ["encode", str(paths["u2"]), "--code1", str(paths["c2"]) + ".missing"],
            [],
            ["simulate", "--p", "0.9", "--n", "16", "--dv", "3", "--dc", "6", "--trials", "2",
             "--seed", "5"],
            ["bounds", "--p", "0.9", "--r1", "1", "--r2", "1", "--x"],
            decode_argv,
        ]
        reused = [run_cli(capsys, *argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert reused == fresh
        assert {code for code, _, _ in reused} == {0, 1, 2, 3}

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "swldpc", "bounds", "--p", "0.9", "--r1", "1.0", "--r2", "0.5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == BOUNDS_LINE


class TestBounds:
    def test_admissible_point(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--p", "0.9", "--r1", "1.0", "--r2", "0.5")
        assert code == 0
        assert out == BOUNDS_LINE

    def test_inadmissible_point(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--p", "0.9", "--r1", "0.73", "--r2", "0.73")
        assert code == 0
        assert out.startswith("admissible=false ")
        assert "sum_slack=-0.008995593589281148" in out

    def test_invalid_p(self, capsys):
        assert run_cli(capsys, "bounds", "--p", "1.0", "--r1", "1", "--r2", "1")[0] == 1

    def test_negative_rate(self, capsys):
        assert run_cli(capsys, "bounds", "--p", "0.9", "--r1", "-1", "--r2", "1")[0] == 1

    @pytest.mark.parametrize("flag", ["--r1", "--r2"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rate(self, capsys, flag, value):
        rates = {"--r1": "1.0", "--r2": "0.5", flag: value}
        # "--r1=-inf": argparse would read a separate "-inf" as a flag
        argv = ["bounds", "--p", "0.9", *(f"{k}={v}" for k, v in rates.items())]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert "rates must be finite numbers" in err

    @pytest.mark.parametrize(
        "value, message",
        [
            ("-inf", "rates must be finite numbers, got (-inf, 0.5)"),
            ("-Infinity", "rates must be finite numbers, got (-inf, 0.5)"),
            ("-nan", "rates must be finite numbers, got (nan, 0.5)"),
            ("-1e-3", "rates must be nonnegative, got (-0.001, 0.5)"),
            ("-.5E+1", "rates must be nonnegative, got (-5.0, 0.5)"),
            ("-2", "rates must be nonnegative, got (-2.0, 0.5)"),
        ],
    )
    def test_negative_value_after_the_flag(self, capsys, value, message):
        # a separate value that starts with "-" reads like the "=" form
        separate = run_cli(capsys, "bounds", "--p", "0.9", "--r1", value, "--r2", "0.5")
        joined = run_cli(capsys, "bounds", "--p", "0.9", f"--r1={value}", "--r2", "0.5")
        assert separate == joined
        assert separate[:2] == (1, "")
        assert message in separate[2]

    def test_flag_after_a_flag_still_needs_a_value(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--p", "0.9", "--r1", "--r2", "0.5")
        assert (code, out) == (1, "")
        assert "argument --r1: expected one argument" in err


class TestMakecode:
    def test_writes_valid_deterministic_alist(self, capsys, tmp_path):
        out_file = tmp_path / "code.alist"
        code, out, err = run_cli(
            capsys, "makecode", "--n", "24", "--dv", "3", "--dc", "6",
            "--seed", "5", "--out", str(out_file),
        )
        assert code == 0
        assert out_file.read_text() == out
        assert err == "constructed (3,6)-regular code: n=24 m=12 design_rate=0.5\n"
        h = load_alist(out)
        assert h.n == 24 and h.m == 12
        assert h == gallager_construct(24, 3, 6, seed=5)
        assert out == save_alist(h)

        code2, out2, _ = run_cli(
            capsys, "makecode", "--n", "24", "--dv", "3", "--dc", "6", "--seed", "5"
        )
        assert code2 == 0 and out2 == out

    def test_bad_degree_combination(self, capsys):
        code, _, err = run_cli(capsys, "makecode", "--n", "13", "--dv", "3", "--dc", "6", "--seed", "1")
        assert code == 1
        assert "divisible" in err

    def test_seed_required(self, capsys):
        assert run_cli(capsys, "makecode", "--n", "24", "--dv", "3", "--dc", "6")[0] == 1

    def test_block_length_beyond_the_index_range(self, capsys):
        # refused by its size before anything is allocated
        n = 10**21
        code, out, err = run_cli(capsys, "makecode", "--n", str(n), "--dv", "3", "--dc", "6",
                                 "--seed", "1")
        assert (code, out) == (1, "")
        assert err == (f"swldpc: error: block length n={n} is too large: "
                       f"n*m={n * n // 2} exceeds {2**63 - 1}\n")

    @pytest.mark.parametrize("argv", [
        ["makecode", "--n", "24", "--dv", "3", "--dc", "6", "--seed", "1"],
        ["simulate", "--p", "0.9", "--n", "24", "--dv", "3", "--dc", "6", "--seed", "1"],
        ["simulate", "--p", "0.9", "--n", "24", "--dv", "3", "--dc", "6", "--seed", "1",
         "--mode", "symmetric"],
    ], ids=["makecode", "simulate", "simulate-symmetric"])
    def test_construction_out_of_memory(self, capsys, monkeypatch, argv):
        # a code too large for memory is one error line, exit 2; the
        # constructor is stubbed, so nothing large is allocated
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 18.6 GiB")

        monkeypatch.setattr(cli, "gallager_construct", out_of_memory)
        assert run_cli(capsys, *argv) == (
            2, "", "swldpc: error: not enough memory to construct the code\n"
        )

    @pytest.mark.parametrize("argv", [
        ["makecode", "--n", "24", "--dv", "3", "--dc", "6", "--seed", "1"],
        ["simulate", "--p", "0.9", "--n", "24", "--dv", "3", "--dc", "6", "--seed", "1"],
    ], ids=["makecode", "simulate"])
    def test_construction_failure(self, capsys, monkeypatch, argv):
        # every permutation draw rejected: one error line, exit 2
        def no_draw_accepted(*args):
            raise ConstructionError("could not build the code")

        monkeypatch.setattr(cli, "gallager_construct", no_draw_accepted)
        assert run_cli(capsys, *argv) == (2, "", "swldpc: error: could not build the code\n")


class TestEncode:
    H = SparseParityMatrix.from_rows(3, ((0, 1), (1, 2)))

    def _write_code(self, tmp_path):
        path = tmp_path / "h.alist"
        path.write_text(save_alist(self.H))
        return str(path)

    def test_worked_example(self, capsys, tmp_path):
        code_path = self._write_code(tmp_path)
        bits = tmp_path / "bits.txt"
        bits.write_text("101\n011\n")
        code, out, _ = run_cli(capsys, "encode", str(bits), "--code1", code_path)
        assert code == 0
        assert out == "11\n10\n"

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        code_path = self._write_code(tmp_path)
        bits = tmp_path / "bits.txt"
        bits.write_text("111\n")
        target = tmp_path / "syn.txt"
        code, out, _ = run_cli(capsys, "encode", str(bits), "--code1", code_path, "--out", str(target))
        assert code == 0
        assert target.read_text() == out == "00\n"

    def test_wrong_block_length(self, capsys, tmp_path):
        code_path = self._write_code(tmp_path)
        bits = tmp_path / "bits.txt"
        bits.write_text("101\n01\n")
        code, _, err = run_cli(capsys, "encode", str(bits), "--code1", code_path)
        assert code == 2
        assert "line 2" in err and "bits.txt" in err

    def test_non_bit_character(self, capsys, tmp_path):
        code_path = self._write_code(tmp_path)
        bits = tmp_path / "bits.txt"
        bits.write_text("1x1\n")
        assert run_cli(capsys, "encode", str(bits), "--code1", code_path)[0] == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1x1\n", "line 1: expected only 0/1 characters"),
            ("101\n1 01\n", "line 2: expected only 0/1 characters"),
            ("101\n121\n", "line 2: expected only 0/1 characters"),
            ("101\n/01\n", "line 2: expected only 0/1 characters"),
            ("101\n10\n", "line 2: expected 3 bits, found 2"),
            ("101\n\n", "line 2: expected 3 bits, found 0"),
            # bits files are ASCII: a non-ASCII digit or space, here in UTF-8,
            # fails on its line at its first byte
            ("101\n1\u00e91\n", "line 2: byte 0xc3 is not valid ASCII"),
            ("101\n011\n\u00a0101\n", "line 3: byte 0xc2 is not valid ASCII"),
            ("\uff11\uff10\uff11\n", "line 1: byte 0xef is not valid ASCII"),
        ],
    )
    def test_bit_file_errors_name_the_line(self, capsys, tmp_path, text, message):
        code_path = self._write_code(tmp_path)
        bits = tmp_path / "bits.txt"
        bits.write_bytes(text.encode())
        code, out, err = run_cli(capsys, "encode", str(bits), "--code1", code_path)
        assert (code, out) == (2, "")
        assert err == f"swldpc: error: {bits}: {message}\n"

    def test_bit_lines_tolerate_surrounding_whitespace(self, capsys, tmp_path):
        code_path = self._write_code(tmp_path)
        bits = tmp_path / "bits.txt"
        bits.write_bytes(b" 101\t\r\n011 \n")
        code, out, _ = run_cli(capsys, "encode", str(bits), "--code1", code_path)
        assert code == 0
        assert out == "11\n10\n"

    def test_missing_files(self, capsys, tmp_path):
        code_path = self._write_code(tmp_path)
        assert run_cli(capsys, "encode", str(tmp_path / "nope"), "--code1", code_path)[0] == 2
        bits = tmp_path / "bits.txt"
        bits.write_text("101\n")
        assert run_cli(capsys, "encode", str(bits), "--code1", str(tmp_path / "nope"))[0] == 2

    def test_malformed_alist_names_file_and_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.alist"
        bad.write_text(save_alist(self.H).replace("2 3", "2 9"))
        bits = tmp_path / "bits.txt"
        bits.write_text("101\n")
        code, _, err = run_cli(capsys, "encode", str(bits), "--code1", str(bad))
        assert code == 2
        assert "bad.alist" in err and "line 9" in err

    def test_code_flag_required(self, capsys, tmp_path):
        bits = tmp_path / "bits.txt"
        bits.write_text("101\n")
        assert run_cli(capsys, "encode", str(bits))[0] == 1


@pytest.fixture
def coding_setup(tmp_path):
    """Identity H1 and a (3,6) H2 at n=16 plus three encoded frames."""
    n = 16
    h1 = identity_matrix(n)
    h2 = gallager_construct(n, 3, 6, seed=5)
    model = CorrelationModel(0.93)
    paths = {
        "c1": tmp_path / "c1.alist",
        "c2": tmp_path / "c2.alist",
        "u1": tmp_path / "u1.txt",
        "u2": tmp_path / "u2.txt",
        "s1": tmp_path / "s1.txt",
        "s2": tmp_path / "s2.txt",
    }
    paths["c1"].write_text(save_alist(h1))
    paths["c2"].write_text(save_alist(h2))
    frames = [sample_pair(model, n, seed=100 + t) for t in range(3)]
    to_line = lambda bits: "".join(str(int(b)) for b in bits)
    paths["u1"].write_text("".join(to_line(f.u1) + "\n" for f in frames))
    paths["u2"].write_text("".join(to_line(f.u2) + "\n" for f in frames))
    paths["s1"].write_text("".join(to_line(syndrome(h1, f.u1)) + "\n" for f in frames))
    paths["s2"].write_text("".join(to_line(syndrome(h2, f.u2)) + "\n" for f in frames))
    return paths, frames


class TestDecode:
    def _argv(self, paths, *extra):
        return [
            "decode",
            "--code1", str(paths["c1"]),
            "--code2", str(paths["c2"]),
            "--syn1", str(paths["s1"]),
            "--syn2", str(paths["s2"]),
            "--p", "0.93",
            *extra,
        ]

    def test_reconstructs_all_frames(self, capsys, coding_setup):
        paths, frames = coding_setup
        code, out, err = run_cli(capsys, *self._argv(paths))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        for t, frame in enumerate(frames):
            assert lines[2 * t] == "".join(str(int(b)) for b in frame.u1)
            assert lines[2 * t + 1] == "".join(str(int(b)) for b in frame.u2)

    def test_trace_goes_to_stderr(self, capsys, coding_setup):
        paths, _ = coding_setup
        code, out, err = run_cli(capsys, *self._argv(paths, "--trace"))
        assert code == 0
        assert "frame=0 iter=1 " in err
        assert "unsatisfied=" in err
        assert "frame=" not in out

    def test_plain_decode_builds_no_joint_structure(self, capsys, coding_setup, monkeypatch):
        paths, _ = coding_setup
        graphs = []

        def recording(*args, **kwargs):
            graphs.append(build_joint_graph(*args, **kwargs))
            return graphs[-1]

        monkeypatch.setattr(cli, "build_joint_graph", recording)
        plain = run_cli(capsys, *self._argv(paths))
        traced = run_cli(capsys, *self._argv(paths, "--trace"))
        assert plain[0] == traced[0] == 0 and plain[1] == traced[1]
        # --trace decodes on H2 alone too
        for graph in graphs:
            assert graph._known_u1 is not None
            assert not {"edge_var", "_plan"} & set(vars(graph))

    def test_layer_calls_per_decode(self, capsys, coding_setup, monkeypatch):
        # the benchmark's traced CLI run rebinds these three names
        paths, frames = coding_setup
        calls = {"load_alist": 0, "build_joint_graph": 0, "decode": 0}

        def counting(name):
            inner = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counting(name))
        assert run_cli(capsys, *self._argv(paths))[0] == 0
        assert calls == {"load_alist": 2, "build_joint_graph": 1, "decode": len(frames)}

    def test_exit_3_on_unconverged_frame(self, capsys, tmp_path):
        n = 64
        h1, h2 = identity_matrix(n), gallager_construct(n, 3, 6, seed=2)
        pair = sample_pair(CorrelationModel(0.8), n, seed=123)
        files = {}
        for name, content in (
            ("c1", save_alist(h1)),
            ("c2", save_alist(h2)),
            ("s1", "".join(str(int(b)) for b in syndrome(h1, pair.u1)) + "\n"),
            ("s2", "".join(str(int(b)) for b in syndrome(h2, pair.u2)) + "\n"),
        ):
            files[name] = tmp_path / name
            files[name].write_text(content)
        code, out, err = run_cli(
            capsys, "decode",
            "--code1", str(files["c1"]), "--code2", str(files["c2"]),
            "--syn1", str(files["s1"]), "--syn2", str(files["s2"]),
            "--p", "0.8", "--max-iters", "5",
        )
        assert code == 3
        assert "not converged" in err
        assert len(out.splitlines()) == 2  # best-effort output still written

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--p", "-inf", "correlation parameter must be a finite number"),
            ("--p", "-nan", "correlation parameter must be a finite number"),
            ("--p", "-1e-3", "correlation parameter must satisfy 0 < p < 1, got -0.001"),
            ("--damping", "-1e-3", "damping must lie in [0, 1)"),
        ],
    )
    def test_negative_value_after_the_flag(self, capsys, coding_setup, flag, value, message):
        paths, _ = coding_setup
        separate = run_cli(capsys, *self._argv(paths, flag, value))
        joined = run_cli(capsys, *self._argv(paths, f"{flag}={value}"))
        assert separate == joined
        assert separate[:2] == (1, "")
        assert message in separate[2]

    def test_frame_count_mismatch(self, capsys, coding_setup):
        paths, _ = coding_setup
        paths["s1"].write_text(paths["s1"].read_text().splitlines()[0] + "\n")
        assert run_cli(capsys, *self._argv(paths))[0] == 2

    def test_block_length_mismatch(self, capsys, coding_setup, tmp_path):
        paths, _ = coding_setup
        other = tmp_path / "other.alist"
        other.write_text(save_alist(identity_matrix(8)))
        paths["c1"] = other
        assert run_cli(capsys, *self._argv(paths))[0] == 2

    def test_out_file(self, capsys, coding_setup, tmp_path):
        paths, _ = coding_setup
        target = tmp_path / "decoded.txt"
        code, out, _ = run_cli(capsys, *self._argv(paths, "--out", str(target)))
        assert code == 0
        assert target.read_text() == out


def _permuted_identity(n):
    """The identity's rows in a fixed shuffled order: a code1 whose graph
    the known-u1 reduction rejects, so that it decodes on the joint graph,
    and whose syndrome is u1 shuffled the same way."""
    rows = [(int(i),) for i in np.random.default_rng(1).permutation(n)]
    return SparseParityMatrix.from_rows(n, rows)


def _reformatted(text):
    """Alist text with every number zero-padded to 10 digits, tabs for
    spaces and CRLF line ends, as bytes: every token takes the parser's
    two-word digit decode, and the reader its newline translation."""
    wide = re.sub("[0-9]+", lambda token: token.group().zfill(10), text)
    return wide.replace(" ", "\t").replace("\n", "\r\n").encode("ascii")


# the codes and frames of each block length: H2's construction seed and the
# frames' sample_pair seeds
TRACE_PARITY_INPUTS = {256: (2, range(300, 306)), 16384: (2024, range(3))}


@functools.cache
def _trace_parity_files(n, p):
    """The input files of one ``TestTraceParity`` row, as bytes by name."""
    code_seed, frame_seeds = TRACE_PARITY_INPUTS[n]
    h1, h2 = identity_matrix(n), gallager_construct(n, 3, 6, seed=code_seed)
    permuted = _permuted_identity(n)
    assert build_joint_graph(permuted, h2, CorrelationModel(p))._known_u1 is None
    frames = [sample_pair(CorrelationModel(p), n, seed=seed) for seed in frame_seeds]
    lines = lambda h, block: "".join(
        "".join(map(str, syndrome(h, getattr(f, block)))) + "\n" for f in frames
    )
    contents = {
        "c1": save_alist(h1),
        "c1p": save_alist(permuted),
        "c2": save_alist(h2),
        "s1": lines(h1, "u1"),
        "s1p": lines(permuted, "u1"),
        "s2": lines(h2, "u2"),
    }
    files = {name: text.encode("ascii") for name, text in contents.items()}
    files["c2wide"] = _reformatted(contents["c2"])
    return files


def _reference_trace(n, p, max_iterations):
    """The ``--trace`` lines of a ``TestTraceParity`` row as the reference
    loop's snapshots give them, each mean |posterior| summed there on the
    joint graph, independently of the library."""
    code_seed, frame_seeds = TRACE_PARITY_INPUTS[n]
    h1, h2 = identity_matrix(n), gallager_construct(n, 3, 6, seed=code_seed)
    model, config = CorrelationModel(p), DecoderConfig(max_iterations=max_iterations)
    lines = []
    for frame, seed in enumerate(frame_seeds):
        pair, snaps = sample_pair(model, n, seed=seed), []
        graph = build_joint_graph(h1, h2, model)
        decode_reference(graph, syndrome(h1, pair.u1), syndrome(h2, pair.u2), config, snaps.append)
        lines += [f"frame={frame} iter={snap.iteration} unsatisfied={snap.unsatisfied_checks} "
                  f"mean_abs_llr={snap.mean_abs_posterior:.6f}" for snap in snaps]
    return lines


class TestTraceParity:
    """A plain decode and ``--trace`` run H2 alone with u1 read off s1;
    where h1 is the identity's rows in another order (s1 permuted to match)
    the joint graph runs. All must print the same blocks and stop lines,
    and both traces the same iteration lines, which at n = 256 are those
    of the reference loop (``_reference_trace``). The plain decode on the
    identity reads H2 reformatted (``_reformatted``), so its output, equal
    to the joint graph's, is also that of the code as written."""

    @pytest.mark.parametrize(
        "n, p, max_iters, want, some_converge",
        [
            (256, "0.96", "100", 0, True),
            (256, "0.93", "20", 3, True),
            # budgets 1 and 2 end in closed form on the known-u1 path, and
            # budget 3 is the kernel's first iteration on H2
            (256, "0.999", "1", 3, False),
            (256, "0.999", "2", 3, True),
            (256, "0.96", "3", 3, False),
            # every frame stalls to the cap on the known-u1 path, which the
            # joint graph runs in full
            (256, "0.5", "100", 3, False),
            (16384, "0.96", "100", 0, True),
            (16384, "0.96", "1", 3, False),
            (16384, "0.96", "2", 3, False),
            (16384, "0.96", "3", 3, False),
        ],
        ids=["exit-0", "exit-3", "max-iters-1", "max-iters-2", "max-iters-3", "stalled",
             "n16384-max-iters-100", "n16384-max-iters-1", "n16384-max-iters-2",
             "n16384-max-iters-3"],
    )
    def test_same_output_with_and_without_trace(
        self, capsys, tmp_path, n, p, max_iters, want, some_converge
    ):
        files = {}
        for name, content in _trace_parity_files(n, float(p)).items():
            files[name] = tmp_path / name
            files[name].write_bytes(content)
        argv = lambda c1, c2, s1: [
            "decode",
            "--code1", str(files[c1]), "--code2", str(files[c2]),
            "--syn1", str(files[s1]), "--syn2", str(files["s2"]),
            "--p", p, "--max-iters", max_iters,
        ]
        code, out, err = run_cli(capsys, *argv("c1", "c2wide", "s1"))
        traced_code, traced_out, traced_err = run_cli(capsys, *argv("c1", "c2", "s1"), "--trace")
        assert run_cli(capsys, *argv("c1p", "c2", "s1p")) == (code, out, err)
        joint = run_cli(capsys, *argv("c1p", "c2", "s1p"), "--trace")
        assert joint == (traced_code, traced_out, traced_err)
        assert code == traced_code == want
        num_frames = len(TRACE_PARITY_INPUTS[n][1])
        assert out == traced_out and len(out.splitlines()) == 2 * num_frames
        trace = [line for line in traced_err.splitlines() if line.startswith("frame=")]
        stops = [line for line in traced_err.splitlines() if not line.startswith("frame=")]
        assert stops == err.splitlines()
        assert trace[0].startswith("frame=0 iter=1 ")
        if n == 256:
            assert trace == _reference_trace(n, float(p), int(max_iters))
        if want == 3:
            # some frames converge (or none), the others stop at the budget
            assert 0 < len(stops) <= num_frames
            assert (len(stops) < num_frames) == some_converge
            assert all(line.endswith(f"not converged after {max_iters} iterations") for line in stops)
        if p == "0.5":
            # one line per iteration up to the cap, repeated from the stall
            for frame in range(num_frames):
                ours = [line for line in trace if line.startswith(f"frame={frame} ")]
                assert len(ours) == 100
                assert len({line.split(" ", 2)[2] for line in ours[2:]}) == 1


class TestSimulate:
    FLAGS = ["simulate", "--p", "0.95", "--n", "64", "--dv", "3", "--dc", "6",
             "--trials", "6", "--seed", "3"]

    def test_matches_library_run(self, capsys):
        code, out, _ = run_cli(capsys, *self.FLAGS)
        assert code == 0
        config = SimConfig(
            model=CorrelationModel(0.95),
            h2=gallager_construct(64, 3, 6, seed=3),
            trials=6,
            master_seed=3,
            decoder=DecoderConfig(max_iterations=100, damping=0.0),
        )
        assert out == format_csv([run_trials(config)])

    @pytest.mark.parametrize(
        "mode, r1, slack",
        [("symmetric", "0.5", "-0.242292189082415"), ("asymmetric", "1.0", "0.257707810917585")],
        ids=["symmetric", "corner"],
    )
    def test_warns_of_a_point_outside_the_region(self, capsys, mode, r1, slack):
        code, out, err = run_cli(capsys, "simulate", "--p", "0.96", "--n", "64", "--dv", "3",
                                 "--dc", "6", "--trials", "2", "--seed", "3", "--mode", mode)
        warning = (f"swldpc: warning: p=0.96 r1={r1} r2=0.5 lies outside the "
                   f"Slepian-Wolf region: sum_slack={slack}\n")
        assert (code, err) == (0, warning if slack.startswith("-") else "")
        # the CSV, the warning and bounds state the one sum slack of
        # sw_region_check, in the same digits
        header, row = out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["sw_sum_slack"] == slack
        code, bounds, _ = run_cli(capsys, "bounds", "--p", "0.96", "--r1", r1, "--r2", "0.5")
        assert code == 0 and f"sum_slack={slack}" in bounds.split()
        config = SimConfig(
            model=CorrelationModel(0.96),
            h2=gallager_construct(64, 3, 6, seed=3),
            trials=2,
            master_seed=3,
            h1=gallager_construct(64, 3, 6, seed=4) if mode == "symmetric" else None,
        )
        assert out == format_csv([run_trials(config)])

    def test_jobs_do_not_change_output(self, capsys):
        _, baseline, _ = run_cli(capsys, *self.FLAGS)
        code, out, _ = run_cli(capsys, *self.FLAGS, "--jobs", "3")
        assert code == 0
        assert out == baseline

    def test_sweep_emits_one_row_per_p(self, capsys):
        argv = ["simulate", "--sweep-p", "0.99,0.95", "--n", "64", "--dv", "3",
                "--dc", "6", "--trials", "4", "--seed", "3"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("p,n,r1,r2,trials,")
        assert len(lines) == 3
        assert lines[1].startswith("0.99,64,")
        assert lines[2].startswith("0.95,64,")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "run.csv"
        code, out, _ = run_cli(capsys, *self.FLAGS, "--out", str(target))
        assert code == 0
        assert target.read_text() == out

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "simulate", "--p", "0.9", "--n", "64", "--dv", "3", "--dc", "6")[0] == 1
        assert run_cli(capsys, "simulate", "--seed", "1", "--n", "64", "--dv", "3", "--dc", "6")[0] == 1
        assert run_cli(capsys, "simulate", "--p", "0.9", "--sweep-p", "0.9", "--seed", "1",
                       "--n", "64", "--dv", "3", "--dc", "6")[0] == 1
        assert run_cli(capsys, "simulate", "--p", "0.9", "--seed", "1")[0] == 1
        assert run_cli(capsys, "simulate", "--p", "0.9", "--seed", "1", "--n", "64", "--dv", "3")[0] == 1
        assert run_cli(capsys, "simulate", "--p", "1.5", "--seed", "1", "--n", "64",
                       "--dv", "3", "--dc", "6")[0] == 1
        assert run_cli(capsys, "simulate", "--p", "0.9", "--seed", "1", "--n", "64",
                       "--dv", "3", "--dc", "6", "--trials", "0")[0] == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--p", "-inf", "correlation parameter must be a finite number"),
            ("--p", "-1e-3", "correlation parameter must satisfy 0 < p < 1, got -0.001"),
            ("--damping", "-1E-3", "damping must lie in [0, 1)"),
            ("--sweep-p", "-inf,0.9", "correlation parameter must be a finite number"),
        ],
    )
    def test_negative_value_after_the_flag(self, capsys, flag, value, message):
        flags = ["simulate", "--seed", "1", "--n", "64", "--dv", "3", "--dc", "6", "--trials", "2"]
        if flag == "--damping":
            flags += ["--p", "0.9"]
        separate = run_cli(capsys, *flags, flag, value)
        joined = run_cli(capsys, *flags, f"{flag}={value}")
        assert separate == joined
        assert separate[:2] == (1, "")
        assert message in separate[2]

    def test_code_files(self, capsys, tmp_path):
        c2 = tmp_path / "c2.alist"
        c2.write_text(save_alist(gallager_construct(64, 3, 6, seed=3)))
        argv = ["simulate", "--p", "0.95", "--code2", str(c2), "--trials", "6", "--seed", "3"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _, flags_out, _ = run_cli(capsys, *self.FLAGS)
        assert out == flags_out  # same code as inline construction with seed 3

    def test_symmetric_needs_both_code_files(self, capsys, tmp_path):
        c2 = tmp_path / "c2.alist"
        c2.write_text(save_alist(gallager_construct(64, 3, 6, seed=3)))
        argv = ["simulate", "--p", "0.99", "--code2", str(c2), "--trials", "2",
                "--seed", "3", "--mode", "symmetric"]
        assert run_cli(capsys, *argv)[0] == 1

    def test_block_length_mismatch(self, capsys, tmp_path):
        # a data error naming both files, as decode reports it
        c32, c64 = tmp_path / "c32.alist", tmp_path / "c64.alist"
        c32.write_text(save_alist(gallager_construct(32, 3, 6, seed=1)))
        c64.write_text(save_alist(gallager_construct(64, 3, 6, seed=3)))
        argv = ["simulate", "--p", "0.99", "--trials", "2", "--seed", "3",
                "--mode", "symmetric", "--code1", str(c32), "--code2", str(c64)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"swldpc: error: {c32} and {c64} disagree on block length: 32 vs 64\n"
        syn = tmp_path / "syn.txt"
        syn.write_text("")
        decode_argv = ["decode", "--code1", str(c32), "--code2", str(c64),
                       "--syn1", str(syn), "--syn2", str(syn), "--p", "0.99"]
        assert run_cli(capsys, *decode_argv) == (2, "", err)

    @pytest.mark.parametrize(
        "extra",
        [
            # an asymmetric run sends source 1 raw, whatever --code1 holds
            ["--code1", "{c32}", "--code2", "{c64}"],
            # a symmetric inline construction builds its own h1
            ["--mode", "symmetric", "--code1", "{c32}", "--n", "64", "--dv", "3", "--dc", "6"],
            # rejected before any file is read
            ["--code1", "{missing}", "--n", "64", "--dv", "3", "--dc", "6"],
        ],
        ids=["asymmetric", "symmetric-inline", "missing-file"],
    )
    def test_unused_code1_is_rejected(self, capsys, tmp_path, extra):
        files = {"c32": tmp_path / "c32.alist", "c64": tmp_path / "c64.alist",
                 "missing": tmp_path / "missing.alist"}
        files["c32"].write_text(save_alist(gallager_construct(32, 3, 6, seed=1)))
        files["c64"].write_text(save_alist(gallager_construct(64, 3, 6, seed=3)))
        argv = ["simulate", "--p", "0.95", "--trials", "2", "--seed", "3"]
        argv += [arg.format(**files) for arg in extra]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "--code1" in err

    @pytest.mark.parametrize(
        "extra, given",
        [
            (["--dv", "7", "--dc", "2"], "--dv, --dc"),
            (["--n", "64", "--dv", "3", "--dc", "6"], "--n, --dv, --dc"),
            (["--mode", "symmetric", "--code1", "{c64}", "--n", "64"], "--n"),
        ],
        ids=["inconsistent-degrees", "full-construction", "symmetric"],
    )
    def test_construction_flags_with_code2_are_rejected(self, capsys, tmp_path, extra, given):
        c64 = tmp_path / "c64.alist"
        c64.write_text(save_alist(gallager_construct(64, 3, 6, seed=3)))
        argv = ["simulate", "--p", "0.95", "--trials", "2", "--seed", "3", "--code2", str(c64)]
        argv += [arg.format(c64=c64) for arg in extra]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (
            f"swldpc: error: --n/--dv/--dc are used only without --code2 (given: {given})\n"
        )

    def test_construction_keys_with_code2_are_rejected(self, capsys, tmp_path):
        c64 = tmp_path / "c64.alist"
        c64.write_text(save_alist(gallager_construct(64, 3, 6, seed=3)))
        path = tmp_path / "sim.json"
        settings = {"p": 0.95, "trials": 2, "seed": 3, "code2": str(c64), "dv": 7}
        path.write_text(json.dumps(settings))
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, out) == (1, "")
        assert "--n/--dv/--dc are used only without --code2 (given: --dv)" in err

    def test_unused_code1_key_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "sim.json"
        settings = {"p": 0.95, "n": 64, "dv": 3, "dc": 6, "trials": 2, "seed": 3,
                    "code1": str(tmp_path / "missing.alist")}
        path.write_text(json.dumps(settings))
        code, _, err = run_cli(capsys, "simulate", str(path))
        assert code == 1 and "--code1" in err

    def test_unknown_mode_key_is_rejected(self, capsys, tmp_path):
        # one check after the merge, so a flag and a file key read alike
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(
            {"p": 0.95, "n": 64, "dv": 3, "dc": 6, "trials": 2, "seed": 3, "mode": "both"}
        ))
        rejected = (1, "", "swldpc: error: unknown mode 'both'\n")
        assert run_cli(capsys, "simulate", str(path)) == rejected
        assert run_cli(capsys, *self.FLAGS, "--mode", "both") == rejected

    def test_symmetric_inline_construction(self, capsys):
        argv = ["simulate", "--p", "0.99", "--n", "48", "--dv", "3", "--dc", "6",
                "--trials", "2", "--seed", "3", "--mode", "symmetric"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[2] == "0.5" and row[3] == "0.5"  # r1 = r2 = m/n

    def test_config_file(self, capsys, tmp_path):
        # every key, each run compared byte for byte with the same flags
        files = {"c1": tmp_path / "c1.alist", "c2": tmp_path / "c2.alist"}
        files["c1"].write_text(save_alist(gallager_construct(48, 3, 6, seed=1)))
        files["c2"].write_text(save_alist(gallager_construct(48, 3, 6, seed=2)))
        cases = [
            ({"p": 0.95, "n": 64, "dv": 3, "dc": 6, "trials": 6, "seed": 3}, self.FLAGS[1:]),
            (
                # an integral float for an int key, an array for sweep_p
                {"sweep_p": [0.99, 0.95], "n": 48, "dv": 3, "dc": 6, "trials": 4.0,
                 "seed": 3, "mode": "symmetric", "max_iters": 20, "damping": 0.25,
                 "jobs": 2, "out": "{out}"},
                ["--sweep-p", "0.99,0.95", "--n", "48", "--dv", "3", "--dc", "6",
                 "--trials", "4", "--seed", "3", "--mode", "symmetric", "--max-iters", "20",
                 "--damping", "0.25", "--jobs", "2", "--out", "{out}"],
            ),
            (
                # the code files; a key may be spelt as its flag, and an int
                # stands for a float
                {"p": 0.97, "code1": "{c1}", "code2": "{c2}", "mode": "symmetric",
                 "trials": 3, "seed": 5, "max-iters": 7, "damping": 0, "jobs": 1},
                ["--p", "0.97", "--code1", "{c1}", "--code2", "{c2}", "--mode", "symmetric",
                 "--trials", "3", "--seed", "5", "--max-iters", "7", "--damping", "0.0",
                 "--jobs", "1"],
            ),
        ]
        fill = lambda value, out: (
            value.format(out=tmp_path / out, **files) if isinstance(value, str) else value
        )
        path = tmp_path / "sim.json"
        for config, flags in cases:
            path.write_text(json.dumps({key: fill(v, "config.csv") for key, v in config.items()}))
            from_file = run_cli(capsys, "simulate", str(path))
            from_flags = run_cli(capsys, "simulate", *(fill(arg, "flags.csv") for arg in flags))
            assert from_file[0] == 0
            assert from_file == from_flags
            if "out" in config:
                written = (tmp_path / "config.csv").read_bytes()
                assert written == (tmp_path / "flags.csv").read_bytes() == from_file[1].encode()

    def test_flags_override_config_file(self, capsys, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"p": 0.95, "n": 64, "dv": 3, "dc": 6, "trials": 6, "seed": 3}))
        code, out, _ = run_cli(capsys, "simulate", str(path), "--trials", "4")
        assert code == 0
        assert out.splitlines()[1].split(",")[4] == "4"

    def test_config_file_sweep_list(self, capsys, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(
            {"sweep_p": [0.99, 0.95], "n": 64, "dv": 3, "dc": 6, "trials": 3, "seed": 3}
        ))
        code, out, _ = run_cli(capsys, "simulate", str(path))
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_config_file_errors(self, capsys, tmp_path):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        assert run_cli(capsys, "simulate", str(bad_json))[0] == 2

        not_object = tmp_path / "arr.json"
        not_object.write_text("[1, 2]")
        assert run_cli(capsys, "simulate", str(not_object))[0] == 2

        unknown_key = tmp_path / "extra.json"
        unknown_key.write_text(json.dumps({"p": 0.9, "seed": 1, "n": 64, "dv": 3, "dc": 6, "foo": 1}))
        code, _, err = run_cli(capsys, "simulate", str(unknown_key))
        assert code == 2
        assert "foo" in err

        bad_type = tmp_path / "type.json"
        bad_type.write_text(json.dumps({"p": "high", "seed": 1, "n": 64, "dv": 3, "dc": 6}))
        assert run_cli(capsys, "simulate", str(bad_type))[0] == 2

        missing = tmp_path / "missing.json"
        assert run_cli(capsys, "simulate", str(missing))[0] == 2

        # a JSON integer beyond float range, and a sweep_p of another type:
        # one line naming the file and the key
        huge = "1" + "0" * 400
        base = '"seed": 1, "n": 64, "dv": 3, "dc": 6'
        cases = [
            (f'{{"p": {huge}, {base}}}', "'p' holds a number too large for a float"),
            (f'{{"p": 0.9, "damping": {huge}, {base}}}',
             "'damping' holds a number too large for a float"),
            (f'{{"sweep_p": [0.9, {huge}], {base}}}',
             "'sweep_p' holds a number too large for a float"),
        ]
        for sweep in ('"0.9,x"', '","', "[]", '["0.9"]', "[true]", "0.9", "{}"):
            cases.append((
                f'{{"sweep_p": {sweep}, {base}}}',
                "'sweep_p' must be a comma list or a nonempty array of numbers",
            ))
        path = tmp_path / "sim.json"
        for text, message in cases:
            path.write_text(text)
            assert run_cli(capsys, "simulate", str(path)) == (
                2, "", f"swldpc: error: {path}: key {message}\n"
            )


def _swldpc(cwd, *argv, check=True):
    """Run the command line in a fresh interpreter in ``cwd``, as the
    console script does, on the package these tests import; returns the
    completed process, with its output as text. ``check`` requires exit 0."""
    paths = [str(Path(swldpc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run(
        [sys.executable, "-m", "swldpc", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, check=check,
    )


class TestWorkerProcesses:
    """`simulate` writes the same CSV with one worker process and with two,
    run in a fresh interpreter as the console script runs it."""

    MAKECODE = ["makecode", "--n", "1024", "--dv", "3", "--dc", "6", "--seed", "2024", "--out"]

    def test_same_csv_with_one_and_two_workers(self, tmp_path):
        # the workers unpickle the code's flat index
        _swldpc(tmp_path, *self.MAKECODE, "code.alist")
        for jobs in (1, 2):
            _swldpc(tmp_path, "simulate", "--code2", "code.alist", "--p", "0.96", "--trials", "8",
                    "--seed", "1", "--jobs", str(jobs), "--out", f"jobs{jobs}.csv")
        assert (tmp_path / "jobs1.csv").read_bytes() == (tmp_path / "jobs2.csv").read_bytes()

    def test_same_rows_from_a_sweep_as_from_single_points(self, tmp_path):
        # every point builds its own graphs over one code object, which
        # caches only its row blocks; no state may carry between points,
        # and two worker processes give the sweep one gives. The run with
        # two workers reads the same settings from a JSON config file, whose
        # keys are the flag names in either spelling, and a flag overrides
        # a file value
        _swldpc(tmp_path, *self.MAKECODE, "sweep.alist")
        flags = ["--code2", "sweep.alist", "--trials", "8", "--seed", "1", "--max-iters", "60"]
        config = {"code2": "sweep.alist", "trials": 8.0, "seed": 1,
                  "sweep_p": [0.97, 0.95, 0.93], "max-iters": 60}
        (tmp_path / "sweep.json").write_text(json.dumps(config))
        _swldpc(tmp_path, "simulate", *flags, "--sweep-p", "0.97,0.95,0.93",
                "--jobs", "1", "--out", "sweep1.csv")
        _swldpc(tmp_path, "simulate", "sweep.json", "--jobs", "2", "--out", "sweep2.csv")
        swept = (tmp_path / "sweep1.csv").read_text()
        assert (tmp_path / "sweep2.csv").read_text() == swept
        points = []
        for p in ("0.97", "0.95", "0.93"):
            _swldpc(tmp_path, "simulate", *flags, "--p", p, "--out", f"point{p}.csv")
            points.append((tmp_path / f"point{p}.csv").read_text().splitlines(keepends=True))
        assert "".join(points[0][:1] + [row for lines in points for row in lines[1:]]) == swept
        _swldpc(tmp_path, "simulate", "sweep.json", "--sweep-p", "0.93", "--out", "override.csv")
        assert (tmp_path / "override.csv").read_text() == "".join(points[2])

    @staticmethod
    def _decode_argv(tmp_path, name, h1, h2, p):
        """Write the codes and the syndromes of 4 frames at ``p`` under
        ``name`` in ``tmp_path``; the decode command line that reads them."""
        (tmp_path / f"{name}1.alist").write_text(save_alist(h1))
        (tmp_path / f"{name}2.alist").write_text(save_alist(h2))
        pairs = [sample_pair(CorrelationModel(p), h1.n, seed) for seed in range(4)]
        for h, block in ((h1, "u1"), (h2, "u2")):
            lines = ("".join(map(str, syndrome(h, getattr(pair, block)))) + "\n" for pair in pairs)
            (tmp_path / f"{name}-{block}.txt").write_text("".join(lines))
        return ["decode", "--code1", f"{name}1.alist", "--code2", f"{name}2.alist",
                "--syn1", f"{name}-u1.txt", "--syn2", f"{name}-u2.txt", "--p", str(p)]

    def test_same_decode_and_csv_on_an_irregular_code(self, tmp_path):
        # corner: row weights 2 to 6 interleave down the rows and one row is
        # empty, so no row block is a run of rows, and the column weights
        # vary, so the kernel renumbers the variables. A plain decode and
        # --trace take the known-u1 path on H2 alone; with the identity's
        # rows shuffled, and s1 with them, --trace runs the whole joint
        # graph and prints the same. symmetric: both codes have row weights
        # 1 to 5 interleaved and some empty rows, as _interleaved_code in
        # tests/test_decoder.py, so the joint plan has a row block per
        # weight in each code and a block of the rows without entries. Two
        # workers build their own layouts of the codes
        n = 512
        rng = np.random.default_rng(7)
        rows = [() if j == 100 else rng.choice(n, 2 + j % 5, replace=False) for j in range(n // 2)]
        irregular = SparseParityMatrix.from_rows(n, rows)

        def interleaved(seed):
            rng = np.random.default_rng(seed)
            rows = [() if j % 7 == 3 else rng.choice(n, 1 + j % 5, replace=False)
                    for j in range(n // 2)]
            return SparseParityMatrix.from_rows(n, rows)

        cases = [("corner", 0.98, identity_matrix(n), irregular, []),
                 ("symmetric", 0.97, interleaved(1), interleaved(2),
                  ["--mode", "symmetric", "--code1", "symmetric1.alist"])]
        for name, p, h1, h2, simulate in cases:
            reduced = build_joint_graph(h1, h2, CorrelationModel(p))._known_u1 is not None
            assert reduced == (name == "corner")
            argv = self._decode_argv(tmp_path, name, h1, h2, p)
            plain = _swldpc(tmp_path, *argv, check=False)
            traced = _swldpc(tmp_path, *argv, "--trace", check=False)
            assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
            # --trace adds its iteration lines, and only those
            assert [line for line in traced.stderr.splitlines(keepends=True)
                    if not line.startswith("frame=")] == plain.stderr.splitlines(keepends=True)
            assert plain.stdout.count("\n") == 8 and "frame=0 iter=1 " in traced.stderr
            if reduced:
                joint = _swldpc(tmp_path, *self._decode_argv(
                    tmp_path, "permuted", _permuted_identity(n), h2, p), "--trace", check=False)
                assert (joint.returncode, joint.stdout, joint.stderr) == (
                    traced.returncode, traced.stdout, traced.stderr)
            for jobs in (1, 2):
                _swldpc(tmp_path, "simulate", *simulate, "--code2", f"{name}2.alist",
                        "--p", str(p), "--trials", "8", "--seed", "1", "--jobs", str(jobs),
                        "--out", f"{name}-jobs{jobs}.csv")
            csv = (tmp_path / f"{name}-jobs1.csv").read_bytes()
            assert (tmp_path / f"{name}-jobs2.csv").read_bytes() == csv

    def test_same_symmetric_csv_with_one_and_two_workers(self, tmp_path):
        # both sources compressed: the run that passes h1 to SimConfig
        for jobs in (1, 2):
            _swldpc(tmp_path, "simulate", "--mode", "symmetric", "--p", "0.99", "--n", "64",
                    "--dv", "3", "--dc", "6", "--trials", "8", "--seed", "3",
                    "--jobs", str(jobs), "--out", f"sym{jobs}.csv")
        assert (tmp_path / "sym1.csv").read_bytes() == (tmp_path / "sym2.csv").read_bytes()


@pytest.mark.parametrize(
    "data, line",
    [
        # a bad byte right after a backslash inside a JSON string
        (b'{"p": 0.9,\n "mode": "a\\\xff"}\n', 2),
        (b'{"p": 0.9, "seed": 1,\n "n": 64, "dv": 3, "dc": 6,\n "out": "x\\\xffy"}\n', 3),
        # CRLF and a lone CR end a line, as in text mode
        (b'{"p": 0.9,\r\n\r\n "mode": "a\\\xff"}\n', 3),
        (b'{"p": 0.9,\r "mode": "\xfe"}\r', 2),
    ],
    ids=["mode", "out", "crlf", "cr"],
)
def test_config_byte_outside_utf8(capsys, monkeypatch, tmp_path, data, line):
    monkeypatch.chdir(tmp_path)  # where an "out" path would be written
    path = tmp_path / "sim.json"
    path.write_bytes(data)
    byte = max(data)  # the one byte above 0x7f
    assert run_cli(capsys, "simulate", str(path)) == (
        2, "", f"swldpc: error: {path}: line {line}: byte 0x{byte:02x} is not valid UTF-8\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["sim.json"]


# every argument that names an input file, as argv with BAD in its place
INPUT_FILE_ARGS = {
    "encode-bits": ["encode", "BAD", "--code1", "{c2}"],
    "encode-code1": ["encode", "{u2}", "--code1", "BAD"],
    "decode-code1": ["decode", "--code1", "BAD", "--code2", "{c2}",
                     "--syn1", "{s1}", "--syn2", "{s2}", "--p", "0.93"],
    "decode-code2": ["decode", "--code1", "{c1}", "--code2", "BAD",
                     "--syn1", "{s1}", "--syn2", "{s2}", "--p", "0.93"],
    "decode-syn1": ["decode", "--code1", "{c1}", "--code2", "{c2}",
                    "--syn1", "BAD", "--syn2", "{s2}", "--p", "0.93"],
    "decode-syn2": ["decode", "--code1", "{c1}", "--code2", "{c2}",
                    "--syn1", "{s1}", "--syn2", "BAD", "--p", "0.93"],
    "simulate-config": ["simulate", "BAD"],
    "simulate-code1": ["simulate", "--p", "0.93", "--trials", "1", "--seed", "1",
                       "--mode", "symmetric", "--code1", "BAD", "--code2", "{c2}"],
    "simulate-code2": ["simulate", "--p", "0.93", "--trials", "1", "--seed", "1",
                       "--code2", "BAD"],
}


@pytest.mark.parametrize("bad", ["missing", "directory", "byte-0xff"])
@pytest.mark.parametrize("arg", list(INPUT_FILE_ARGS))
def test_bad_input_file_is_one_line_data_error(capsys, coding_setup, tmp_path, arg, bad):
    # the error names the file; a byte outside the encoding fails on line 1
    paths, _ = coding_setup
    target = {"missing": tmp_path / "missing", "directory": tmp_path,
              "byte-0xff": tmp_path / "0xff"}[bad]
    (tmp_path / "0xff").write_bytes(b"\xff\n")
    argv = [str(target) if a == "BAD" else a.format(**paths) for a in INPUT_FILE_ARGS[arg]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    prefix = f"swldpc: error: {target}: "
    if bad == "byte-0xff":
        encoding = "UTF-8" if arg == "simulate-config" else "ASCII"
        assert err == f"{prefix}line 1: byte 0xff is not valid {encoding}\n"
    else:
        reason = {"missing": "No such file or directory", "directory": "Is a directory"}[bad]
        assert err == f"{prefix}{reason}\n"


def test_no_traceback_from_a_bad_input_file(tmp_path):
    # the command line in a fresh interpreter: a byte that is not ASCII in
    # an alist, a directory given as a syndrome file and a config that is
    # not UTF-8, also where the bad byte follows a backslash inside a JSON
    # string, each exit 2; a block length too large to index exits 1; each
    # prints one line and nothing on stdout
    _swldpc(tmp_path, "makecode", "--n", "16", "--dv", "3", "--dc", "6", "--seed", "5",
            "--out", "code.alist")
    (tmp_path / "bad-byte.alist").write_bytes(b"16 8\n3 6\n\xff\n")
    (tmp_path / "bits.txt").write_text("0" * 16 + "\n")
    (tmp_path / "bad-utf8.json").write_bytes(b'{"p": 0.9, "mode": "\xff"}\n')
    (tmp_path / "bad-escape.json").write_bytes(b'{"p": 0.9, "mode": "a\\\xff"}\n')
    cases = [
        (2, ["encode", "bits.txt", "--code1", "bad-byte.alist"]),
        (2, ["decode", "--code1", "code.alist", "--code2", "code.alist", "--syn1", ".",
             "--syn2", "bits.txt", "--p", "0.9"]),
        (2, ["simulate", "bad-utf8.json"]),
        (2, ["simulate", "bad-escape.json"]),
        (1, ["makecode", "--n", "1" + "0" * 21, "--dv", "3", "--dc", "6", "--seed", "1"]),
    ]
    for status, argv in cases:
        run = _swldpc(tmp_path, *argv, check=False)
        assert (run.returncode, run.stdout) == (status, ""), argv
        assert run.stderr.startswith("swldpc: error: ") and run.stderr.count("\n") == 1, argv


@pytest.mark.parametrize("subcommand", ["makecode", "encode", "decode", "simulate"])
def test_unwritable_out_is_a_data_error(capsys, coding_setup, tmp_path, subcommand):
    # the file is opened before stdout is written, so nothing reaches stdout
    paths, _ = coding_setup
    argv = {
        "makecode": ["--n", "16", "--dv", "3", "--dc", "6", "--seed", "5"],
        "encode": [str(paths["u2"]), "--code1", str(paths["c2"])],
        "decode": ["--code1", str(paths["c1"]), "--code2", str(paths["c2"]),
                   "--syn1", str(paths["s1"]), "--syn2", str(paths["s2"]), "--p", "0.93"],
        "simulate": TestSimulate.FLAGS[1:],
    }[subcommand]
    assert run_cli(capsys, subcommand, *argv)[0] == 0
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, subcommand, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.endswith(f"swldpc: error: {target}: No such file or directory\n")
    assert not target.parent.exists()
