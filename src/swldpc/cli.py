"""Command-line frontend: code construction, coding, bounds, simulation.

Subcommands write their machine-readable product to standard output
(``--out`` additionally saves it to a file) and diagnostics to standard
error. Exit codes: 0 success, 1 usage error (a bad flag, or a value out of
range from a flag or a config key), 2 data error (a file that cannot be
read, parsed or written, a config key of the wrong type, or a code that
cannot be constructed), 3 at least one frame failed to converge (decode
only).

File formats: parity-check matrices use the alist format, bit blocks and
syndromes are '0'/'1' lines, one block per line, both ASCII; the simulate
config is a UTF-8 JSON object. Every file is decoded strictly: a byte
outside its encoding fails as a data error naming the byte and its line.
All randomness flows from an explicit --seed flag.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from typing import Optional

import numpy as np

from .correlation import CorrelationModel, RatePair, sw_region_check
from .decoder import DecoderConfig, build_joint_graph, decode
from .ldpc import (
    ConstructionError,
    _integer,
    gallager_construct,
    load_alist,
    save_alist,
    syndrome,
)
from . import sim as simmod

ASYMMETRIC = "asymmetric"  # source 1 sent raw: h1 is the identity
SYMMETRIC = "symmetric"  # both sources compressed


class UsageError(Exception):
    """Bad flags or flag values; exit code 1."""
    exit_code = 1


class DataError(Exception):
    """Malformed or inconsistent input files; exit code 2."""
    exit_code = 2


@contextlib.contextmanager
def _library_errors():
    """Errors of library calls on values from flags or config keys: a
    ValueError (a value out of range) exits 1, and a ConstructionError
    (every construction retry failed) or a MemoryError (a code too large
    to build in memory) exits 2."""
    try:
        yield
    except ValueError as err:
        raise UsageError(str(err)) from err
    except ConstructionError as err:
        raise DataError(str(err)) from err
    except MemoryError as err:
        raise DataError("not enough memory to construct the code") from err


# Flag values that argparse must not take for flags: anything that starts like
# a negative number, such as -1e-3, -.5, -inf, -nan or the list -0.9,0.95.
# argparse's own pattern knows only whole negative decimals (-1, -0.5), and no
# flag of this program starts like a number.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures raise instead of exiting 2, and
    which reads any negative number after a flag as its value, as the
    ``--flag=value`` form always does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse consults this pattern to tell a negative-number argument
        # from a flag; subcommand parsers are made by this class too
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise UsageError(message)


def _p_list(text: str) -> list[float]:
    """--sweep-p's type: a comma list of numbers, such as "0.97,0.95"."""
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma list of numbers, got {text!r}")
    return values


# Every simulate setting, as flag (--max-iters) and as config key (max_iters):
# its type and help. A config file gives each key as a JSON value of that
# type, and sweep_p also as an array of numbers (_config_value).
_SIM_SETTINGS = {
    "p": (float, "correlation parameter"),
    "sweep_p": (_p_list, "comma list of p values"),
    "trials": (int, "frames per point (default 100)"),
    "seed": (int, "master seed (required)"),
    "n": (int, "block length for constructed codes"),
    "dv": (int, "variable degree for constructed codes"),
    "dc": (int, "check degree for constructed codes"),
    "code1": (str, "alist for source 1 (--mode symmetric with --code2)"),
    "code2": (str, "alist for source 2"),
    "mode": (str, f"{ASYMMETRIC} (default) or {SYMMETRIC}"),
    "max_iters": (int, "iteration budget"),
    "damping": (float, "message damping in [0, 1)"),
    "jobs": (int, "split each point into up to this many trial ranges, and no more than the "
                  "usable CPUs, run on one pool of worker processes (default 1)"),
    "out": (str, "also write the CSV to this file"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="swldpc",
        description="Syndrome compression of two correlated binary sources "
        "with joint belief-propagation decoding.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True

    mk = sub.add_parser("makecode", help="construct a regular parity-check code")
    mk.add_argument("--n", type=int, required=True, help="block length")
    mk.add_argument("--dv", type=int, required=True, help="variable (column) degree")
    mk.add_argument("--dc", type=int, required=True, help="check (row) degree")
    mk.add_argument("--seed", type=int, required=True, help="construction seed")
    mk.add_argument("--out", help="also write the alist to this file")
    mk.set_defaults(func=_cmd_makecode)

    en = sub.add_parser("encode", help="compress bit blocks to syndromes")
    en.add_argument("bits", help="input file, one block of ASCII bits per line")
    en.add_argument("--code1", required=True, help="alist of the compressing code")
    en.add_argument("--out", help="also write the syndromes to this file")
    en.set_defaults(func=_cmd_encode)

    de = sub.add_parser(
        "decode",
        help="jointly reconstruct both sources from their syndromes",
        description="Prints two lines per frame: the first source's block, "
        "then the second's. Exits 3 if any frame fails to converge "
        "(its best-effort output is still written).",
    )
    de.add_argument("--code1", required=True, help="alist for source 1")
    de.add_argument("--code2", required=True, help="alist for source 2")
    de.add_argument("--syn1", required=True, help="syndrome file for source 1")
    de.add_argument("--syn2", required=True, help="syndrome file for source 2")
    de.add_argument("--p", type=float, required=True, help="Pr(u1 bit equals u2 bit)")
    de.add_argument("--max-iters", type=int, default=100, help="iteration budget")
    de.add_argument("--damping", type=float, default=0.0, help="message damping in [0, 1)")
    de.add_argument("--trace", action="store_true",
                    help="per-iteration diagnostics of that decode on stderr")
    de.add_argument("--out", help="also write the decoded blocks to this file")
    de.set_defaults(func=_cmd_decode)

    bo = sub.add_parser("bounds", help="test a rate pair against the admissible region")
    bo.add_argument("--p", type=float, required=True, help="Pr(u1 bit equals u2 bit)")
    bo.add_argument("--r1", type=float, required=True, help="rate of source 1 in bits/bit")
    bo.add_argument("--r2", type=float, required=True, help="rate of source 2 in bits/bit")
    bo.set_defaults(func=_cmd_bounds)

    si = sub.add_parser(
        "simulate",
        help="Monte Carlo error-rate measurement, CSV on stdout",
        description="Settings come from flags, or from a JSON config file "
        "whose keys are the flag names (with underscores); flags override "
        "the file. Codes are loaded from --code1/--code2 or constructed "
        "from --n/--dv/--dc (source 2 uses --seed, source 1 uses seed+1).",
    )
    si.add_argument("config", nargs="?", help="optional JSON config file")
    for name, (kind, help_text) in _SIM_SETTINGS.items():
        si.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, help=help_text)
    si.set_defaults(func=_cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process; parsing leaves it as
    it was, so every call reads its arguments alike."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (UsageError, DataError) as err:
        print(f"swldpc: error: {err}", file=sys.stderr)
        return err.exit_code


def _file_error(path: str, err: Exception) -> DataError:
    """``err`` from reading or writing ``path``, as a data error naming it."""
    return DataError(f"{path}: {getattr(err, 'strerror', None) or err}")


def _read(path: str, parse, encoding: str = "ascii"):
    """``parse`` of an input file's text, decoded strictly. An ``OSError``,
    the ValueError of a path ``open`` rejects (a config file can spell a NUL
    byte), a byte outside ``encoding`` (named with its line) and the
    ValueError ``parse`` raises for bad text are data errors naming the
    file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if b"\r" in data:  # the newlines of text mode: "\r\n" and a lone "\r" end a line
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            text = data.decode(encoding)
        except UnicodeDecodeError as err:
            line, byte = data.count(b"\n", 0, err.start) + 1, data[err.start]
            message = f"line {line}: byte 0x{byte:02x} is not valid {err.encoding.upper()}"
            raise ValueError(message) from None
        del data  # freed before parsing, for a lower peak of memory
        return parse(text)
    except (OSError, ValueError) as err:
        raise _file_error(path, err) from err


def _emit(text: str, out: Optional[str]) -> None:
    """Write ``text`` to ``out``, if given, and then to stdout, so a file
    that cannot be written leaves stdout empty."""
    if out:
        try:
            with open(out, "w", encoding="ascii") as fh:
                fh.write(text)
        except (OSError, ValueError) as err:
            raise _file_error(out, err) from err
    sys.stdout.write(text)


def _load_pair(path1: str, path2: str):
    """The two codes of one joint graph, which must share their block length."""
    h1, h2 = _read(path1, load_alist), _read(path2, load_alist)
    if h1.n != h2.n:
        raise DataError(f"{path1} and {path2} disagree on block length: {h1.n} vs {h2.n}")
    return h1, h2


def _parse_bits(expect_len: int, text: str) -> list[np.ndarray]:
    """One block of '0'/'1' characters per line, all of expect_len bits."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    blocks = []
    for lineno, line in enumerate(lines, start=1):
        # every byte other than '0' and '1' wraps to a value above 1
        block = np.frombuffer(line.strip().encode("ascii"), dtype=np.uint8) - ord("0")
        if (block > 1).any():
            raise ValueError(f"line {lineno}: expected only 0/1 characters")
        if len(block) != expect_len:
            raise ValueError(f"line {lineno}: expected {expect_len} bits, found {len(block)}")
        blocks.append(block)
    return blocks


def _bits_line(bits: np.ndarray) -> str:
    """One uint8 0/1 block as a line of ASCII '0'/'1' characters."""
    return (bits + ord("0")).tobytes().decode("ascii")


def _cmd_makecode(args) -> int:
    with _library_errors():
        h = gallager_construct(args.n, args.dv, args.dc, args.seed)
    print(
        f"constructed ({args.dv},{args.dc})-regular code: n={h.n} m={h.m} "
        f"design_rate={h.m / h.n!r}",
        file=sys.stderr,
    )
    _emit(save_alist(h), args.out)
    return 0


def _cmd_encode(args) -> int:
    h = _read(args.code1, load_alist)
    blocks = _read(args.bits, functools.partial(_parse_bits, h.n))
    lines = [_bits_line(syndrome(h, block)) for block in blocks]
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


def _cmd_decode(args) -> int:
    h1, h2 = _load_pair(args.code1, args.code2)
    with _library_errors():
        model = CorrelationModel(args.p)
        config = DecoderConfig(max_iterations=args.max_iters, damping=args.damping)
    syn1 = _read(args.syn1, functools.partial(_parse_bits, h1.m))
    syn2 = _read(args.syn2, functools.partial(_parse_bits, h2.m))
    if len(syn1) != len(syn2):
        raise DataError(
            f"{args.syn1} has {len(syn1)} frames but {args.syn2} has {len(syn2)}"
        )
    graph = build_joint_graph(h1, h2, model)
    out_lines = []
    failed = 0
    for frame, (s1, s2) in enumerate(zip(syn1, syn2)):
        result = decode(graph, s1, s2, config, trace=args.trace)
        for iteration, (unsatisfied, mean) in enumerate(result.trace or (), start=1):
            print(
                f"frame={frame} iter={iteration} unsatisfied={unsatisfied} "
                f"mean_abs_llr={mean:.6f}",
                file=sys.stderr,
            )
        out_lines.append(_bits_line(result.u1_hat))
        out_lines.append(_bits_line(result.u2_hat))
        if not result.converged:
            failed += 1
            print(
                f"frame {frame}: not converged after {result.iterations_used} iterations",
                file=sys.stderr,
            )
    _emit("".join(line + "\n" for line in out_lines), args.out)
    return 3 if failed else 0


def _cmd_bounds(args) -> int:
    with _library_errors():
        model = CorrelationModel(args.p)
        rates = RatePair(args.r1, args.r2)
    check = sw_region_check(model, rates)
    print(
        f"admissible={'true' if check.admissible else 'false'} "
        f"r1_slack={check.r1_slack!r} r2_slack={check.r2_slack!r} "
        f"sum_slack={check.sum_slack!r}"
    )
    return 0


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string",
               _p_list: "a comma list or a nonempty array of numbers"}


def _config_value(kind, value):
    """A config file's JSON value as a setting of type ``kind``. A value of
    another type raises TypeError, a bad comma list ArgumentTypeError, and
    a whole number too large for a float OverflowError."""
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)  # a count written as 4.0
    accepted = {float: (int, float), _p_list: (str, list)}.get(kind, kind)
    if isinstance(value, bool) or not isinstance(value, accepted) or value == []:
        raise TypeError(value)
    if isinstance(value, list):
        return [_config_value(float, v) for v in value]
    return kind(value)


def _parse_config(text: str) -> dict:
    """A simulate config file's settings, each typed as its flag types it."""
    try:
        data = json.loads(text)
    # also an integer of more digits than int() reads, or nesting too deep
    except (ValueError, RecursionError) as err:
        raise ValueError(f"invalid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    settings = {}
    for key, value in data.items():
        name = key.replace("-", "_")
        if name not in _SIM_SETTINGS:
            raise ValueError(f"unknown config key {key!r}")
        kind = _SIM_SETTINGS[name][0]
        try:
            settings[name] = _config_value(kind, value)
        except OverflowError as err:
            raise ValueError(f"key {key!r} holds a number too large for a float") from err
        except (TypeError, argparse.ArgumentTypeError) as err:
            raise ValueError(f"key {key!r} must be {_KIND_NAMES[kind]}") from err
    return settings


def _cmd_simulate(args) -> int:
    settings = _read(args.config, _parse_config, "utf-8") if args.config else {}
    for name in _SIM_SETTINGS:
        if getattr(args, name) is not None:
            settings[name] = getattr(args, name)

    if settings.get("seed") is None:
        raise UsageError("simulate requires --seed")
    if settings.get("p") is not None and settings.get("sweep_p") is not None:
        raise UsageError("give either --p or --sweep-p, not both")
    if settings.get("p") is None and settings.get("sweep_p") is None:
        raise UsageError("simulate requires --p or --sweep-p")

    seed = settings["seed"]
    mode = settings.get("mode", ASYMMETRIC)
    if mode not in (ASYMMETRIC, SYMMETRIC):
        raise UsageError(f"unknown mode {mode!r}")
    if settings.get("code1") is not None and (
        mode != SYMMETRIC or settings.get("code2") is None
    ):
        raise UsageError("--code1 is used only with --mode symmetric and --code2")
    if settings.get("code2") is not None:
        given = [k for k in ("n", "dv", "dc") if settings.get(k) is not None]
        if given:
            raise UsageError(
                "--n/--dv/--dc are used only without --code2 "
                f"(given: {', '.join('--' + k for k in given)})"
            )
        if mode == SYMMETRIC:
            if settings.get("code1") is None:
                raise UsageError("symmetric mode requires --code1 alongside --code2")
            h1, h2 = _load_pair(settings["code1"], settings["code2"])
        else:
            h1, h2 = None, _read(settings["code2"], load_alist)
    else:
        missing = [k for k in ("n", "dv", "dc") if settings.get(k) is None]
        if missing:
            raise UsageError(
                "simulate needs --code2 or all of --n/--dv/--dc "
                f"(missing: {', '.join('--' + m for m in missing)})"
            )
        shape = settings["n"], settings["dv"], settings["dc"]
        with _library_errors():
            h2 = gallager_construct(*shape, seed)
            h1 = gallager_construct(*shape, seed + 1) if mode == SYMMETRIC else None

    p_values = settings.get("sweep_p") or [settings["p"]]
    with _library_errors():
        config = simmod.SimConfig(
            model=CorrelationModel(p_values[0]),
            h2=h2,
            trials=settings.get("trials", 100),
            master_seed=seed,
            h1=h1,
            decoder=DecoderConfig(
                max_iterations=settings.get("max_iters", 100),
                damping=settings.get("damping", 0.0),
            ),
        )
        configs = simmod.configs_over_p(config, p_values)
        jobs = _integer("jobs", settings.get("jobs", 1), positive=True)
    records = simmod.sweep(configs, jobs=jobs)
    for config, record in zip(configs, records):
        check = sw_region_check(config.model, RatePair(record.r1, record.r2))
        if not check.admissible:
            failing = " ".join(f"{name}={getattr(check, name)!r}" for name in
                               ("r1_slack", "r2_slack", "sum_slack") if getattr(check, name) < 0.0)
            print(f"swldpc: warning: p={record.p!r} r1={record.r1!r} r2={record.r2!r} lies "
                  f"outside the Slepian-Wolf region: {failing}", file=sys.stderr)
    _emit(simmod.format_csv(records), settings.get("out"))
    return 0
