"""Command-line frontend: code construction, coding, bounds, simulation.

Subcommands write their machine-readable product to standard output
(``--out`` additionally saves it to a file) and diagnostics to standard
error. Exit codes: 0 success, 1 usage error, 2 data/format error, 3 at
least one frame failed to converge (decode only).

File formats: parity-check matrices use the alist format, bit blocks and
syndromes are ASCII '0'/'1' lines, one block per line. All randomness
flows from an explicit --seed flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Optional

import numpy as np

from .correlation import CorrelationModel, RatePair, sw_region_check
from .decoder import DecoderConfig, decode
from .graph import build_joint_graph
from .ldpc import (
    AlistFormatError,
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


class DataError(Exception):
    """Malformed or inconsistent input files; exit code 2."""


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
    de.add_argument(
        "--trace", action="store_true", help="per-iteration diagnostics on stderr"
    )
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
    si.add_argument("--p", type=float, help="correlation parameter")
    si.add_argument("--sweep-p", dest="sweep_p", help="comma list of p values")
    si.add_argument("--trials", type=int, help="frames per point (default 100)")
    si.add_argument("--seed", type=int, help="master seed (required)")
    si.add_argument("--n", type=int, help="block length for constructed codes")
    si.add_argument("--dv", type=int, help="variable degree for constructed codes")
    si.add_argument("--dc", type=int, help="check degree for constructed codes")
    si.add_argument("--code1", help="alist for source 1 (--mode symmetric with --code2)")
    si.add_argument("--code2", help="alist for source 2")
    si.add_argument("--mode", choices=[ASYMMETRIC, SYMMETRIC], help="default asymmetric")
    si.add_argument("--max-iters", dest="max_iters", type=int, help="iteration budget")
    si.add_argument("--damping", type=float, help="message damping in [0, 1)")
    si.add_argument("--jobs", type=int, help="worker processes (default 1)")
    si.add_argument("--out", help="also write the CSV to this file")
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
    except UsageError as err:
        print(f"swldpc: error: {err}", file=sys.stderr)
        return 1
    except DataError as err:
        print(f"swldpc: error: {err}", file=sys.stderr)
        return 2


def _emit(text: str, out: Optional[str]) -> None:
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def _load_code(path: str):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as err:
        raise DataError(f"{path}: {err.strerror or err}") from err
    try:
        return load_alist(text)
    except AlistFormatError as err:
        raise DataError(f"{path}: {err}") from err


def _check_same_length(path1: str, h1, path2: str, h2) -> None:
    """The two codes of one joint graph must share their block length."""
    if h1.n != h2.n:
        raise DataError(f"{path1} and {path2} disagree on block length: {h1.n} vs {h2.n}")


def _read_bits(path: str, expect_len: int) -> list[np.ndarray]:
    """Read one block of '0'/'1' characters per line, all of expect_len bits."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw_lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"{path}: {err}") from err
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    blocks = []
    for lineno, line in enumerate(raw_lines, start=1):
        # every byte other than '0' and '1' wraps to a value above 1
        block = np.frombuffer(line.strip().encode("ascii"), dtype=np.uint8) - ord("0")
        if (block > 1).any():
            raise DataError(f"{path}: line {lineno}: expected only 0/1 characters")
        if len(block) != expect_len:
            raise DataError(
                f"{path}: line {lineno}: expected {expect_len} bits, found {len(block)}"
            )
        blocks.append(block)
    return blocks


def _bits_line(bits: np.ndarray) -> str:
    """One uint8 0/1 block as a line of ASCII '0'/'1' characters."""
    return (bits + ord("0")).tobytes().decode("ascii")


def _model(p: float) -> CorrelationModel:
    try:
        return CorrelationModel(p)
    except ValueError as err:
        raise UsageError(str(err)) from err


def _cmd_makecode(args) -> int:
    try:
        h = gallager_construct(args.n, args.dv, args.dc, args.seed)
    except ValueError as err:
        raise UsageError(str(err)) from err
    except ConstructionError as err:
        raise DataError(str(err)) from err
    print(
        f"constructed ({args.dv},{args.dc})-regular code: n={h.n} m={h.m} "
        f"design_rate={h.m / h.n!r}",
        file=sys.stderr,
    )
    _emit(save_alist(h), args.out)
    return 0


def _cmd_encode(args) -> int:
    h = _load_code(args.code1)
    blocks = _read_bits(args.bits, expect_len=h.n)
    lines = [_bits_line(syndrome(h, block)) for block in blocks]
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


def _cmd_decode(args) -> int:
    h1 = _load_code(args.code1)
    h2 = _load_code(args.code2)
    _check_same_length(args.code1, h1, args.code2, h2)
    model = _model(args.p)
    try:
        config = DecoderConfig(max_iterations=args.max_iters, damping=args.damping)
    except ValueError as err:
        raise UsageError(str(err)) from err
    syn1 = _read_bits(args.syn1, expect_len=h1.m)
    syn2 = _read_bits(args.syn2, expect_len=h2.m)
    if len(syn1) != len(syn2):
        raise DataError(
            f"{args.syn1} has {len(syn1)} frames but {args.syn2} has {len(syn2)}"
        )
    graph = build_joint_graph(h1, h2, model)
    out_lines = []
    failed = 0
    for frame, (s1, s2) in enumerate(zip(syn1, syn2)):
        hook = None
        if args.trace:

            def hook(info, frame=frame):
                print(
                    f"frame={frame} iter={info.iteration} "
                    f"unsatisfied={info.unsatisfied_checks} "
                    f"mean_abs_llr={info.mean_abs_posterior:.6f}",
                    file=sys.stderr,
                )

        result = decode(graph, s1, s2, config, iteration_hook=hook)
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
    model = _model(args.p)
    try:
        rates = RatePair(args.r1, args.r2)
    except ValueError as err:
        raise UsageError(str(err)) from err
    check = sw_region_check(model, rates)
    print(
        f"admissible={'true' if check.admissible else 'false'} "
        f"r1_slack={check.r1_slack!r} r2_slack={check.r2_slack!r} "
        f"sum_slack={check.sum_slack!r}"
    )
    return 0


_SIM_KEYS = {
    "p": float,
    "sweep_p": None,
    "trials": int,
    "seed": int,
    "n": int,
    "dv": int,
    "dc": int,
    "code1": str,
    "code2": str,
    "mode": str,
    "max_iters": int,
    "damping": float,
    "jobs": int,
    "out": str,
}


def _load_sim_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise DataError(f"{path}: {err.strerror or err}") from err
    except json.JSONDecodeError as err:
        raise DataError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(data, dict):
        raise DataError(f"{path}: config must be a JSON object")
    settings = {}
    for key, value in data.items():
        norm = key.replace("-", "_")
        if norm not in _SIM_KEYS:
            raise DataError(f"{path}: unknown config key {key!r}")
        expect = _SIM_KEYS[norm]
        if expect is int:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DataError(f"{path}: key {key!r} must be an integer")
            if isinstance(value, float):
                if not value.is_integer():
                    raise DataError(f"{path}: key {key!r} must be an integer")
                value = int(value)
        elif expect is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DataError(f"{path}: key {key!r} must be a number")
            value = float(value)
        elif expect is str:
            if not isinstance(value, str):
                raise DataError(f"{path}: key {key!r} must be a string")
        settings[norm] = value
    return settings


def _parse_sweep(raw) -> list[float]:
    if isinstance(raw, str):
        parts = [part.strip() for part in raw.split(",") if part.strip()]
        try:
            values = [float(part) for part in parts]
        except ValueError as err:
            raise UsageError(f"--sweep-p: {err}") from err
    elif isinstance(raw, list):
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw):
            raise UsageError("sweep_p list must contain numbers")
        values = [float(v) for v in raw]
    else:
        raise UsageError("sweep_p must be a comma list or an array of numbers")
    if not values:
        raise UsageError("--sweep-p needs at least one value")
    return values


def _cmd_simulate(args) -> int:
    settings = _load_sim_file(args.config) if args.config else {}
    for key in _SIM_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value

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
        h2 = _load_code(settings["code2"])
        h1 = None
        if mode == SYMMETRIC:
            if settings.get("code1") is None:
                raise UsageError("symmetric mode requires --code1 alongside --code2")
            h1 = _load_code(settings["code1"])
            _check_same_length(settings["code1"], h1, settings["code2"], h2)
    else:
        missing = [k for k in ("n", "dv", "dc") if settings.get(k) is None]
        if missing:
            raise UsageError(
                "simulate needs --code2 or all of --n/--dv/--dc "
                f"(missing: {', '.join('--' + m for m in missing)})"
            )
        try:
            h2 = gallager_construct(settings["n"], settings["dv"], settings["dc"], seed)
            h1 = (
                gallager_construct(settings["n"], settings["dv"], settings["dc"], seed + 1)
                if mode == SYMMETRIC
                else None
            )
        except ValueError as err:
            raise UsageError(str(err)) from err
        except ConstructionError as err:
            raise DataError(str(err)) from err

    sweep_values = _parse_sweep(settings["sweep_p"]) if settings.get("sweep_p") is not None else None
    if sweep_values is not None:
        for value in sweep_values:
            _model(value)
    first_p = sweep_values[0] if sweep_values is not None else settings["p"]
    try:
        config = simmod.SimConfig(
            model=_model(first_p),
            h2=h2,
            trials=settings.get("trials", 100),
            master_seed=seed,
            h1=h1,
            decoder=DecoderConfig(
                max_iterations=settings.get("max_iters", 100),
                damping=settings.get("damping", 0.0),
            ),
        )
    except ValueError as err:
        raise UsageError(str(err)) from err

    jobs = settings.get("jobs", 1)
    try:
        _integer("jobs", jobs, positive=True)
    except ValueError as err:
        raise UsageError(str(err)) from err
    if sweep_values is not None:
        records = simmod.sweep(simmod.configs_over_p(config, sweep_values), jobs=jobs)
    else:
        records = [simmod.run_trials(config, jobs=jobs)]
    _emit(simmod.format_csv(records), settings.get("out"))
    return 0
