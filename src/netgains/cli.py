"""Command-line front end.

Subcommands: gen, analyze, gains, scramble, integrate, verify.  Exit codes
are scriptable: 0 success, 1 I/O failure, 2 invalid input (including a
request over a resource ceiling, or running out of memory), 3 property
suite failure.  Randomized commands take --seed; without one a fresh seed
is drawn and printed so any run can be reproduced.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from contextlib import nullcontext

import numpy as np

from . import netgen, quality, suites
from .gains import ResourceLimitError, enumerate_gains, max_gain
from .netgen import _coordinates, load_generators
from .scramble import (
    HaarIntegrand, ScrambleKind, ScrambleSpec, _ReplicateSeeds, _output_bits, _reals, _scrambles, estimate,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_SUITE = 3

# Ceilings on counts that each hold memory, about 300 MB at the ceiling: an estimate
# keeps about 63 B per replicate, and the sweep about 1.1 kB per trial's NetRecord.
REPS_LIMIT = 1 << 22
TRIALS_LIMIT = 1 << 18
# Rows of points that each point writer converts at a time: to Python ints for
# --json, to Python floats for CSV, to little-endian integers for --format bin.
_BLOCK_ROWS = 1 << 14

_KINDS = {
    "rls": ScrambleKind.RANDOM_LINEAR,
    "nested": ScrambleKind.NESTED_UNIFORM,
    "shift": ScrambleKind.DIGITAL_SHIFT_ONLY,
}


def _add_global_args(p: argparse.ArgumentParser, top_level: bool) -> None:
    # registered on the subparsers too (SUPPRESS keeps them from clobbering
    # values already parsed at the top level), so flags work in either spot
    kw = {} if top_level else {"default": argparse.SUPPRESS}
    p.add_argument("--json", action="store_true", help="machine-readable JSON output", **kw)
    p.add_argument("--seed", type=int, help="seed for randomized commands", **kw)
    p.add_argument("--out", metavar="FILE", help="output path (default stdout)", **kw)


def _add_input_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--raw", metavar="FILE", help="generator matrices in the raw format")
    src.add_argument("--dirnum", metavar="FILE", help="Joe-Kuo direction-number table")
    p.add_argument("--dims", type=int, help="dimensions to take from a direction-number table")
    p.add_argument("--m", type=int, help="bits per coordinate for a direction-number table")


def _load(args) -> netgen.GeneratorSet:
    path = args.raw or args.dirnum
    fmt = netgen.RAW if args.raw else netgen.DIRECTION_NUMBERS
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_generators(fh, fmt, dims=args.dims, m=args.m)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"invalid generator input: {exc}") from exc


def _out_stream(path: str | None, binary: bool = False):
    """A context manager over stdout, which it leaves open, or over ``path`` opened anew."""
    if path is None or path == "-":
        return nullcontext(sys.stdout.buffer if binary else sys.stdout)
    try:
        return open(path, "wb" if binary else "w")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _check_count(flag: str, value: int, least: int, most: int | None = None, note: str = "") -> None:
    if value < least:
        raise ValueError(f"{flag} must be >= {least}{note}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{flag} must be <= {most}{note}, got {value}")


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(63)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=None if args.json else 2)
    with _out_stream(args.out) as fh:
        fh.write(text)
        fh.write("\n")


def _write_json_rows(fh, rows: np.ndarray) -> None:
    """Write the JSON text of ``rows.tolist()``, ``_BLOCK_ROWS`` rows at a time."""
    fh.write("[")
    for i in range(0, len(rows), _BLOCK_ROWS):
        fh.write((", " if i else "") + json.dumps(rows[i : i + _BLOCK_ROWS].tolist())[1:-1])
    fh.write("]")


def _write_csv_rows(fh, rows: np.ndarray, bits: int) -> None:
    """Write ``rows / 2**bits`` as decimal fractions, one point per line, ``_BLOCK_ROWS`` rows at a time."""
    for i in range(0, len(rows), _BLOCK_ROWS):
        for row in (rows[i : i + _BLOCK_ROWS] * 2.0**-bits).tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def _write_binary_rows(fh, rows: np.ndarray, bits: int) -> None:
    """Write ``rows`` row-major as little-endian u32 (u64 past 32 bits), ``_BLOCK_ROWS`` rows at a time."""
    dtype = "<u4" if bits <= 32 else "<u8"
    for i in range(0, len(rows), _BLOCK_ROWS):
        block = np.ascontiguousarray(rows[i : i + _BLOCK_ROWS], dtype=np.uint64)
        fh.write(block.astype(dtype, copy=False).tobytes())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netgains",
        description="Digital nets in base 2: points, quality parameters, gain coefficients.",
    )
    _add_global_args(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _add_global_args(p, top_level=False)
        return p

    p = add_command("gen", "generate the net points")
    _add_input_args(p)
    p.add_argument("--format", choices=["csv", "bin"], help="default csv")

    p = add_command("analyze", "quality parameters and the maximal gain")
    _add_input_args(p)
    p.add_argument("--full", action="store_true", help="include subset tables and A_K")
    p.add_argument("--a-k-max", type=int, help="largest total depth in the A_K table")

    p = add_command("gains", "enumerate gain coefficients")
    _add_input_args(p)
    p.add_argument("--depth", type=int, required=True, help="largest total depth |k|")
    p.add_argument("--format", choices=["json", "csv"], help="default json")
    p.add_argument("--max-visits", type=int, help="truncate after this many (u, k) pairs")

    p = add_command("scramble", "randomize the net points")
    _add_input_args(p)
    p.add_argument("--kind", choices=sorted(_KINDS), default="nested")
    p.add_argument("--output-bits", type=int, help="digits of scrambled output (default m)")
    p.add_argument("--reps", type=int, default=1, help="independent scrambles to emit")
    p.add_argument("--format", choices=["csv", "bin"], help="default csv")

    p = add_command("integrate", "RQMC estimate over scramble replicates")
    _add_input_args(p)
    p.add_argument("--integrand", choices=["prod", "haar"], default="prod")
    p.add_argument("--u", help="comma-separated coordinates for the haar integrand")
    p.add_argument("--k", help="comma-separated depths for the haar integrand")
    p.add_argument("--reps", type=int, default=32)
    p.add_argument("--kind", choices=sorted(_KINDS), default="nested")

    p = add_command("verify", "run property suites against oracles")
    p.add_argument(
        "--suite",
        action="append",
        choices=sorted(set(suites.SWEEP_SUITES) | {"net-preservation", "gain-identity", "all"}),
        help="suite to run (repeatable; default all)",
    )
    p.add_argument("--trials", type=int, default=200, help="random nets in the sweep")
    p.add_argument("--max-s", type=int, default=3)
    p.add_argument("--max-m", type=int, default=5)
    p.add_argument("--reps", type=int, default=2000, help="replicates for gain-identity")
    return parser


def cmd_gen(args) -> int:
    gens = _load(args)
    points = netgen.generate_points(gens)
    if args.json:
        with _out_stream(args.out) as fh:
            fh.write(json.dumps({"s": points.s, "m": points.m, "numerators": []})[:-3])
            _write_json_rows(fh, points.coords)
            fh.write("}\n")
    elif args.format != "bin":
        with _out_stream(args.out) as fh:
            _write_csv_rows(fh, points.coords, points.m)
    else:
        with _out_stream(args.out, binary=True) as fh:
            _write_binary_rows(fh, points.coords, points.m)
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.a_k_max is not None and not args.full:
        raise ValueError("--a-k-max applies only with --full")
    gens = _load(args)
    gamma, witness = max_gain(gens)
    if args.full:
        report = quality.quality_report(gens, a_k_max=args.a_k_max)
        payload = report.to_json_dict()
        t = report.t
    else:
        t = quality.t_value(gens)
        payload = {"s": gens.s, "m": gens.m}
    payload.update(
        {
            "t": t,
            "t_star_full": gamma.log2 - gens.s + 1,  # the maximal gain is 2^(t*_{1:s} + s - 1)
            "gamma_log2": gamma.log2,
            "gamma_u": list(witness.u),
            "gamma_k": list(witness.k),
            "bound_log2": t + gens.s - 1,
        }
    )
    _emit(args, payload)
    return EXIT_OK


def cmd_gains(args) -> int:
    gens = _load(args)
    report = enumerate_gains(gens, args.depth, max_visits=args.max_visits)
    if args.format == "csv":
        with _out_stream(args.out) as fh:
            report.write_csv(fh)
    else:
        _emit(args, report.to_json_dict())
    return EXIT_OK


def cmd_scramble(args) -> int:
    _check_count("--reps", args.reps, 1)
    gens = _load(args)
    bits = _output_bits(gens.m, args.output_bits)
    seed = _seed_of(args)
    points = netgen.generate_points(gens)
    kind = _KINDS[args.kind]
    scrambles = _scrambles(points, ScrambleSpec(kind, bits), _ReplicateSeeds(seed, args.reps))
    if args.json:
        with _out_stream(args.out) as fh:
            fh.write(json.dumps({"kind": kind.value, "output_bits": bits, "seed": seed, "numerators": []})[:-2])
            for i, sp in enumerate(scrambles):
                fh.write(", " if i else "")
                _write_json_rows(fh, sp.numerators)
            fh.write("]}\n")
    elif args.format != "bin":
        with _out_stream(args.out) as fh:
            for sp in scrambles:  # reals a block at a time: no replicate's reals are held whole
                seeds = np.array([sp._seed], dtype=np.uint64)
                for i in range(0, sp.n, _BLOCK_ROWS):
                    _write_csv_rows(fh, _reals(sp.numerators[None, i : i + _BLOCK_ROWS], bits, seeds, i)[0], 0)
    else:
        with _out_stream(args.out, binary=True) as fh:
            for sp in scrambles:
                _write_binary_rows(fh, sp.numerators, bits)
    return EXIT_OK


def _parse_coords(text: str | None, what: str) -> tuple[int, ...]:
    if not text:
        raise ValueError(f"haar integrand needs --{what}")
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--{what} must be comma-separated integers") from exc


def cmd_integrate(args) -> int:
    if args.integrand != "haar" and (args.u is not None or args.k is not None):
        raise ValueError("--u and --k apply only to --integrand haar")
    _check_count("--reps", args.reps, 2, REPS_LIMIT)
    if args.integrand == "haar":
        integrand = HaarIntegrand(_parse_coords(args.u, "u"), _parse_coords(args.k, "k"))
    else:
        integrand = lambda x: np.prod(x, axis=1)  # noqa: E731
    gens = _load(args)
    if args.integrand == "haar":
        _coordinates(gens.s, integrand.u)
    seed = _seed_of(args)
    points = netgen.generate_points(gens)
    spec = ScrambleSpec(kind=_KINDS[args.kind], seed=seed)
    est = estimate(points, spec, integrand, args.reps)
    _emit(args, est.to_json_dict())
    return EXIT_OK


def cmd_verify(args) -> int:
    chosen = args.suite or ["all"]
    if "all" in chosen:
        chosen = list(suites.SWEEP_SUITES) + ["net-preservation", "gain-identity"]
    sweep_names = [name for name in chosen if name in suites.SWEEP_SUITES]
    if sweep_names:
        _check_count("--trials", args.trials, 1, TRIALS_LIMIT)
    if "gain-identity" in chosen:
        _check_count("--reps", args.reps, 2, REPS_LIMIT, " for gain-identity")
    seed = _seed_of(args)
    results = []
    if sweep_names:
        records = suites.sweep_records(
            args.trials, max_s=args.max_s, max_m=args.max_m, seed=seed
        )
        results.extend(suites.suites_from_records(records, sweep_names))
    if "net-preservation" in chosen:
        results.append(suites.net_preservation_suite(seed0=seed))
    if "gain-identity" in chosen:
        results.append(suites.gain_identity_suite(args.reps, seed=seed))
    passed = all(r.passed for r in results)
    _emit(args, {"pass": passed, "suites": [r.to_json_dict() for r in results]})
    return EXIT_OK if passed else EXIT_SUITE


_COMMANDS = {
    "gen": cmd_gen,
    "analyze": cmd_analyze,
    "gains": cmd_gains,
    "scramble": cmd_scramble,
    "integrate": cmd_integrate,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.json and getattr(args, "format", None) not in (None, "json"):
            raise ValueError(f"--json conflicts with --format {args.format}")
        return _COMMANDS[args.command](args)
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
