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
from contextlib import contextmanager

import numpy as np

from . import netgen, quality, suites
from .gains import ResourceLimitError, enumerate_gains, max_gain
from .netgen import ParseError, load_generators
from .scramble import HaarIntegrand, ScrambleKind, ScrambleSpec, _replicate_seeds, _scrambles, estimate

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_SUITE = 3

_KINDS = {
    "rls": ScrambleKind.RANDOM_LINEAR,
    "nested": ScrambleKind.NESTED_UNIFORM,
    "shift": ScrambleKind.DIGITAL_SHIFT_ONLY,
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if args.raw:
                return load_generators(fh, netgen.RAW)
            if args.dims is None or args.m is None:
                raise CliError("--dirnum input needs --dims and --m", EXIT_INVALID)
            return load_generators(fh, netgen.DIRECTION_NUMBERS, dims=args.dims, m=args.m)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc
    except (ParseError, ValueError) as exc:
        raise CliError(f"invalid generator input: {exc}", EXIT_INVALID) from exc


@contextmanager
def _out_stream(path: str | None, binary: bool = False):
    if path is None or path == "-":
        yield sys.stdout.buffer if binary else sys.stdout
        return
    mode = "wb" if binary else "w"
    try:
        fh = open(path, mode)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO) from exc
    try:
        yield fh
    finally:
        fh.close()


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
    p.add_argument("--format", choices=["csv", "bin"], default="csv")

    p = add_command("analyze", "quality parameters and the maximal gain")
    _add_input_args(p)
    p.add_argument("--full", action="store_true", help="include subset tables and A_K")
    p.add_argument("--a-k-max", type=int, help="largest total depth in the A_K table")

    p = add_command("gains", "enumerate gain coefficients")
    _add_input_args(p)
    p.add_argument("--depth", type=int, required=True, help="largest total depth |k|")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--max-visits", type=int, help="truncate after this many (u, k) pairs")

    p = add_command("scramble", "randomize the net points")
    _add_input_args(p)
    p.add_argument("--kind", choices=sorted(_KINDS), default="nested")
    p.add_argument("--output-bits", type=int, help="digits of scrambled output (default m)")
    p.add_argument("--reps", type=int, default=1, help="independent scrambles to emit")
    p.add_argument("--format", choices=["csv", "bin"], default="csv")

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
        _emit(
            args,
            {
                "s": points.s,
                "m": points.m,
                "numerators": [[int(v) for v in row] for row in points.coords],
            },
        )
    elif args.format == "csv":
        with _out_stream(args.out) as fh:
            netgen.write_points_csv(points.coords, points.m, fh)
    else:
        with _out_stream(args.out, binary=True) as fh:
            netgen.write_points_binary(points.coords, points.m, fh)
    return EXIT_OK


def cmd_analyze(args) -> int:
    gens = _load(args)
    full = tuple(range(1, gens.s + 1))
    gamma, witness = max_gain(gens)
    if args.full:
        report = quality.quality_report(gens, a_k_max=args.a_k_max)
        payload = report.to_json_dict()
        t = report.t
        t_star_full = report.t_star_u[full]
    else:
        t = quality.t_value(gens)
        t_star_full = quality.t_star_u(gens, full)
        payload = {"s": gens.s, "m": gens.m}
    payload.update(
        {
            "t": t,
            "t_star_full": t_star_full,
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
    if args.reps < 1:
        raise CliError(f"--reps must be >= 1, got {args.reps}", EXIT_INVALID)
    gens = _load(args)
    seed = _seed_of(args)
    points = netgen.generate_points(gens)
    kind = _KINDS[args.kind]
    bits = args.output_bits if args.output_bits is not None else gens.m
    scrambles = _scrambles(points, ScrambleSpec(kind, bits), _replicate_seeds(seed, args.reps))
    if args.json:
        reps = [[[int(v) for v in row] for row in sp.numerators] for sp in scrambles]
        _emit(
            args,
            {"kind": kind.value, "output_bits": bits, "seed": seed, "numerators": reps},
        )
    elif args.format == "csv":
        with _out_stream(args.out) as fh:
            for sp in scrambles:
                for row in sp.reals:
                    fh.write(",".join(repr(float(v)) for v in row) + "\n")
    else:
        with _out_stream(args.out, binary=True) as fh:
            for sp in scrambles:
                netgen.write_points_binary(sp.numerators, bits, fh)
    return EXIT_OK


def _parse_coords(text: str | None, what: str) -> tuple[int, ...]:
    if not text:
        raise CliError(f"haar integrand needs --{what}", EXIT_INVALID)
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise CliError(f"--{what} must be comma-separated integers", EXIT_INVALID) from exc


def cmd_integrate(args) -> int:
    gens = _load(args)
    seed = _seed_of(args)
    points = netgen.generate_points(gens)
    if args.integrand == "haar":
        try:
            integrand = HaarIntegrand(_parse_coords(args.u, "u"), _parse_coords(args.k, "k"))
        except ValueError as exc:
            raise CliError(str(exc), EXIT_INVALID) from exc
    else:
        integrand = lambda x: np.prod(x, axis=1)  # noqa: E731
    spec = ScrambleSpec(kind=_KINDS[args.kind], seed=seed)
    est = estimate(points, spec, integrand, args.reps)
    _emit(args, est.to_json_dict())
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise CliError(f"--trials must be >= 1, got {args.trials}", EXIT_INVALID)
    chosen = args.suite or ["all"]
    if "all" in chosen:
        chosen = list(suites.SWEEP_SUITES) + ["net-preservation", "gain-identity"]
    seed = _seed_of(args)
    results = []
    sweep_names = [name for name in chosen if name in suites.SWEEP_SUITES]
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
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ParseError, ValueError, ResourceLimitError) as exc:
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
