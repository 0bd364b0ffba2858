"""The benchmark's four workloads: inputs from a seed, the ops, their checks.

A workload is built once per process (the timed set-up) and then runs whole
rounds of the same fixed list of ops.  Each op has an untimed ``prepare``
that hands it fresh program objects, so no cache the program keeps on a net
or a point set carries over from one round to the next.  An op's output is
checked in the first round; later rounds must reproduce its digest.
Checks that need a reference computation big enough to raise the peak
memory run in :meth:`Workload.finish`, after the timed rounds.

Ops reach ``netgains`` through module attributes at call time, so the
tracer's wrappers (``tracing.install``) see every call.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import numpy as np

import netgains.cli  # noqa: F401  (loads every layer; the import is part of set-up)

import checks
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

REPLICATE_SEED_FAULT = (
    "replicate-seed: replicate r of base seed b is scrambled with seed b ^ r "
    "(scramble.estimate, cli scramble --reps), so nearby base seeds share replicates"
)

def _ng() -> SimpleNamespace:
    mods = {name: sys.modules[f"netgains.{name}"] for name in
            ("gf2", "netgen", "quality", "gains", "scramble", "suites", "samples", "cli")}
    return SimpleNamespace(**mods)


@dataclass
class Op:
    """One timed call.  ``check`` returns problems; ``fault_check`` returns the
    problems of a known fault this op probes, which count as a failed op."""

    label: str
    prepare: Callable[[], object]
    call: Callable[[object], object]
    work: Callable[[object], int]
    summary: Callable[[object], str]
    check: Callable[[object], list[str]]
    fault_check: Callable[[object], list[str]] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    finish: Callable[[], list[str]] = lambda: []
    rss_of_children: bool = False
    streams: bool = False  # ops stream arrays larger than the cache (see calib)
    cleanup: Callable[[], None] = lambda: None
    tracer: object = None
    child_totals: list = field(default_factory=list)


def _rows(gens) -> tuple[tuple[int, ...], ...]:
    return tuple(mat.rows for mat in gens.matrices)


def _fresh(ng, rows, m):
    return ng.netgen.GeneratorSet(tuple(ng.gf2.BitMatrix(m, r) for r in rows))


def _label(problems: list[str], what: str) -> list[str]:
    return [f"{what}: {p}" for p in problems]


# --- xval-sweep -----------------------------------------------------------------
# The acceptance gate draws s in 1..4 and m in 2..6 uniformly; a round holds
# every shape the same number of times, so seeds change the matrices but not
# the mix of sizes the rates average over.
XVAL_SHAPES = [(s, m) for s in range(1, 5) for m in range(2, 7)]
XVAL_COPIES = 3
XVAL_SAMPLES = 4  # random (u, k) per net, plus the closed form's witness


def xval_sweep(ng, seed: int) -> Workload:
    rng = random.Random(seed)
    shapes = XVAL_SHAPES * XVAL_COPIES
    rng.shuffle(shapes)
    nets = [(s, m, _rows(ng.suites.random_generator_set(rng, s, m))) for s, m in shapes]
    records: dict[int, dict] = {}
    sampled: dict[int, dict] = {}

    def make(i, s, m, rows):
        def check(rec):
            records[i] = dataclasses.asdict(rec)
            gens = _fresh(ng, rows, m)
            pts = ng.netgen.generate_points(gens)
            keys = random.Random(seed * 7919 + i).sample(list(reference.box(s, m)), XVAL_SAMPLES)
            _, witness = ng.gains.max_gain(gens)
            keys.append((witness.u, witness.k))
            values = {}
            for u, k in keys:
                idx = ng.netgen.SubsetIndex(u, k)
                values[(u, k)] = (
                    Fraction(ng.gains.gain_fast(gens, idx).as_int),
                    ng.gains.gain_bruteforce(pts, idx),
                    Fraction(ng.gains.gain_representation(gens, idx)),
                )
            sampled[i] = values
            return []

        return Op(
            "evaluate_net",
            prepare=lambda: _fresh(ng, rows, m),
            call=lambda gens: ng.suites.evaluate_net(gens),
            work=lambda rec: rec.triples,
            summary=lambda rec: checks.digest(dataclasses.asdict(rec)),
            check=check,
        )

    def finish():
        problems = []
        for i, (s, m, rows) in enumerate(nets):
            pts = reference.points(rows, m)
            ref_t = reference.counting_t(pts, m)
            what = f"xval net {i} (s={s}, m={m})"
            problems += _label(checks.check_sweep_record(records[i], s, m, ref_t), what)
            ref = {key: reference.pair_gain(pts, m, *key) for key in sampled[i]}
            for route, name in enumerate(("gain_fast", "gain_bruteforce", "gain_representation")):
                values = {key: v[route] for key, v in sampled[i].items()}
                problems += _label(checks.check_values(values, ref), f"{what} {name}")
            fast = {key: v[0] for key, v in sampled[i].items()}
            problems += _label(checks.check_bounded(fast, ref_t, m), what)
        return problems

    return Workload("xval-sweep", [make(i, *net) for i, net in enumerate(nets)], finish)


# --- gain-enum ------------------------------------------------------------------
# Depth falls as s grows so every op visits a few hundred to a few thousand
# (u, k).  Nets up to ENUM_SMALL_M bits are also checked point by point: on
# sampled entries, and up to ENUM_FULL_M bits on every nonzero entry.
# Two random nets per shape keep the op-time percentiles from hanging on
# how hard one seed's matrices happen to be.
ENUM_DEPTH = {3: 10, 4: 7, 5: 5, 6: 4, 7: 3}
ENUM_M = (8, 10, 12, 14, 16)
ENUM_RANDOM = 2
ENUM_SMALL_M = 10
ENUM_FULL_M = 8
ENUM_SAMPLES = 6  # half drawn from the box, half from the nonzero entries


def gain_enum(ng, seed: int) -> Workload:
    rng = random.Random(seed)
    nets = []
    for s, depth in ENUM_DEPTH.items():
        for m in ENUM_M:
            nets.append((s, m, depth, "sobol", _rows(ng.samples.sobol_net(s, m))))
            for _ in range(ENUM_RANDOM):
                nets.append((s, m, depth, "random", _rows(ng.suites.random_generator_set(rng, s, m))))
    evidence: dict[int, tuple] = {}

    def entries_of(report):
        return {(ix.u, ix.k): gv.log2 for ix, gv in report.entries}

    def make(i, s, m, depth, kind, rows):
        def check(report):
            gens = _fresh(ng, rows, m)
            t = ng.quality.t_value(gens)
            _, witness = ng.gains.max_gain(gens)
            entries = entries_of(report)
            problems = checks.check_gain_table(
                entries, s=s, m=m, depth=depth, t=t, gamma_log2=report.gamma_max.log2,
                visited=report.visited, theoretical_log2=report.theoretical.log2,
                witness=(witness.u, witness.k),
            )
            if report.truncated:
                problems.append("report is truncated without a visit budget")
            if m <= ENUM_SMALL_M:
                pick = random.Random(seed * 7919 + i)
                keys = pick.sample(list(reference.box(s, m, depth)), ENUM_SAMPLES // 2)
                nonzero = sorted(entries)
                keys += nonzero if m <= ENUM_FULL_M else pick.sample(nonzero, min(ENUM_SAMPLES // 2, len(nonzero)))
                evidence[i] = (t, checks.table_values(entries, keys))
            return _label(problems, f"gain-enum net {i} ({kind} s={s} m={m} depth={depth})")

        return Op(
            f"enumerate_gains.{kind}",
            prepare=lambda: _fresh(ng, rows, m),
            call=lambda gens: ng.gains.enumerate_gains(gens, depth),
            work=lambda report: report.visited,
            summary=lambda r: checks.digest(
                r.visited, r.truncated, r.gamma_max.log2, r.attaining, r.theoretical.log2,
                sorted(entries_of(r).items()),
            ),
            check=check,
        )

    def finish():
        problems = []
        for i, (t, values) in evidence.items():
            s, m, depth, kind, rows = nets[i]
            pts = reference.points(rows, m)
            what = f"gain-enum net {i} ({kind} s={s} m={m})"
            ref_t = reference.counting_t(pts, m)
            if t != ref_t:
                problems.append(f"{what}: t_value {t} but counting t {ref_t}")
            ref = {key: reference.pair_gain(pts, m, *key) for key in values}
            problems += _label(checks.check_values(values, ref), what)
        return problems

    return Workload("gain-enum", [make(i, *net) for i, net in enumerate(nets)], finish)


# --- rqmc-points ----------------------------------------------------------------
# Sobol' heads over a range of m; the largest makes peak memory depend on how
# points and scrambles are streamed.  Estimates run many replicates on a
# small net, so per-call overhead dominates there instead of bulk work.
RQMC_S = 7
RQMC_M = (8, 10, 12, 14, 16, 18)
EST_NET = (4, 8)
EST_REPS = 64
FAULT_REPS = 8


def _product(x: np.ndarray) -> np.ndarray:
    return np.prod(x, axis=1)


def _candidate_boxes(s: int, m: int):
    """Full-depth boxes on coordinates 1-2 and one level shallower on later pairs."""
    out = [((1, 2), (a, m - a)) for a in range(m + 1)]
    out += [((j, j + 1), (a, m - 2 - a)) for j in range(2, min(s, 5)) for a in range(m - 1)]
    return out


def rqmc_points(ng, seed: int) -> Workload:
    rng = random.Random(seed)
    kinds = list(ng.scramble.ScrambleKind)
    rows = {m: _rows(ng.samples.sobol_net(RQMC_S, m)) for m in RQMC_M}
    base = {m: ng.netgen.generate_points(_fresh(ng, rows[m], m)) for m in RQMC_M}
    es, em = EST_NET
    est_rows = _rows(ng.samples.sobol_net(es, em))
    est_points = ng.netgen.generate_points(_fresh(ng, est_rows, em))
    point_digests: dict[int, str] = {}
    boxes: dict[int, list] = {}
    Spec = ng.scramble.ScrambleSpec

    def values(p):
        return p.n * p.s

    def points_op(m):
        def check(p):
            point_digests[m] = checks.digest(p.coords)
            return []

        return Op(
            "generate_points",
            prepare=lambda: _fresh(ng, rows[m], m),
            call=lambda gens: ng.netgen.generate_points(gens),
            work=values,
            summary=lambda p: checks.digest(p.coords),
            check=check,
        )

    def scramble_op(m, kind):
        spec = Spec(kind=kind, seed=rng.getrandbits(63))

        def check(sp):
            if m not in boxes:
                boxes[m] = checks.balanced_boxes(base[m].coords, m, _candidate_boxes(RQMC_S, m))
            return _label(checks.check_scrambled(sp.numerators, sp.output_bits, boxes[m]),
                          f"{kind.value} scramble of sobol s={RQMC_S} m={m}")

        return Op(
            f"scramble.{kind.value}",
            prepare=lambda: ng.netgen.NetPoints(base[m].coords, m),
            call=lambda p: ng.scramble.scramble(p, spec),
            work=values,
            summary=lambda sp: checks.digest(sp.numerators, sp.reals),
            check=check,
        )

    def estimate_op(kind):
        spec = Spec(kind=kind, seed=rng.getrandbits(63))
        return Op(
            f"estimate.{kind.value}",
            prepare=lambda: ng.netgen.NetPoints(est_points.coords, em),
            call=lambda p: ng.scramble.estimate(p, spec, _product, EST_REPS),
            work=lambda e: e.replicates * values(est_points),
            summary=lambda e: checks.digest(e.mean, e.variance_of_mean, e.per_replicate_means),
            check=lambda e: _label(checks.check_estimate(e.mean, e.std_error, 2.0**-es),
                                   f"{kind.value} estimate of prod x_j"),
        )

    nested = ng.scramble.ScrambleKind.NESTED_UNIFORM
    fault_op = Op(
        "estimate.seed-pair",
        prepare=lambda: ng.netgen.NetPoints(est_points.coords, em),
        call=lambda p: [ng.scramble.estimate(p, Spec(kind=nested, seed=b), _product, FAULT_REPS)
                        for b in (1, 2)],
        work=lambda pair: sum(e.replicates for e in pair) * values(est_points),
        summary=lambda pair: checks.digest([e.per_replicate_means for e in pair]),
        check=lambda pair: [],
        fault_check=lambda pair: checks.check_disjoint(*(e.per_replicate_means for e in pair)),
    )

    ops = []
    for m in RQMC_M:
        ops.append(points_op(m))
        ops += [scramble_op(m, kind) for kind in kinds]
    for kind in kinds:
        ops += [estimate_op(kind), estimate_op(kind)]
    ops.append(fault_op)

    def finish():
        problems = []
        for m in RQMC_M:
            ref = reference.points(rows[m], m)
            problems += _label(checks.check_points(point_digests[m], ref), "generate_points")
            problems += _label(checks.check_points(checks.digest(base[m].coords), ref), "set-up points")
        problems += _label(checks.check_points(checks.digest(est_points.coords),
                                               reference.points(est_rows, em)), "estimate points")
        return problems

    return Workload("rqmc-points", ops, finish, streams=True)


# --- cli-mix --------------------------------------------------------------------
# Cold processes, one at a time, over every subcommand on small inputs:
# import, argparse, the writers and the exit codes are on the path here only.
CLI_RAND = (3, 5)  # s, m of the seeded random net
CLI_SOBOL_BIN = (5, 10)
CLI_SOBOL_SCRAMBLE = (4, 8)
CLI_SOBOL_SMALL = (3, 6)


def _raw_text(rows, m) -> str:
    blocks = ["\n".join(format(r, f"0{m}b") for r in mat) for mat in rows]
    return f"{len(rows)} {m}\n\n" + "\n\n".join(blocks) + "\n"


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_mix(ng, seed: int) -> Workload:
    rng = random.Random(seed)
    tmp = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    nets = {
        "shift": (4, 4, _rows(ng.samples.shift_net())),
        "rand": (*CLI_RAND, _rows(ng.suites.random_generator_set(rng, *CLI_RAND))),
    }
    for s, m in (CLI_SOBOL_BIN, CLI_SOBOL_SCRAMBLE, CLI_SOBOL_SMALL):
        nets[f"sobol{s}.{m}"] = (s, m, _rows(ng.samples.sobol_net(s, m)))
    files = {"shift": os.path.join(tmp, "shift.txt"), "rand": os.path.join(tmp, "rand.txt"),
             "jk": os.path.join(tmp, "joe-kuo.txt")}
    for name, text in (("shift", ng.samples.SHIFT_NET_RAW), ("rand", _raw_text(nets["rand"][2], CLI_RAND[1])),
                       ("jk", ng.samples.JOE_KUO_HEAD)):
        with open(files[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    env = cli_env()
    wl = Workload("cli-mix", [], rss_of_children=True)

    def run(argv):
        out_path = None
        if "--out" in argv:
            out_path = argv[argv.index("--out") + 1]
            if os.path.exists(out_path):
                os.remove(out_path)
        tracer = wl.tracer
        if tracer is not None and tracer.on:
            dump = os.path.join(tmp, f"trace-{tracer.op}.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), dump, str(tracer.op), *argv]
        else:
            dump = None
            cmd = [sys.executable, "-m", "netgains.cli", *argv]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=120)
        if dump is not None and os.path.exists(dump):
            with open(dump, encoding="utf-8") as fh:
                wl.child_totals.append(json.load(fh))
            os.remove(dump)
        payload = b""
        if out_path is not None and os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                payload = fh.read()
        return SimpleNamespace(code=proc.returncode, stdout=proc.stdout, stderr=proc.stderr, file=payload)

    def dirnum(s, m):
        return ["--dirnum", files["jk"], "--dims", str(s), "--m", str(m)]

    def add(label, argv, check, fault_check=None):
        def guarded(res, fn):
            if res.code != 0:
                return [f"{label}: exit code {res.code}: {res.stderr.decode(errors='replace')[-300:]}"]
            try:
                return _label(fn(res), label)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                return [f"{label}: output does not parse: {exc!r}"]

        wl.ops.append(Op(
            f"cli.{label}",
            prepare=lambda: argv,
            call=run,
            work=lambda res: 1,
            summary=lambda res: checks.digest(res.code, res.stdout, res.file),
            check=lambda res: guarded(res, check),
            fault_check=None if fault_check is None else (lambda res: fault_check(res) if res.code == 0 else []),
        ))

    # References are computed on first use, in the untimed checks.
    @functools.cache
    def ref_points(name):
        s, m, rows = nets[name]
        return reference.points(rows, m)

    @functools.cache
    def ref_t(name):
        return reference.counting_t(ref_points(name), nets[name][1])

    def check_analyze(name):
        s, m, _ = nets[name]

        def check(res):
            got = json.loads(res.stdout)
            pts = ref_points(name)
            top = max(reference.pair_gain(pts, m, *key) for key in reference.box(s, m))
            out = []
            if got["t"] != ref_t(name):
                out.append(f"t={got['t']} but counting t={ref_t(name)}")
            if Fraction(2) ** got["gamma_log2"] != top:
                out.append(f"gamma 2^{got['gamma_log2']} but the pairwise maximum is {top}")
            if got["bound_log2"] != got["t"] + s - 1:
                out.append(f"bound 2^{got['bound_log2']} is not 2^(t+s-1)")
            return out
        return check

    def check_table(name, depth, entries, **extra):
        s, m, _ = nets[name]
        pts = ref_points(name)
        ref = {key: reference.pair_gain(pts, m, *key) for key in reference.box(s, m, depth)}
        top = max((g for g in ref.values() if g), default=None)
        gamma = extra.pop("gamma_log2")
        out = checks.check_gain_table(entries, s=s, m=m, depth=depth, t=ref_t(name), gamma_log2=gamma, **extra)
        if gamma is not None and Fraction(2) ** gamma != top:
            out.append(f"maximum 2^{gamma} but the pairwise maximum within the depth is {top}")
        return out + checks.check_values(checks.table_values(entries, ref), ref)

    def check_gains_json(res):
        got = json.loads(res.stdout)
        entries = {(tuple(e["u"]), tuple(e["k"])): e["log2_gain"] for e in got["entries"]}
        return check_table("rand", got["max_depth"], entries, visited=got["visited"],
                           gamma_log2=got["gamma_max_log2"])

    def check_gains_csv(res):
        lines = res.stdout.decode().splitlines()
        if lines[0] != "u,k,log2_gain":
            return [f"unexpected header {lines[0]!r}"]
        entries = {}
        for line in lines[1:]:
            u, k, g = line.split(",")
            entries[(tuple(map(int, u.split())), tuple(map(int, k.split())))] = int(g)
        return check_table("shift", 4, entries, gamma_log2=max(entries.values(), default=None))

    def check_points_csv(name):
        s, m, _ = nets[name]

        def check(res):
            vals = np.array([[float(x) for x in line.split(",")] for line in res.stdout.decode().splitlines()])
            nums = np.rint(vals * (1 << m)).astype(np.uint64)
            return checks.check_points(checks.digest(nums), ref_points(name))
        return check

    def check_points_bin(name):
        s, m, _ = nets[name]
        return lambda res: checks.check_points(
            checks.digest(np.frombuffer(res.file, dtype="<u4").astype(np.uint64).reshape(-1, s)), ref_points(name))

    def scrambled_reps(name, res, fmt):
        s, m, _ = nets[name]
        if fmt == "bin":
            nums = np.frombuffer(res.file, dtype="<u4").astype(np.uint64).reshape(-1, 1 << m, s)
        elif fmt == "csv":
            vals = np.array([[float(x) for x in line.split(",")] for line in res.stdout.decode().splitlines()])
            nums = np.floor(vals * (1 << m)).astype(np.uint64).reshape(-1, 1 << m, s)
        else:
            nums = np.array(json.loads(res.stdout)["numerators"], dtype=np.uint64)
        return nums

    def check_scramble(name, fmt, reps):
        s, m, _ = nets[name]

        def check(res):
            boxes = checks.balanced_boxes(ref_points(name), m, _candidate_boxes(s, m))
            nums = scrambled_reps(name, res, fmt)
            out = [] if nums.shape[0] == reps else [f"{nums.shape[0]} replicates, asked for {reps}"]
            for r, rep in enumerate(nums):
                out += _label(checks.check_scrambled(rep, m, boxes), f"replicate {r}")
            return out
        return check

    def replicate_digests(nums):
        return [checks.digest(rep) for rep in nums]

    def check_integrate(s):
        return lambda res: checks.check_estimate(
            json.loads(res.stdout)["mean"], json.loads(res.stdout)["std_error"], 2.0**-s)

    def check_verify(res):
        got = json.loads(res.stdout)
        return [] if got["pass"] and got["suites"] else [f"suites failed: {got['suites']}"]

    small = "sobol%d.%d" % CLI_SOBOL_SMALL
    scr = "sobol%d.%d" % CLI_SOBOL_SCRAMBLE
    binnet = "sobol%d.%d" % CLI_SOBOL_BIN
    seeds = [str(rng.getrandbits(31)) for _ in range(4)]
    pair: dict[int, list[str]] = {}

    def remember(base_seed, check):
        def wrapped(res):
            out = check(res)
            pair[base_seed] = replicate_digests(scrambled_reps(small, res, "json"))
            return out
        return wrapped

    add("analyze.shift", ["--json", "analyze", "--raw", files["shift"]], check_analyze("shift"))
    add("analyze.rand", ["--json", "analyze", "--raw", files["rand"]], check_analyze("rand"))
    add("gains.json", ["--json", "gains", "--raw", files["rand"], "--depth", "6"], check_gains_json)
    add("gains.csv", ["gains", "--raw", files["shift"], "--depth", "4", "--format", "csv"], check_gains_csv)
    add("gen.csv", ["gen", "--raw", files["shift"]], check_points_csv("shift"))
    add("gen.bin", ["gen", *dirnum(*CLI_SOBOL_BIN), "--format", "bin", "--out", os.path.join(tmp, "points.bin")],
        check_points_bin(binnet))
    add("scramble.rls.bin", ["scramble", *dirnum(*CLI_SOBOL_SCRAMBLE), "--kind", "rls", "--reps", "2",
                             "--format", "bin", "--seed", seeds[0], "--out", os.path.join(tmp, "rls.bin")],
        check_scramble(scr, "bin", 2))
    add("scramble.shift.csv", ["scramble", *dirnum(*CLI_SOBOL_SMALL), "--kind", "shift", "--seed", seeds[1]],
        check_scramble(small, "csv", 1))
    for base_seed in (0, 1):
        add(f"scramble.nested.seed{base_seed}",
            ["--json", "scramble", *dirnum(*CLI_SOBOL_SMALL), "--kind", "nested", "--reps", "2",
             "--seed", str(base_seed)],
            remember(base_seed, check_scramble(small, "json", 2)),
            fault_check=(lambda res: checks.check_disjoint(pair[0], pair[1])) if base_seed == 1 else None)
    add("integrate", ["--json", "integrate", *dirnum(*CLI_SOBOL_SCRAMBLE), "--integrand", "prod", "--reps", "32",
                      "--kind", "nested", "--seed", seeds[2]], check_integrate(CLI_SOBOL_SCRAMBLE[0]))
    add("verify", ["--json", "verify", "--suite", "power-of-two", "--suite", "t-crossval", "--trials", "6",
                   "--max-s", "3", "--max-m", "4", "--seed", seeds[3]], check_verify)

    def cleanup():
        for name in os.listdir(tmp):
            os.remove(os.path.join(tmp, name))
        os.rmdir(tmp)

    wl.cleanup = cleanup
    return wl


BUILDERS = {"xval-sweep": xval_sweep, "gain-enum": gain_enum, "rqmc-points": rqmc_points, "cli-mix": cli_mix}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](_ng(), seed)
