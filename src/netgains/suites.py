"""Cross-validation sweeps: every computational route against every other.

A sweep draws random generator sets, walks the whole (u, k) box with
per-coordinate depths up to ``m + 1``, and evaluates each gain coefficient
three ways, each into its own dense table laid out as the pairwise one: the
pairwise sum (the one :func:`~netgains.gains.gain_pair_table` of the net,
built from the points' own match depths), the nullspace count read off one
:class:`~netgains.gains.KernelWalk` per subset, and the rank test read off
one :class:`~netgains.netgen.StackWalk` per subset.  Once a stack has rank
``m``, so has every deeper one, and each walk sees it from its own state:
rank ``m``, or an empty nullspace basis.  There the route writes gain 1
over the slab of those deeper stacks still to come in one assignment and
cuts the slab from its walk.  The tables are then compared cell by cell,
and checked for the paper's properties, as whole arrays.  The per-net
record carries everything the individual property suites assert about:
exact agreement of the three routes, power-of-two values, bound
domination, the forced-zero region, rank-derived t versus counting t, and
attainment of the closed-form maximum by the enumerated maximum.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .gains import (
    NULLSPACE_LOG2_LIMIT,
    KernelWalk,
    ResourceLimitError,
    enumerate_gains,
    gain_pair_table,
    max_gain,
)
from .gf2 import BitMatrix
from .netgen import MAX_M, GeneratorSet, StackWalk, SubsetIndex, _subsets, generate_points
from .quality import minimal_counting_t, t_value, verify_net_by_counting
from .samples import shift_net, sobol_net
from .scramble import ScrambleKind, ScrambleSpec, scramble, verify_gain_identity

_MAX_FAILURES = 20
# Largest pairwise table, (m + 3)^s int64 cells (32 MiB); the (m + 2)^s box
# of such a net is far beyond what the oracles can walk anyway.  The rank
# and kernel tables (int8 and int32) and the checks' temporaries peak at 16
# bytes a cell (64 MiB) on top of it: no more than gain_pair_table's own
# peak of about 24 bytes a cell while it builds the table.
PAIR_TABLE_CELL_LIMIT = 1 << 22


def random_generator_set(rng: random.Random, s: int, m: int) -> GeneratorSet:
    """Uniformly random s matrices of m x m fair bits."""
    limit = 1 << m
    mats = tuple(
        BitMatrix(m, tuple(rng.randrange(limit) for _ in range(m))) for _ in range(s)
    )
    return GeneratorSet(mats)


@dataclass
class NetRecord:
    """Aggregated check results of one net over the full (u, k) box."""

    s: int
    m: int
    t: int
    counting_t: int
    closed_form_log2: int
    witness_ok: bool
    enum_max_log2: int | None
    triples: int
    oracle_mismatches: int
    non_power_values: int
    chain_violations: int
    zero_region_violations: int
    failures: list[dict] = field(default_factory=list)

    @property
    def oracles_agree(self) -> bool:
        return self.oracle_mismatches == 0 and self.non_power_values == 0

    @property
    def attained(self) -> bool:
        return self.enum_max_log2 == self.closed_form_log2


def evaluate_net(gens: GeneratorSet) -> NetRecord:
    """Run all three gain routes over the full depth box and tally failures.

    Raises :class:`ResourceLimitError` before any work when the pairwise
    table would exceed :data:`PAIR_TABLE_CELL_LIMIT` cells, or when the
    nullspace count would walk ``(2**s - 1) * 2**m > 2**NULLSPACE_LOG2_LIMIT``
    states on the ``k = 0`` triples alone.  Points that are no digital net
    count as one oracle mismatch, and so does every cell of the box where
    the routes disagree or one of them wrote nothing.  The triples are the
    cells of the box, failures come in ``(|u|, u, k)`` order, and at most
    ``_MAX_FAILURES`` of them are kept.
    """
    s, m = gens.s, gens.m
    if (m + 3) ** s > PAIR_TABLE_CELL_LIMIT:
        raise ResourceLimitError(
            f"pairwise table of s={s}, m={m} has {m + 3}^{s} cells "
            f"(limit {PAIR_TABLE_CELL_LIMIT})"
        )
    if ((1 << s) - 1) << m > 1 << NULLSPACE_LOG2_LIMIT:
        raise ResourceLimitError(
            f"the k = 0 triples of s={s}, m={m} walk (2^{s} - 1) * 2^{m} nullspace states "
            f"(limit 2^{NULLSPACE_LOG2_LIMIT})"
        )
    points = generate_points(gens)
    t = t_value(gens)
    counting = minimal_counting_t(points)
    cap = m + 1

    failures: list[dict] = []
    try:
        pairs = gain_pair_table(points)  # n times the pairwise gain of every (u, k)
        mismatches = 0
    except ValueError as exc:  # wrong points: the other two routes still compare
        pairs, mismatches = None, 1
        failures.append({"kind": "oracle", "u": [], "k": [], "brute": str(exc)})

    # the other two routes on the cells of the pair table: log2 of the rank
    # route's gain (-1 for 0) and the kernel route's signed count
    shape = (m + 3,) * s
    log2 = np.full(shape, _NO_LOG2, dtype=np.int8)
    counts = np.full(shape, _NO_COUNT, dtype=np.int32)
    for u, view in _subset_views(s):
        r = len(u)
        log2_u, counts_u = log2[view], counts[view]
        walk = StackWalk(gens, u, (0,) * r, cap, r * cap)
        residual, k = walk.table.residual, walk.k  # k is updated in place
        for _, rank, nxt in walk:
            if rank == m:  # and so has every stack of the slab: gain 1
                log2_u[_slab(tuple(k), walk.cut())] = 0
            else:
                log2_u[tuple(k)] = -1 if residual(nxt) else m - rank
        kernel = KernelWalk(gens, u, (0,) * r)
        k = kernel.k
        for count in kernel:
            if kernel.basis:
                counts_u[tuple(k)] = count
            else:  # an empty nullspace, and so is every one of the slab: count 1
                counts_u[_slab(tuple(k), kernel.cut())] = count

    # every cell but the empty-u origin; a cell a walk never wrote keeps its
    # mark: _NO_LOG2 is flagged by itself, and no gain equals _NO_COUNT
    value = _GAIN_OF_LOG2[log2]
    oracle = (value != counts) | (log2 == _NO_LOG2)
    if pairs is not None:
        value *= gens.n
        oracle |= value != pairs
    del value  # the largest temporary: 8 bytes a cell
    oracle[(0,) * s] = False
    # the paper's properties of the gains all three agree on (log2, -1 for 0);
    # entry e on an axis is 1 + k_j for a member of u and 0 otherwise, so
    # |u| and |u| + |k| add up one axis at a time
    agreed = np.where(oracle, _NO_LOG2, log2)
    member, entry = _MEMBER[: m + 3], _ENTRY[: m + 3]
    size, total = member, entry
    for _ in range(s - 1):
        size, total = np.add.outer(size, member), np.add.outer(total, entry)
    non_power = agreed > m
    # nonzero gains obey 2^(m-rank) <= 2^(t+|u|-1) clamped at 2^m
    chain = (agreed - size >= t) | non_power
    zero = (agreed >= 0) & (total <= m - t)
    tallies = [int(np.count_nonzero(a)) for a in (oracle, non_power, chain, zero)]
    enum_max = int(agreed.max())

    if any(tallies) and len(failures) < _MAX_FAILURES:
        cells = _cell_notes(s, m, t, oracle, non_power, chain, zero, log2, counts, pairs)
        failures += itertools.islice(cells, _MAX_FAILURES - len(failures))
    closed, witness = max_gain(gens)
    # the rank route's gain at the witness, as gain_fast would compute it
    depth = dict(zip(witness.u, witness.k))
    cell = tuple(1 + min(depth[j], cap) if j in depth else 0 for j in range(1, s + 1))
    witness_ok = int(log2[cell]) == closed.log2
    return NetRecord(
        s=s,
        m=m,
        t=t,
        counting_t=counting,
        closed_form_log2=closed.log2,
        witness_ok=witness_ok,
        enum_max_log2=None if enum_max < 0 else enum_max,
        triples=log2.size - 1,
        oracle_mismatches=mismatches + tallies[0],
        non_power_values=tallies[1],
        chain_violations=tallies[2],
        zero_region_violations=tallies[3],
        failures=failures,
    )


# the cells a route has not reached: below every log2 (-1 for gain 0) and
# below every signed count (-2^NULLSPACE_LOG2_LIMIT at least)
_NO_LOG2 = -2
_NO_COUNT = np.iinfo(np.int32).min
# the gain 2^e at index e; 0 at the indices -1 (gain 0) and _NO_LOG2
_GAIN_OF_LOG2 = np.array([1 << e for e in range(MAX_M + 1)] + [0, 0], dtype=np.int64)
_ENTRY = np.arange(MAX_M + 3, dtype=np.int16)
_MEMBER = np.minimum(_ENTRY, 1).astype(np.int8)


def _subset_views(s: int):
    """Each nonempty ``u`` in ``(|u|, u)`` order, with the index of its cells.

    Indexing a table laid out as :func:`~netgains.gains.gain_pair_table` by
    the index gives the cells of ``u``, ``k`` on an axis per member of ``u``.
    """
    for u in _subsets(s):
        yield u, tuple(slice(1, None) if j in u else 0 for j in range(1, s + 1))


def _slab(k: tuple, i: int) -> tuple:
    """The cells equal to ``k`` before axis ``i`` and at least ``k[i]`` at it."""
    return k[:i] + (slice(k[i], None),)


def _cell_notes(s, m, t, oracle, non_power, chain, zero, log2, counts, pairs):
    """The failures of the cells in ``(|u|, u, k)`` order; a route with no value there reads None."""
    n = 1 << m
    for u, view in _subset_views(s):
        kinds = oracle[view], non_power[view], chain[view], zero[view]
        log2_u, counts_u = log2[view], counts[view]
        for k in zip(*np.nonzero(kinds[0] | kinds[1] | kinds[2] | kinds[3])):
            head = {"u": list(u), "k": [int(kj) for kj in k]}
            log2_k = int(log2_u[k])
            value = 0 if log2_k < 0 else 1 << log2_k
            if kinds[0][k]:
                count = int(counts_u[k])
                yield {"kind": "oracle", **head, "fast": None if log2_k == _NO_LOG2 else value,
                       "brute": None if pairs is None else str(Fraction(int(pairs[view][k]), n)),
                       "middle": None if count == _NO_COUNT else count}
                continue
            if kinds[1][k]:
                yield {"kind": "non_power", **head, "value": value}
            if kinds[2][k]:
                yield {"kind": "chain", **head, "log2": log2_k, "rank": m - log2_k,
                       "clamp": min(t + len(u) - 1, m)}
            if kinds[3][k]:
                yield {"kind": "zero_region", **head, "log2": log2_k}


def sweep_records(
    trials: int,
    *,
    max_s: int = 4,
    max_m: int = 6,
    min_m: int = 2,
    seed: int = 0,
) -> list[NetRecord]:
    """Evaluate ``trials`` random nets drawn from the given size ranges."""
    if max_s < 1:
        raise ValueError(f"max_s must be >= 1, got {max_s}")
    if min_m > max_m:
        raise ValueError(f"max_m must be >= min_m = {min_m}, got {max_m}")
    rng = random.Random(seed)
    records = []
    for _ in range(trials):
        s = rng.randint(1, max_s)
        m = rng.randint(min_m, max_m)
        records.append(evaluate_net(random_generator_set(rng, s, m)))
    return records


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checked: int
    failures: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.name,
            "pass": self.passed,
            "checked": self.checked,
            "failures": self.failures[:_MAX_FAILURES],
        }


def _details(*kinds: str):
    return lambda r: {"details": [f for f in r.failures if f["kind"] in kinds]}


# suite -> (which nets fail, what a failing net's entry adds, what a net counts as checked)
_SWEEP = {
    "power-of-two": (lambda r: r.oracle_mismatches or r.non_power_values,
                     _details("oracle", "non_power"), lambda r: r.triples),
    "bound-chain": (lambda r: r.chain_violations, _details("chain"), lambda r: r.triples),
    "zero-region": (lambda r: r.zero_region_violations, _details("zero_region"), lambda r: r.triples),
    "t-crossval": (lambda r: r.t != r.counting_t,
                   lambda r: {"t": r.t, "counting_t": r.counting_t}, lambda r: 1),
    "attainment": (lambda r: not (r.attained and r.witness_ok),
                   lambda r: {"enum_max_log2": r.enum_max_log2, "closed_form_log2": r.closed_form_log2,
                              "witness_ok": r.witness_ok}, lambda r: 1),
}
SWEEP_SUITES = tuple(_SWEEP)


def suites_from_records(records: list[NetRecord], names: list[str]) -> list[SuiteResult]:
    out = []
    for name in names:
        if name not in _SWEEP:
            raise ValueError(f"unknown sweep suite {name!r}")
        fails, adds, checks = _SWEEP[name]
        failures = [{"net": i, "s": r.s, "m": r.m, **adds(r)} for i, r in enumerate(records) if fails(r)]
        out.append(SuiteResult(name, not failures, sum(checks(r) for r in records), failures))
    return out


def net_preservation_suite(*, seed0: int = 0) -> SuiteResult:
    """Scrambling of either fixture under 100 seeds must keep every ball count intact."""
    result = SuiteResult("net-preservation", True, 0)
    for label, gens in (("shift_net", shift_net()), ("sobol_2d", sobol_net(2, 4))):
        points = generate_points(gens)
        t = t_value(gens)
        for kind in ScrambleKind:
            for seed in range(seed0, seed0 + 100):
                spec = ScrambleSpec(kind=kind, output_bits=gens.m, seed=seed)
                scrambled = scramble(points, spec).to_net_points()
                result.checked += 1
                if not verify_net_by_counting(scrambled, t):
                    result.failures.append({"fixture": label, "kind": kind.value, "seed": seed})
    result.passed = not result.failures
    return result


def gain_identity_suite(
    replicates: int = 10_000, *, seed: int = 0, entries: int = 3
) -> SuiteResult:
    """Empirical variance of the shift net against its nonzero gains."""
    gens = shift_net()
    picks = _identity_entries(gens, entries)
    result = SuiteResult("gain-identity", True, 0)
    for idx in picks:
        report = verify_gain_identity(
            gens,
            idx,
            replicates,
            ScrambleSpec(kind=ScrambleKind.RANDOM_LINEAR, seed=seed),
        )
        result.checked += 1
        if not report.passed:
            result.failures.append(report.to_json_dict())
    result.passed = not result.failures
    return result


def _identity_entries(gens: GeneratorSet, count: int) -> list[SubsetIndex]:
    """Deterministic nonzero-gain picks: the maximum plus the first others."""
    report = enumerate_gains(gens, max_depth=gens.s * (gens.m + 1))
    assert report.attaining is not None
    picks = [report.attaining]
    for idx, _ in sorted(report.entries, key=lambda e: (e[0].order, e[0].u, e[0].depth, e[0].k)):
        if idx not in picks:
            picks.append(idx)
        if len(picks) == count:
            break
    return picks


__all__ = [
    "SWEEP_SUITES",
    "PAIR_TABLE_CELL_LIMIT",
    "random_generator_set",
    "NetRecord",
    "evaluate_net",
    "sweep_records",
    "SuiteResult",
    "suites_from_records",
    "net_preservation_suite",
    "gain_identity_suite",
]
