"""Cross-validation sweeps: every computational route against every other.

A sweep draws random generator sets, walks the whole (u, k) box with
per-coordinate depths up to ``m + 1``, and evaluates each gain coefficient
three ways, each into its own dense table laid out as the pairwise one: the
pairwise sum (the one :func:`~netgains.gains.gain_pair_table` of the net,
built from the points' own match depths), the rank test and the nullspace
count.  The last two walk once each over all coordinates, so a stack is an
all-coordinate ``k`` with a cell for every ``u`` containing ``supp(k)``:
the rank test on the normal-form walk of
:func:`~netgains.quality._least_gain_total`, the nullspace count on a
:class:`~netgains.netgen.StackWalk` over a
:class:`~netgains.gains.NullTable`.  Each doubles one value per coordinate
over the free ones, so a cell costs one XOR, one index add and one store.
Once a stack has rank ``m``, so has every deeper one, and each route sees
it in its own state: ``m`` pivots, or an empty nullspace basis.  There the
route writes gain 1 over the cells of the slab of those deeper stacks in
one assignment and cuts the slab from its walk.  The tables are then
compared cell by cell, and checked for the paper's properties, as whole
arrays.  The per-net record carries everything the individual property
suites assert about: exact agreement of the three routes, power-of-two
values, bound domination, the forced-zero region, the rank t against the
points' own t (read off the pairwise table by the zero region's converse),
and attainment of the closed-form maximum by the enumerated maximum.
"""

from __future__ import annotations

import functools
import itertools
import random
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .gains import (
    PAIR_TABLE_CELL_LIMIT,
    NullTable,
    ResourceLimitError,
    _refuse_pair_table,
    enumerate_gains,
    gain_pair_table,
    max_gain,
)
from .gf2 import BitMatrix
from .netgen import MAX_M, GeneratorSet, StackWalk, SubsetIndex, _subsets, generate_points
from .quality import _least_gain_total, t_value, verify_net_by_counting
from .samples import shift_net, sobol_net
from .scramble import ScrambleKind, ScrambleSpec, scramble, verify_gain_identity

_MAX_FAILURES = 20
# PAIR_TABLE_CELL_LIMIT also bounds the net: the (m + 2)^s box of the largest
# table is far beyond what the oracles can walk anyway.  The rank and nullspace
# tables (int8 and int32 buffers) and the checks' temporaries peak at 16 bytes a
# cell (64 MiB) on top of the pairwise table: no more than gain_pair_table's own
# peak of about 24 bytes a cell while it builds it.  The walks' cell offsets
# (_layout) add 3^s int64, 1.35 MiB at s = 11 against 4^11 cells.
# Ceiling on (2^s - 1) * 2^m, the nullspace states of the k = 0 triples: it holds a net
# to 2^24 points, so every signed count (2^m at most) fits the int32 nullspace table.
NULLSPACE_LOG2_LIMIT = 24
_IDENTITY_ENTRIES = 3  # nonzero gains of the shift net the gain-identity suite checks


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
    counting_t: int | None  # None when the pairwise table refuses the points
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
    def attained(self) -> bool:
        return self.enum_max_log2 == self.closed_form_log2


def evaluate_net(gens: GeneratorSet) -> NetRecord:
    """Run all three gain routes over the full depth box and tally failures.

    Raises :class:`ResourceLimitError` before any work when the pairwise
    table would exceed :data:`PAIR_TABLE_CELL_LIMIT` cells, or when
    ``(2**s - 1) * 2**m > 2**NULLSPACE_LOG2_LIMIT``, which bounds the points
    and the signed counts.  Points that are no digital net
    count as one oracle mismatch, and so does every cell of the box where
    the routes disagree or one of them wrote nothing.  The triples are the
    cells of the box, failures come in ``(|u|, u, k)`` order, and at most
    ``_MAX_FAILURES`` of them are kept.  No box of points is counted.
    """
    s, m = gens.s, gens.m
    _refuse_net(s, m, f"s={s}, m={m}")
    points = generate_points(gens)
    t = t_value(gens)
    cap = m + 1

    failures: list[dict] = []
    try:
        pairs = gain_pair_table(points)  # n times the pairwise gain of every (u, k)
        mismatches = 0
    except ValueError as exc:  # wrong points: the other two routes still compare
        pairs, mismatches = None, 1
        failures.append({"kind": "oracle", "u": [], "k": [], "brute": str(exc)})

    # the other two routes on the cells of the pair table: log2 of the rank
    # route's gain (-1 for 0) and the nullspace route's signed count
    log2, counts = _rank_cells(gens), _null_cells(gens)

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
    # the points' t, by the zero region's converse: m + 1 less the least |u| + |k| of a nonzero gain
    counting = None if pairs is None else m + 1 - int(
        np.min(total, where=(pairs != 0) & (size > 0), initial=m + 1))
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


def _refuse_net(s: int, m: int, sizes: str) -> None:
    """Refuse a net past either ceiling of :func:`evaluate_net`, on its pairwise table and on its
    points (which bound its counts), both growing with ``s`` and ``m``; ``sizes`` names them."""
    _refuse_pair_table(s, m, sizes)
    if ((1 << s) - 1) << m > 1 << NULLSPACE_LOG2_LIMIT:
        raise ResourceLimitError(
            f"the k = 0 triples of {sizes} have (2^{s} - 1) * 2^{m} nullspace states (limit "
            f"2^{NULLSPACE_LOG2_LIMIT}, which bounds each net's points and its counts in the int32 table)"
        )


# the cells a route has not reached: below every log2 (-1 for gain 0) and
# below every signed count (0 or a power of two)
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


@functools.cache
def _layout(s: int, m: int) -> tuple[tuple[tuple[int, ...], ...], tuple[array, ...]]:
    """Where the cells of an all-coordinate stack ``k`` lie in the flat table: every ``u`` containing ``supp(k)``.

    ``place[j][k_j]`` is the offset of entry ``1 + k_j`` on axis ``j``, and
    0 at ``k_j = 0``, where the entry is 0 or 1 as ``u`` leaves ``j`` out or
    not.  ``spread[free]``, for a mask of zero coordinates, holds the offsets
    of its ``2^f`` subsets in doubling order: a coordinate's subsets are
    those before it, then the same with it added, so position ``p`` adds the
    free coordinates of ``p``'s bits.  The offsets are ``3^s`` int64 in all.
    """
    stride = [(m + 3) ** (s - 1 - j) for j in range(s)]
    place = tuple(tuple((1 + kj) * step if kj else 0 for kj in range(m + 2)) for step in stride)
    spread = []
    for free in range(1 << s):
        offsets = [0]
        for j in range(s):
            if free >> j & 1:
                offsets += [o + stride[j] for o in offsets]
        spread.append(array("q", offsets))
    return place, tuple(spread)


def _slab_cells(k: list[int], i: int) -> tuple:
    """The cells of the slab cut at the full stack ``k``, ``i`` its deepest nonzero coordinate.

    The slab's stacks equal ``k`` before ``i``, are at least as deep at
    ``i`` and anything past it; their cells take 0 or 1 on a zero axis
    before ``i``, and any entry past ``i``.
    """
    return (*(1 + kj if kj else slice(2) for kj in k[:i]), slice(1 + k[i], None))


def _rank_cells(gens: GeneratorSet) -> np.ndarray:
    """The rank route over the box: ``log2`` of each gain as ``int8``, -1 for 0, :data:`_NO_LOG2` if unreached.

    The normal-form walk of :func:`~netgains.quality._least_gain_total` at
    floor 0 over the whole box.  At a stack of rank ``< m`` the gain at
    ``u`` is ``2^(m - rank)`` if the next rows' normal forms XOR to 0 over
    ``u``, else 0: one XOR a cell, doubled over the free coordinates.  A
    full stack writes gain 1 over its slab.
    """
    s, m = gens.s, gens.m
    place, spread = _layout(s, m)
    buf = array("b", [_NO_LOG2]) * (m + 3) ** s
    cells = np.frombuffer(buf, dtype=np.int8).reshape((m + 3,) * s)

    def visit(k, rank, forms):
        """Write the cells of ``k``; return the least ``|u|`` of a gain there, or 0."""
        at = free = 0
        bit, acc = 1, [forms[s]]
        for kj, form, where in zip(k, forms, place):
            if kj:
                at += where[kj]
            else:
                acc += [a ^ form for a in acc]
                free |= bit
            bit <<= 1
        gain = m - rank
        written = zip(spread[free], acc)
        if not at:  # k = 0: its first cell, with u empty, is the origin
            next(written)
        for o, a in written:
            buf[at + o] = -1 if a else gain
        if 0 not in acc:
            return 0
        # position p adds the free coordinates of its bits to the s - |free| of supp(k)
        hits = [p.bit_count() for p, a in enumerate(acc) if not a and (p or at)]
        return s - free.bit_count() + min(hits) if hits else 0

    def slab(k, i):
        cells[_slab_cells(k, i)] = 0

    _least_gain_total(gens, range(1, s + 1), 0, s * (m + 1), visit, slab)
    return cells


def _null_cells(gens: GeneratorSet) -> np.ndarray:
    """The nullspace route over the box: each signed count as ``int32``, :data:`_NO_COUNT` if unreached.

    A :class:`~netgains.netgen.StackWalk` over all coordinates on a
    :class:`~netgains.gains.NullTable`.  At a stack of rank ``< m`` the
    cells come off the basis through :func:`_signed_counts`; at rank ``m``
    the basis is empty, and the route writes count 1 over the slab and cuts it.
    """
    s, m = gens.s, gens.m
    place, spread = _layout(s, m)
    buf = array("i", [_NO_COUNT]) * (m + 3) ** s
    cells = np.frombuffer(buf, dtype=np.int32).reshape((m + 3,) * s)
    walk = StackWalk(gens, range(1, s + 1), (0,) * s, s * (m + 1), NullTable(m))
    table, k, rows = walk.table, walk.k, gens._rows
    for _, rank, _ in walk:
        if rank == m:
            cells[_slab_cells(k, walk.cut())] = 1
            continue
        at = free = 0
        bit, nxts = 1, [0]
        for kj, row, where in zip(k, rows, place):
            if kj:
                at += where[kj]
                nxts[0] ^= row[kj]
            else:
                nxts.append(row[0])
                free |= bit
            bit <<= 1
        written = zip(spread[free], _signed_counts(table.basis, nxts))
        if not at:  # k = 0: its first cell, with u empty, is the origin
            next(written)
        for o, count in written:
            buf[at + o] = count
    return cells


def _signed_counts(basis: list[int], nxts: list[int]) -> list[int]:
    """The signed count of each ``u`` of a stack, in doubling order.

    ``nxts`` holds the XOR of the support's next rows, then each free
    coordinate's first row.  Bit ``i`` of a row's syndrome (from the top) is
    the parity of its product with basis vector ``i``, linear in the row; the
    count at ``u`` is ``2^|basis|`` if the syndromes XOR to 0 over ``u``, else 0.
    """
    acc = []
    for row in nxts:
        x = 0
        for vec in basis:
            x = x << 1 | (vec & row).bit_count() & 1
        acc += [a ^ x for a in acc] if acc else [x]
    size = 1 << len(basis)
    return [0 if a else size for a in acc]


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
    """Evaluate ``trials`` random nets from the size ranges, refused up front past the ceilings."""
    if max_s < 1:
        raise ValueError(f"max_s must be >= 1, got {max_s}")
    if min_m > max_m:
        raise ValueError(f"max_m must be >= min_m = {min_m}, got {max_m}")
    _refuse_net(max_s, max_m, f"max_s={max_s}, max_m={max_m}")  # the largest net bounds every draw
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
    checked: int
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

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
        out.append(SuiteResult(name, sum(checks(r) for r in records), failures))
    return out


def net_preservation_suite(*, seed0: int = 0) -> SuiteResult:
    """Scrambling of either fixture under 100 seeds must keep every ball count intact."""
    result = SuiteResult("net-preservation", 0)
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
    return result


def gain_identity_suite(replicates: int = 10_000, *, seed: int = 0) -> SuiteResult:
    """Empirical variance of the shift net against its first :data:`_IDENTITY_ENTRIES` nonzero gains."""
    gens = shift_net()
    picks = _identity_entries(gens, _IDENTITY_ENTRIES)
    result = SuiteResult("gain-identity", 0)
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
    "NULLSPACE_LOG2_LIMIT",
    "random_generator_set",
    "NetRecord",
    "evaluate_net",
    "sweep_records",
    "SuiteResult",
    "suites_from_records",
    "net_preservation_suite",
    "gain_identity_suite",
]
