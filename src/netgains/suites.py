"""Cross-validation sweeps: every computational route against every other.

A sweep draws random generator sets, walks the whole (u, k) box with
per-coordinate depths up to ``m + 1``, and evaluates each gain coefficient
three ways: the pairwise sum (read from the one
:func:`~netgains.gains.gain_pair_table` of the net, built from the points'
own match depths), the nullspace count read off one
:class:`~netgains.gains.KernelWalk` per subset, and the rank test read off
one :class:`~netgains.netgen.StackWalk` per subset; the two walks go in
lockstep over the same ``k``.  The per-net record
carries everything the individual property suites assert about: exact
agreement of the three routes, power-of-two values, bound domination, the
forced-zero region, rank-derived t versus counting t, and attainment of
the closed-form maximum by the enumerated maximum.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .gains import (
    NULLSPACE_LOG2_LIMIT,
    GainValue,
    KernelWalk,
    ResourceLimitError,
    enumerate_gains,
    gain_fast,
    gain_pair_table,
    max_gain,
)
from .gf2 import BitMatrix
from .netgen import GeneratorSet, StackWalk, SubsetIndex, generate_points
from .quality import minimal_counting_t, t_value, verify_net_by_counting
from .samples import shift_net, sobol_net
from .scramble import ScrambleKind, ScrambleSpec, scramble, verify_gain_identity

_MAX_FAILURES = 20
# Largest pairwise table, (m + 3)^s int64 cells (32 MiB); the (m + 2)^s box
# of such a net is far beyond what the oracles can walk anyway.
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
    count as one oracle mismatch, and so does a subset whose rank and kernel
    walks fall out of step; its walk stops there.
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
    n = gens.n
    points = generate_points(gens)
    t = t_value(gens)
    counting = minimal_counting_t(points)
    cap = m + 1

    mismatches = non_power = chain_bad = zero_bad = 0
    enum_max: int | None = None
    triples = 0
    failures: list[dict] = []

    def note(kind: str, u, k, **extra) -> None:
        if len(failures) < _MAX_FAILURES:
            failures.append({"kind": kind, "u": list(u), "k": list(k), **extra})

    try:
        table = gain_pair_table(points)  # n times the pairwise gain of every (u, k)
    except ValueError as exc:  # wrong points: the other two routes still compare
        table, mismatches = None, 1
        note("oracle", (), (), brute=str(exc))

    for r in range(1, s + 1):
        clamp = min(t + r - 1, m)
        for u in itertools.combinations(range(1, s + 1), r):
            view = tuple(slice(1, None) if j in u else 0 for j in range(1, s + 1))
            pairs = None if table is None else table[view]
            walk = StackWalk(gens, u, (0,) * r, cap, r * cap)
            kernel = KernelWalk(gens, u, (0,) * r)
            counts = iter(kernel)
            residual = walk.table.residual
            for _, rank, nxt in walk:
                middle = next(counts, None)
                if middle is None or kernel.k != walk.k:  # walks out of step: stop this u
                    mismatches += 1
                    note("oracle", u, walk.k, kernel_k=None if middle is None else list(kernel.k))
                    break
                k = tuple(walk.k)
                triples += 1
                fast = GainValue.zero() if residual(nxt) else GainValue(m - rank)
                value = fast.as_int
                total = value * n if pairs is None else int(pairs[k])
                if not (total == value * n and value == middle):
                    mismatches += 1
                    note("oracle", u, k, fast=value, brute=str(Fraction(total, n)), middle=middle)
                    continue
                if value and (value & (value - 1) or value > (1 << m)):
                    non_power += 1
                    note("non_power", u, k, value=value)
                if not fast.is_zero:
                    if enum_max is None or fast.log2 > enum_max:
                        enum_max = fast.log2
                    # nonzero gains obey 2^(m-rank) <= 2^(t+|u|-1) clamped at 2^m
                    if not (fast.log2 == m - rank <= clamp):
                        chain_bad += 1
                        note("chain", u, k, log2=fast.log2, rank=rank, clamp=clamp)
                    if r + sum(k) <= m - t:
                        zero_bad += 1
                        note("zero_region", u, k, log2=fast.log2)
            else:  # the rank walk ended: the kernel walk must end with it
                if next(counts, None) is not None:
                    mismatches += 1
                    note("oracle", u, kernel.k, kernel_k=list(kernel.k))

    closed, witness = max_gain(gens)
    witness_ok = gain_fast(gens, witness) == closed
    return NetRecord(
        s=s,
        m=m,
        t=t,
        counting_t=counting,
        closed_form_log2=closed.log2,
        witness_ok=witness_ok,
        enum_max_log2=enum_max,
        triples=triples,
        oracle_mismatches=mismatches,
        non_power_values=non_power,
        chain_violations=chain_bad,
        zero_region_violations=zero_bad,
        failures=failures,
    )


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


def _collect(records: list[NetRecord], name: str, bad_count, kinds: tuple[str, ...]) -> SuiteResult:
    failures = []
    checked = 0
    for i, rec in enumerate(records):
        checked += rec.triples
        if bad_count(rec):
            failures.append(
                {
                    "net": i,
                    "s": rec.s,
                    "m": rec.m,
                    "details": [f for f in rec.failures if f["kind"] in kinds],
                }
            )
    return SuiteResult(name, not failures, checked, failures)


def suites_from_records(records: list[NetRecord], names: list[str]) -> list[SuiteResult]:
    out = []
    for name in names:
        if name == "power-of-two":
            out.append(
                _collect(
                    records,
                    name,
                    lambda r: r.oracle_mismatches or r.non_power_values,
                    ("oracle", "non_power"),
                )
            )
        elif name == "bound-chain":
            out.append(_collect(records, name, lambda r: r.chain_violations, ("chain",)))
        elif name == "zero-region":
            out.append(
                _collect(records, name, lambda r: r.zero_region_violations, ("zero_region",))
            )
        elif name == "t-crossval":
            result = SuiteResult(name, True, len(records))
            for i, rec in enumerate(records):
                if rec.t != rec.counting_t:
                    result.failures.append(
                        {"net": i, "s": rec.s, "m": rec.m, "t": rec.t, "counting_t": rec.counting_t}
                    )
            result.passed = not result.failures
            out.append(result)
        elif name == "attainment":
            result = SuiteResult(name, True, len(records))
            for i, rec in enumerate(records):
                if not (rec.attained and rec.witness_ok):
                    result.failures.append(
                        {
                            "net": i,
                            "s": rec.s,
                            "m": rec.m,
                            "enum_max_log2": rec.enum_max_log2,
                            "closed_form_log2": rec.closed_form_log2,
                            "witness_ok": rec.witness_ok,
                        }
                    )
            result.passed = not result.failures
            out.append(result)
        else:
            raise ValueError(f"unknown sweep suite {name!r}")
    return out


SWEEP_SUITES = ("power-of-two", "bound-chain", "zero-region", "t-crossval", "attainment")


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
