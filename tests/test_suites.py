"""Sweep machinery: determinism and failure surfacing."""

import itertools
import random
from fractions import Fraction

import pytest

from gf2_reference import assemble_cuk, nullspace_rank
from netgains import suites
from netgains.gains import NULLSPACE_LOG2_LIMIT, ResourceLimitError, gain_fast
from netgains.gf2 import BitMatrix
from netgains.netgen import GeneratorSet, NetPoints, SubsetIndex
from netgains.suites import (
    PAIR_TABLE_CELL_LIMIT,
    evaluate_net,
    random_generator_set,
    suites_from_records,
    sweep_records,
)


def test_sweep_is_deterministic():
    a = sweep_records(5, max_s=3, max_m=4, seed=5)
    b = sweep_records(5, max_s=3, max_m=4, seed=5)
    assert [(r.s, r.m, r.t, r.triples) for r in a] == [(r.s, r.m, r.t, r.triples) for r in b]


def test_random_generator_shapes():
    rng = random.Random(0)
    gens = random_generator_set(rng, 3, 5)
    assert gens.s == 3 and gens.m == 5


def test_evaluate_net_counts_full_box():
    gens = GeneratorSet((BitMatrix.identity(3),))
    rec = evaluate_net(gens)
    assert rec.triples == 3 + 2  # k in 0..m+1 for the single coordinate
    assert rec.oracles_agree and rec.attained and rec.witness_ok


def test_evaluate_net_catches_one_wrong_pair_table_entry(monkeypatch):
    real = suites.gain_pair_table

    def broken(points):
        table = real(points)
        table[0, 1 + 3] += 1  # one pair too many at u = (2,), k = 3
        return table

    monkeypatch.setattr(suites, "gain_pair_table", broken)
    gens = random_generator_set(random.Random(2), 2, 4)
    rec = evaluate_net(gens)
    assert rec.oracle_mismatches == 1 and not rec.oracles_agree
    (failure,) = [f for f in rec.failures if f["kind"] == "oracle"]
    assert failure["u"] == [2] and failure["k"] == [3]
    assert failure["brute"] == str(Fraction(16 * failure["fast"] + 1, 16))
    assert failure["middle"] == failure["fast"]
    (suite,) = suites_from_records([rec], ["power-of-two"])
    assert not suite.passed


def box(gens):
    """Every (u, k) of the sweep in (|u|, u, k) order, with whether C_{u,k} has full rank."""
    s, m = gens.s, gens.m
    for r in range(1, s + 1):
        for u in itertools.combinations(range(1, s + 1), r):
            for k in itertools.product(range(m + 2), repeat=r):
                rows = assemble_cuk(gens, SubsetIndex(u, k)).rows
                yield u, k, nullspace_rank(rows, m) == m


def test_evaluate_net_catches_one_wrong_signed_count(monkeypatch):
    from netgains import gains

    real = gains._signed_count
    calls = []

    def broken(basis, nexts):
        calls.append(None)
        return real(basis, nexts) + (len(calls) == 7)  # the 7th count is one off

    monkeypatch.setattr(gains, "_signed_count", broken)
    gens = random_generator_set(random.Random(2), 2, 4)
    rec = evaluate_net(gens)
    # one signed count per stack of rank < m; an empty nullspace counts 1 without one
    assert len(calls) == sum(not full for _, _, full in box(gens)) < rec.triples
    assert rec.oracle_mismatches == 1 and not rec.oracles_agree
    (failure,) = [f for f in rec.failures if f["kind"] == "oracle"]
    assert failure["middle"] == failure["fast"] + 1
    assert failure["brute"] == str(Fraction(failure["fast"]))
    (suite,) = suites_from_records([rec], ["power-of-two"])
    assert not suite.passed


class _SlabOfTwoKernelWalk(suites.KernelWalk):
    """Counts 2, not 1, at every empty nullspace: the value of the kernel route's slabs."""

    def __iter__(self):
        for count in super().__iter__():
            yield count if self.basis else 2


def test_evaluate_net_flags_every_cell_of_a_wrong_slab(monkeypatch):
    monkeypatch.setattr(suites, "KernelWalk", _SlabOfTwoKernelWalk)
    gens = random_generator_set(random.Random(2), 3, 3)
    rec = evaluate_net(gens)
    # the slabs cover exactly the full-rank stacks, where the gain is 1
    want = [(list(u), list(k)) for u, k, full in box(gens) if full]
    assert rec.oracle_mismatches == len(want) > suites._MAX_FAILURES
    assert rec.triples == (gens.m + 3) ** gens.s - 1
    assert [(f["u"], f["k"]) for f in rec.failures] == want[: suites._MAX_FAILURES]
    assert all(f["kind"] == "oracle" and (f["fast"], f["brute"], f["middle"]) == (1, "1", 2)
               for f in rec.failures)


def test_evaluate_net_tallies_bound_and_zero_region_breaches_of_a_wrong_t(monkeypatch):
    gens = random_generator_set(random.Random(4), 3, 4)
    m, wrong_t = gens.m, 0  # the net's t is larger: its bounds are breached
    assert suites.t_value(gens) > wrong_t
    monkeypatch.setattr(suites, "t_value", lambda gens: wrong_t)
    rec = evaluate_net(gens)
    want = []
    for u, k, _ in box(gens):
        gain = gain_fast(gens, SubsetIndex(u, k))
        if gain.is_zero:
            continue
        clamp = min(wrong_t + len(u) - 1, m)
        if gain.log2 > clamp:
            want.append({"kind": "chain", "u": list(u), "k": list(k), "log2": gain.log2,
                         "rank": m - gain.log2, "clamp": clamp})
        if len(u) + sum(k) <= m - wrong_t:
            want.append({"kind": "zero_region", "u": list(u), "k": list(k), "log2": gain.log2})
    assert rec.oracles_agree
    assert rec.chain_violations == sum(f["kind"] == "chain" for f in want) > 0
    assert rec.zero_region_violations == sum(f["kind"] == "zero_region" for f in want) > 0
    assert rec.failures == want[: suites._MAX_FAILURES]


class _OneSlabOfTwoKernelWalk(suites.KernelWalk):
    """Counts 2, not 1, at ``k = (1, 2)`` of ``u = (2, 3)`` only."""

    def __init__(self, gens, u, floor):
        super().__init__(gens, u, floor)
        self.u = tuple(u)

    def __iter__(self):
        for count in super().__iter__():
            yield 2 if (self.u, self.k) == ((2, 3), [1, 2]) else count


def test_evaluate_net_flags_exactly_the_cells_of_one_wrong_slab(monkeypatch):
    gens = random_generator_set(random.Random(2), 3, 3)
    full = {(u, k): f for u, k, f in box(gens)}
    # C_{(2,3),(1,2)} is the first full-rank stack with k_2 = 1: the kernel
    # route's slab there is k_2 = 1, k_3 >= 2
    assert [full[(2, 3), (1, k3)] for k3 in range(5)] == [False, False, True, True, True]
    monkeypatch.setattr(suites, "KernelWalk", _OneSlabOfTwoKernelWalk)
    rec = evaluate_net(gens)
    assert rec.oracle_mismatches == 3
    assert [(f["u"], f["k"], f["fast"], f["brute"], f["middle"]) for f in rec.failures] == [
        ([2, 3], [1, k3], 1, "1", 2) for k3 in range(2, 5)
    ]


def reference_gain(gens, u, k):
    """2^(m - rank) of C_{u,k} if the XOR of its next rows lies in its row space, else 0."""
    rows = assemble_cuk(gens, SubsetIndex(u, k)).rows
    rank = nullspace_rank(rows, gens.m)
    nxt = 0
    for j, kj in zip(u, k):
        nxt ^= gens.row(j, kj + 1)
    return 1 << (gens.m - rank) if nullspace_rank(rows + (nxt,), gens.m) == rank else 0


def visited(u, k, full):
    """Whether a walk that cuts at every full-rank stack reaches ``k``.

    It skips ``k`` iff ``C_{u,k}`` contains the rows of an earlier stack of
    full rank; the largest earlier stack it contains has one row fewer at
    the deepest nonzero coordinate of ``k``.
    """
    if not any(k):
        return True
    i = max(pos for pos, kj in enumerate(k) if kj)
    return not full[u, k[:i] + (k[i] - 1,) + k[i + 1 :]]


class _SkippingKernelWalk(suites.KernelWalk):
    """Drops the fourth count, and writes nothing at the ``k`` it belongs to."""

    def __iter__(self):
        for i, count in enumerate(super().__iter__()):
            if i != 3:
                yield count


class _SkippingStackWalk(suites.StackWalk):
    """Drops the fourth stack, and writes nothing at its ``k``."""

    def __iter__(self):
        for i, state in enumerate(super().__iter__()):
            if i != 3:
                yield state


class _ShortKernelWalk(suites.KernelWalk):
    """Stops after its fourth count."""

    def __iter__(self):
        yield from itertools.islice(super().__iter__(), 4)


class _LongKernelWalk(suites.KernelWalk):
    """Yields one count 0 past its end, at its last ``k``."""

    def __iter__(self):
        yield from super().__iter__()
        yield 0


def out_of_step_cells(gens, broken):
    """The cells a broken walk leaves wrong, in ``(|u|, u, k)`` order, with its value there."""
    full = {(u, k): f for u, k, f in box(gens)}
    cells = {}  # u -> its k in lex order
    for u, k in full:
        cells.setdefault(u, []).append(k)
    # no walk cuts before its fifth k, so its first four k are the first four cells
    assert not any(full[u, k] for u in cells for k in cells[u][:4])
    if broken in (_SkippingKernelWalk, _SkippingStackWalk):
        return [(u, ks[3], None) for u, ks in cells.items()]
    if broken is _ShortKernelWalk:
        return [(u, k, None) for u, ks in cells.items() for k in ks[4:]]
    # past its end the walk writes 0 over the slab of its last k, or that one cell
    out = []
    for u, ks in cells.items():
        last = max(k for k in ks if visited(u, k, full))
        slab = [k for k in ks if k == last or full[u, last] and k > last]
        out += [(u, k, 0) for k in slab if reference_gain(gens, u, k)]
    return out


@pytest.mark.parametrize(
    "broken", [_SkippingKernelWalk, _ShortKernelWalk, _LongKernelWalk, _SkippingStackWalk]
)
def test_evaluate_net_records_walks_out_of_step(monkeypatch, broken):
    gens = random_generator_set(random.Random(2), 2, 4)
    flagged = out_of_step_cells(gens, broken)
    rank_route = issubclass(broken, suites.StackWalk)
    monkeypatch.setattr(suites, "StackWalk" if rank_route else "KernelWalk", broken)
    rec = evaluate_net(gens)  # must not raise
    assert rec.oracle_mismatches == len(flagged) > 0
    assert rec.triples == (gens.m + 3) ** gens.s - 1
    want = []
    for u, k, wrong in flagged[: suites._MAX_FAILURES]:
        gain = reference_gain(gens, u, k)
        fast, middle = (wrong, gain) if rank_route else (gain, wrong)
        want.append({"kind": "oracle", "u": list(u), "k": list(k),
                     "fast": fast, "brute": str(gain), "middle": middle})
    assert rec.failures == want
    (suite,) = suites_from_records([rec], ["power-of-two"])
    assert not suite.passed


def test_evaluate_net_flags_the_cells_no_walk_writes(monkeypatch):
    # each route writes the cell where it cuts, not the rest of the slab
    monkeypatch.setattr(suites, "_slab", lambda k, i: k)
    gens = random_generator_set(random.Random(2), 3, 3)
    full = {(u, k): f for u, k, f in box(gens)}
    want = [(list(u), list(k)) for (u, k), f in full.items() if f and not visited(u, k, full)]
    rec = evaluate_net(gens)
    assert rec.oracle_mismatches == len(want) > suites._MAX_FAILURES
    assert rec.triples == (gens.m + 3) ** gens.s - 1
    assert [(f["u"], f["k"]) for f in rec.failures] == want[: suites._MAX_FAILURES]
    assert all((f["kind"], f["fast"], f["brute"], f["middle"]) == ("oracle", None, "1", None)
               for f in rec.failures)


def test_evaluate_net_catches_one_flipped_point_bit(monkeypatch):
    real = suites.generate_points

    def broken(gens):
        coords = real(gens).coords.copy()
        coords[5, 1] ^= 1  # last bit of point 5, coordinate 2
        return NetPoints(coords, gens.m)

    monkeypatch.setattr(suites, "generate_points", broken)
    gens = random_generator_set(random.Random(2), 2, 4)
    rec = evaluate_net(gens)
    assert rec.oracle_mismatches == 1 and not rec.oracles_agree
    (failure,) = [f for f in rec.failures if f["kind"] == "oracle"]
    assert failure["u"] == [] and "not a digital net" in failure["brute"]
    (suite,) = suites_from_records([rec], ["power-of-two"])
    assert not suite.passed


def test_evaluate_net_refuses_an_oversized_table_up_front(monkeypatch):
    def no_points(gens):
        raise AssertionError("points generated before the ceiling check")

    monkeypatch.setattr(suites, "generate_points", no_points)
    gens = GeneratorSet((BitMatrix.identity(8),) * 8)
    assert (8 + 3) ** 8 > PAIR_TABLE_CELL_LIMIT
    with pytest.raises(ResourceLimitError, match="pairwise table"):
        evaluate_net(gens)
    # one coordinate keeps the table small, but its k = 0 triple alone
    # would walk 2^25 nullspace states
    wide = GeneratorSet((BitMatrix.identity(25),))
    assert 25 + 3 <= PAIR_TABLE_CELL_LIMIT and 25 > NULLSPACE_LOG2_LIMIT
    with pytest.raises(ResourceLimitError, match="nullspace states"):
        evaluate_net(wide)
    # (2^s - 1) * 2^m states: 15 * 2^21 is over 2^24, 15 * 2^20 and 2^24 are not
    with pytest.raises(ResourceLimitError, match="nullspace states"):
        evaluate_net(GeneratorSet((BitMatrix.identity(21),) * 4))
    for s, m in ((4, 20), (1, 24)):
        with pytest.raises(AssertionError, match="points generated"):
            evaluate_net(GeneratorSet((BitMatrix.identity(m),) * s))


def test_suites_surface_failures():
    records = sweep_records(3, max_s=2, max_m=3, seed=1)
    records[1].oracle_mismatches = 1  # simulate a broken route
    results = suites_from_records(records, ["power-of-two", "t-crossval"])
    by_name = {r.name: r for r in results}
    assert not by_name["power-of-two"].passed
    assert by_name["power-of-two"].failures[0]["net"] == 1
    assert by_name["t-crossval"].passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        suites_from_records([], ["bogus"])


def test_identity_entries_start_with_maximum(shift):
    from netgains.suites import _identity_entries

    picks = _identity_entries(shift, 3)
    assert len(picks) == 3
    assert gain_fast(shift, picks[0]).log2 == 3
    assert all(isinstance(p, SubsetIndex) for p in picks)
    assert all(not gain_fast(shift, p).is_zero for p in picks)
