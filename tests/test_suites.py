"""Sweep machinery: determinism and failure surfacing."""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from gf2_reference import assemble_cuk, nullspace_rank
from oracles import minimal_counting_t
from sweep_reference import per_subset_tables
from netgains import quality, suites
from netgains.gains import ResourceLimitError, gain_fast
from netgains.gf2 import BitMatrix, PivotTable
from netgains.netgen import MAX_M, GeneratorSet, NetPoints, SubsetIndex, generate_points
from netgains.samples import sobol_net
from netgains.scramble import GainIdentityReport, ScrambleKind
from netgains.suites import (
    NULLSPACE_LOG2_LIMIT,
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


def oracles_agree(rec) -> bool:
    """The power-of-two suite's rule: no route disagrees and every value is a power of two."""
    (suite,) = suites_from_records([rec], ["power-of-two"])
    return suite.passed


def test_random_generator_shapes():
    rng = random.Random(0)
    gens = random_generator_set(rng, 3, 5)
    assert gens.s == 3 and gens.m == 5


def test_evaluate_net_counts_full_box():
    gens = GeneratorSet((BitMatrix.identity(3),))
    rec = evaluate_net(gens)
    assert rec.triples == 3 + 2  # k in 0..m+1 for the single coordinate
    assert oracles_agree(rec) and rec.attained and rec.witness_ok


def counting_t_nets(count: int):
    """Random nets with s in 1..4 and m in 1..9: fair bits in two of three,
    sparse bits in the third, and every seventh with its last matrix a copy
    of its first."""
    rng = random.Random(61)
    for i in range(count):
        s, m = rng.randint(1, 4), rng.randint(1, 9)
        density = (0.5, 0.5, 0.25)[i % 3]
        mats = [BitMatrix(m, tuple(sum(1 << b for b in range(m) if rng.random() < density)
                                   for _ in range(m)))
                for _ in range(s)]
        if i % 7 == 0:
            mats[-1] = mats[0]
        yield GeneratorSet(tuple(mats))


def test_evaluate_net_counting_t_is_the_box_count_t():
    seen = set()
    for gens in counting_t_nets(520):
        rec = evaluate_net(gens)
        want = minimal_counting_t(generate_points(gens))
        assert rec.counting_t == want == rec.t, gens
        seen.add((rec.m, want))
    assert any(t == 0 and m >= 6 for m, t in seen)
    assert any(t == m >= 6 for m, t in seen)
    assert len({t for _, t in seen}) == 10


def test_evaluate_net_counts_no_boxes(monkeypatch):
    def no_boxes(points, k):
        raise AssertionError("a dyadic box counted")

    monkeypatch.setattr(quality, "_cell_counts", no_boxes)
    for gens in counting_t_nets(30):
        rec = evaluate_net(gens)
        assert rec.counting_t == rec.t
        assert all(r.passed for r in suites_from_records([rec], list(suites.SWEEP_SUITES)))


def reference_nets():
    """300 nets for the walk tables: every sobol_net(s <= 4, m <= 7), then random nets with s in 1..4
    and m in 1..7, fair bits in two of four, sparse bits in the third, and in the fourth the first
    rows dependent, the first row of the last matrix the XOR of the others'; every fifth random net
    has its last matrix a copy of its first."""
    yield from (sobol_net(s, m) for s in range(1, 5) for m in range(1, 8))
    rng = random.Random(73)
    for i in range(300 - 28):
        s, m = rng.randint(1, 4), rng.randint(1, 7)
        density = (0.5, 0.5, 0.2, 0.5)[i % 4]
        rows = [[sum(1 << b for b in range(m) if rng.random() < density) for _ in range(m)]
                for _ in range(s)]
        if i % 4 == 3:
            rows[-1][0] = 0
            for mat in rows[:-1]:
                rows[-1][0] ^= mat[0]
        if i % 5 == 0:
            rows[-1] = rows[0]
        yield GeneratorSet(tuple(BitMatrix(m, tuple(r)) for r in rows))


def test_walk_tables_match_the_per_subset_walks(monkeypatch):
    real = suites._least_gain_total
    leasts = []

    def least_of_the_walk(gens, *args):
        leasts.append(real(gens, *args))
        return leasts[-1]

    monkeypatch.setattr(suites, "_least_gain_total", least_of_the_walk)
    seen = set()
    for gens in reference_nets():
        log2, counts = per_subset_tables(gens)
        rank_cells = suites._rank_cells(gens)
        assert rank_cells.dtype == np.int8 and np.array_equal(rank_cells, log2), gens
        null_cells = suites._null_cells(gens)
        assert null_cells.dtype == np.int32 and np.array_equal(null_cells, counts), gens
        # the visits and slabs keep the walk's own answer: the least total of a gain, m + 1 - t
        assert leasts.pop() == gens.m + 1 - quality.t_value(gens)
        seen.add((gens.s, bool((log2 == 0).any())))
    assert seen == {(s, slab) for s in range(1, 5) for slab in (False, True)}  # with and without gain-1 cells


def test_the_rank_route_walks_no_stack_walk(monkeypatch):
    class NullOnly(suites.StackWalk):
        def __init__(self, gens, u, floor, budget, table=None):
            super().__init__(gens, u, floor, budget, table)
            if isinstance(self.table, PivotTable):
                raise AssertionError("a StackWalk on a PivotTable")

    nets = list(itertools.islice(reference_nets(), 0, None, 10))
    want = [evaluate_net(gens) for gens in nets]
    monkeypatch.setattr(suites, "StackWalk", NullOnly)
    assert [evaluate_net(gens) for gens in nets] == want


def test_the_largest_admitted_box_is_within_the_t_search_limit():
    # the rank route's walk tests each stack of [0, m + 1]^s once at most, a visit or a slab;
    # past s = 23 the pairwise table alone is refused, as (m + 3)^s > 2^22
    stacks_of = {}
    for s in range(1, 24):
        for m in range(1, MAX_M + 1):
            try:
                suites._refuse_net(s, m, "")
            except ResourceLimitError:
                continue
            stacks_of[s, m] = quality._box_counts(s, m + 1, s * (m + 1))[s]
    largest = max(stacks_of, key=stacks_of.get)
    assert largest == (5, 18) and stacks_of[largest] == 20**5 < quality.T_SEARCH_LIMIT


def test_evaluate_net_catches_one_wrong_pair_table_entry(monkeypatch):
    real = suites.gain_pair_table

    def broken(points):
        table = real(points)
        table[0, 1 + 3] += 1  # one pair too many at u = (2,), k = 3
        return table

    monkeypatch.setattr(suites, "gain_pair_table", broken)
    gens = random_generator_set(random.Random(2), 2, 4)
    rec = evaluate_net(gens)
    assert rec.oracle_mismatches == 1 and not oracles_agree(rec)
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


def stacks(gens):
    """Every all-coordinate ``k`` in ``[0, m + 1]^s``, in lexicographic order, with whether C_{1:s,k} has full rank."""
    s, m = gens.s, gens.m
    full = {}
    for k in itertools.product(range(m + 2), repeat=s):
        u = tuple(j for j, kj in enumerate(k, 1) if kj)
        rows = assemble_cuk(gens, SubsetIndex(u, [kj for kj in k if kj])).rows if u else ()
        full[k] = nullspace_rank(rows, m) == m
    return full


def reached(k, full):
    """Whether a walk over all coordinates that cuts at every full-rank stack reaches ``k``.

    It skips ``k`` iff ``k`` lies in the slab of an earlier full-rank
    stack, so iff ``k`` less one row at its deepest nonzero coordinate has
    full rank: that stack lies in the same slab, or is where the walk cut.
    """
    if not any(k):
        return True
    i = max(pos for pos, kj in enumerate(k) if kj)
    return not full[k[:i] + (k[i] - 1,) + k[i + 1 :]]


def pad(gens, u, k):
    """The all-coordinate stack of the cell ``(u, k)``: ``k`` with a zero at each coordinate outside ``u``."""
    depth = dict(zip(u, k))
    return tuple(depth.get(j, 0) for j in range(1, gens.s + 1))


def cells_of(k):
    """The cells ``(u, k_u)`` of the all-coordinate stack ``k``, every ``u`` containing its support.

    They come in the walks' doubling order: a free coordinate's subsets are
    those before it, then the same with it added.  At ``k = 0`` the first
    is the origin, ``u`` empty.
    """
    chosen = [()]
    for j, kj in enumerate(k, 1):
        if not kj:
            chosen += [c + (j,) for c in chosen]
    for extra in chosen:
        u = tuple(sorted({j for j, kj in enumerate(k, 1) if kj} | set(extra)))
        yield u, tuple(k[j - 1] for j in u)


def counted_cells(gens):
    """The cells the nullspace route counts one by one, in its order: every cell of each stack
    of rank < m its walk reaches, the origin too."""
    full = stacks(gens)
    return [cell for k, f in full.items() if reached(k, full) and not f for cell in cells_of(k)]


def test_evaluate_net_catches_one_wrong_signed_count(monkeypatch):
    real = suites._signed_counts
    counted = []

    def broken(basis, nxts):
        counts = real(basis, nxts)
        before = len(counted)
        counted.extend(counts)
        if before < 7 <= len(counted):  # the 7th count is one off
            counts[6 - before] += 1
        return counts

    monkeypatch.setattr(suites, "_signed_counts", broken)
    gens = random_generator_set(random.Random(2), 2, 4)
    rec = evaluate_net(gens)
    # one signed count per cell of a stack of rank < m; a slab of empty nullspaces counts 1 without one
    cells = counted_cells(gens)
    assert len(counted) == len(cells) < rec.triples
    assert rec.oracle_mismatches == 1 and not oracles_agree(rec)
    (failure,) = [f for f in rec.failures if f["kind"] == "oracle"]
    assert (tuple(failure["u"]), tuple(failure["k"])) == cells[6]
    assert failure["middle"] == failure["fast"] + 1
    assert failure["brute"] == str(Fraction(failure["fast"]))
    (suite,) = suites_from_records([rec], ["power-of-two"])
    assert not suite.passed


class _SlabOfTwoKernelWalk(suites.StackWalk):
    """Reports rank ``m - 1`` where the rank is ``m`` and :meth:`wrong` holds.

    Only the nullspace route walks a StackWalk.  It then neither cuts nor
    writes its slab there, but counts each cell of an empty nullspace
    itself; :func:`empty_nullspaces_count_two` makes that count 2, not the
    1 of the slabs.
    """

    def __init__(self, gens, u, floor, budget, table=None):
        super().__init__(gens, u, floor, budget, table)
        self.m = gens.m

    def wrong(self):
        return True

    def __iter__(self):
        for depth, rank, nxt in super().__iter__():
            yield depth, rank - (rank == self.m and self.wrong()), nxt


def empty_nullspaces_count_two(monkeypatch):
    real = suites._signed_counts
    monkeypatch.setattr(suites, "_signed_counts",
                        lambda basis, nxts: real(basis, nxts) if basis else [2] * (1 << len(nxts) - 1))


def test_evaluate_net_flags_every_cell_of_a_wrong_slab(monkeypatch):
    monkeypatch.setattr(suites, "StackWalk", _SlabOfTwoKernelWalk)
    empty_nullspaces_count_two(monkeypatch)
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
        if gain.log2 is None:
            continue
        clamp = min(wrong_t + len(u) - 1, m)
        if gain.log2 > clamp:
            want.append({"kind": "chain", "u": list(u), "k": list(k), "log2": gain.log2,
                         "rank": m - gain.log2, "clamp": clamp})
        if len(u) + sum(k) <= m - wrong_t:
            want.append({"kind": "zero_region", "u": list(u), "k": list(k), "log2": gain.log2})
    assert oracles_agree(rec)
    assert rec.chain_violations == sum(f["kind"] == "chain" for f in want) > 0
    assert rec.zero_region_violations == sum(f["kind"] == "zero_region" for f in want) > 0
    assert rec.failures == want[: suites._MAX_FAILURES]


class _OneSlabOfTwoKernelWalk(_SlabOfTwoKernelWalk):
    """Wrong at ``k_1 = 0, k_2 = 1`` only: from ``k = (0, 1, 2)`` on, the one slab there."""

    def wrong(self):
        return self.k[:2] == [0, 1]


def test_evaluate_net_flags_exactly_the_cells_of_one_wrong_slab(monkeypatch):
    gens = random_generator_set(random.Random(2), 3, 3)
    full = stacks(gens)
    # C_{1:3,(0,1,2)} is the first full-rank stack with k_1 = 0 and k_2 = 1: the kernel
    # route's slab there is k_1 = 0, k_2 = 1, k_3 >= 2, and its cells have u = (2, 3) or (1, 2, 3)
    assert [full[0, 1, k3] for k3 in range(5)] == [False, False, True, True, True]
    monkeypatch.setattr(suites, "StackWalk", _OneSlabOfTwoKernelWalk)
    empty_nullspaces_count_two(monkeypatch)
    rec = evaluate_net(gens)
    assert rec.oracle_mismatches == 6
    assert [(f["u"], f["k"], f["fast"], f["brute"], f["middle"]) for f in rec.failures] == [
        ([2, 3], [1, k3], 1, "1", 2) for k3 in range(2, 5)
    ] + [([1, 2, 3], [0, 1, k3], 1, "1", 2) for k3 in range(2, 5)]


def reference_gain(gens, u, k):
    """2^(m - rank) of C_{u,k} if the XOR of its next rows lies in its row space, else 0."""
    rows = assemble_cuk(gens, SubsetIndex(u, k)).rows
    rank = nullspace_rank(rows, gens.m)
    nxt = 0
    for j, kj in zip(u, k):
        nxt ^= gens.row(j, kj + 1)
    return 1 << (gens.m - rank) if nullspace_rank(rows + (nxt,), gens.m) == rank else 0


class _BrokenWalk(suites.StackWalk):
    """Breaks its states by :meth:`broken`; the nullspace route's walk."""

    @classmethod
    def plant(cls, monkeypatch):
        monkeypatch.setattr(suites, "StackWalk", cls)

    def __iter__(self):
        return self.broken(super().__iter__())


class _SkippingKernelWalk(_BrokenWalk):
    """Drops the fourth state, and the nullspace route writes nothing at its ``k``."""

    def broken(self, states):
        return (state for i, state in enumerate(states) if i != 3)


class _SkippingStackWalk:
    """The rank route's walk of stacks skips its fourth visit, and writes nothing at its ``k``."""

    rank_route = True

    @staticmethod
    def plant(monkeypatch):
        real = suites._least_gain_total

        def skipping(gens, u, floor, table_depth, visit, slab):
            visits = itertools.count()
            return real(gens, u, floor, table_depth,
                        lambda *state: 0 if next(visits) == 3 else visit(*state), slab)

        monkeypatch.setattr(suites, "_least_gain_total", skipping)


class _ShortKernelWalk(_BrokenWalk):
    """Stops after its fourth state."""

    def broken(self, states):
        return itertools.islice(states, 4)


class _LongKernelWalk(_BrokenWalk):
    """Yields one state past its end, at its last ``k``: rank 0 and next row 1.

    Every push is undone by then, so the nullspace is all of GF(2)^m: the
    route counts ``2^m`` at a ``u`` whose next rows XOR to 0, and 0
    elsewhere, at the cells of that one stack.
    """

    def broken(self, states):
        yield from states
        yield 0, 0, 1


def out_of_step_cells(gens, broken):
    """The cells a broken walk leaves wrong, in ``(|u|, u, k)`` order, with its value there."""
    full = stacks(gens)
    order = list(full)
    # no walk cuts before its fifth k, so it writes the cells of the first four one by one
    assert not any(full[k] for k in order[:4])
    if broken in (_SkippingKernelWalk, _SkippingStackWalk):
        out = [(u, k, None) for u, k in cells_of(order[3])]
    elif broken is _ShortKernelWalk:
        out = [(u, k, None) for stack in order[4:] for u, k in cells_of(stack)]
    else:  # past its end the walk counts its last k again on the whole space
        out = []
        for u, k in cells_of(max(stack for stack in order if reached(stack, full))):
            nxt = 0
            for j, kj in zip(u, k):
                nxt ^= gens.row(j, kj + 1)
            wrong = 0 if nxt else 1 << gens.m
            out += [(u, k, wrong)] if wrong != reference_gain(gens, u, k) else []
    return sorted(out, key=lambda cell: (len(cell[0]), cell[0], cell[1]))


@pytest.mark.parametrize(
    "broken", [_SkippingKernelWalk, _ShortKernelWalk, _LongKernelWalk, _SkippingStackWalk]
)
def test_evaluate_net_records_walks_out_of_step(monkeypatch, broken):
    gens = random_generator_set(random.Random(2), 2, 4)
    flagged = out_of_step_cells(gens, broken)
    rank_route = getattr(broken, "rank_route", False)
    broken.plant(monkeypatch)
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
    # each route writes the cells of the stack where it cuts, not the rest of the slab
    monkeypatch.setattr(suites, "_slab_cells", lambda k, i: tuple(1 + kj if kj else slice(2) for kj in k))
    gens = random_generator_set(random.Random(2), 3, 3)
    full = stacks(gens)
    want = [(list(u), list(k)) for u, k, f in box(gens) if f and not reached(pad(gens, u, k), full)]
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
    assert rec.oracle_mismatches == 1 and not oracles_agree(rec)
    (failure,) = [f for f in rec.failures if f["kind"] == "oracle"]
    assert failure["u"] == [] and "not a digital net" in failure["brute"]
    (suite,) = suites_from_records([rec], ["power-of-two"])
    assert not suite.passed
    # no pairwise table, so no points-only t to set against the rank t
    assert rec.counting_t is None
    (crossval,) = suites_from_records([rec], ["t-crossval"])
    assert not crossval.passed
    assert crossval.failures == [{"net": 0, "s": 2, "m": 4, "t": rec.t, "counting_t": None}]


def test_evaluate_net_fails_a_witness_of_another_gain(monkeypatch):
    gens = random_generator_set(random.Random(5), 3, 4)
    closed, _ = suites.max_gain(gens)
    box = [SubsetIndex(u, k) for r in (1, 2, 3) for u in itertools.combinations((1, 2, 3), r)
           for k in itertools.product(range(gens.m + 2), repeat=r)]
    wrong = next(idx for idx in box if gain_fast(gens, idx).log2 != closed.log2)
    monkeypatch.setattr(suites, "max_gain", lambda g: (closed, wrong))
    rec = evaluate_net(gens)
    assert rec.attained and not rec.witness_ok
    (suite,) = suites_from_records([rec], ["attainment"])
    assert not suite.passed
    assert suite.failures == [{"net": 0, "s": 3, "m": 4, "enum_max_log2": closed.log2,
                               "closed_form_log2": closed.log2, "witness_ok": False}]


def test_evaluate_net_refuses_an_oversized_table_up_front(monkeypatch):
    def no_points(gens):
        raise AssertionError("points generated before the ceiling check")

    monkeypatch.setattr(suites, "generate_points", no_points)
    gens = GeneratorSet((BitMatrix.identity(8),) * 8)
    assert (8 + 3) ** 8 > PAIR_TABLE_CELL_LIMIT
    with pytest.raises(ResourceLimitError, match="pairwise table"):
        evaluate_net(gens)
    # one coordinate keeps the table small, but its 2^25 points, the nullspace
    # states of its k = 0 triple, are past the ceiling
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
    assert all(gain_fast(shift, p).log2 is not None for p in picks)


def test_a_suite_passes_iff_it_has_no_failures():
    result = suites.SuiteResult("gain-identity", 3)
    assert result.passed and result.to_json_dict()["pass"] is True
    result.failures.append({"net": 0})
    assert not result.passed and result.to_json_dict()["pass"] is False
    failed = suites.SuiteResult("power-of-two", 1, [{"net": 0}])
    assert not failed.passed and failed.to_json_dict()["pass"] is False


def verify_manifest(capsys, *argv) -> dict:
    """The one suite of a ``verify`` that must fail: exit 3, and its manifest entry."""
    from netgains.cli import EXIT_SUITE, main

    assert main(["--json", "--seed", "5", "verify", *argv]) == EXIT_SUITE
    payload = json.loads(capsys.readouterr().out)
    (suite,) = payload["suites"]
    assert payload["pass"] is False and suite["pass"] is False
    return suite


def test_net_preservation_suite_lists_the_scramble_that_broke_a_net(monkeypatch, capsys):
    # the suite counts 100 seeds of each kind on the shift net (s = 4), then on sobol_2d
    calls = []

    def fails_once(net, t):
        calls.append(net.s)
        return calls.count(2) != 100 + 8  # sobol_2d, the second kind, the eighth seed

    monkeypatch.setattr(suites, "verify_net_by_counting", fails_once)
    entry = {"fixture": "sobol_2d", "kind": list(ScrambleKind)[1].value, "seed": 5 + 7}
    result = suites.net_preservation_suite(seed0=5)
    assert not result.passed and result.checked == len(calls) == 600
    assert result.failures == [entry]
    calls.clear()
    assert verify_manifest(capsys, "--suite", "net-preservation") == {
        "suite": "net-preservation", "pass": False, "checked": 600, "failures": [entry]}


def test_gain_identity_suite_lists_the_report_of_a_failed_entry(monkeypatch, capsys):
    reports = []

    def fails_second(gens, idx, replicates, spec):
        reports.append(GainIdentityReport(idx, ScrambleKind(spec.kind), gain_fast(gens, idx).log2,
                                          empirical_n_var=9.5, mc_se=0.25, passed=len(reports) != 1,
                                          replicates=replicates))
        return reports[-1]

    monkeypatch.setattr(suites, "verify_gain_identity", fails_second)
    result = suites.gain_identity_suite(10, seed=5)
    assert not result.passed and result.checked == len(reports) == suites._IDENTITY_ENTRIES
    assert result.failures == [reports[1].to_json_dict()]
    assert result.failures[0]["pass"] is False and result.failures[0]["replicates"] == 10
    reports.clear()
    suite = verify_manifest(capsys, "--suite", "gain-identity", "--reps", "10")
    assert suite == {"suite": "gain-identity", "pass": False, "checked": 3, "failures": [reports[1].to_json_dict()]}
