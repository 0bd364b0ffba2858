"""Gain coefficients: three routes, bounds, the closed-form maximum."""

import importlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from gf2_reference import assemble_cuk, nullspace_of_rows, nullspace_rank, row_reduce
from oracles import gain_bounds
from netgains import gains, quality
from netgains.gains import (
    PAIR_TABLE_CELL_LIMIT,
    GainValue,
    NullTable,
    ResourceLimitError,
    _signed_count,
    enumerate_gains,
    gain_bruteforce,
    gain_fast,
    gain_pair_table,
    gain_representation,
    max_gain,
)
from netgains.gf2 import BitMatrix, PivotTable
from netgains.netgen import GeneratorSet, NetPoints, StackWalk, SubsetIndex, generate_points
from netgains.quality import t_value
from netgains.samples import shift_net, sobol_net
from netgains.scramble import ScrambleKind, ScrambleSpec, scramble
from netgains.suites import random_generator_set


def random_index(rng: random.Random, gens: GeneratorSet) -> SubsetIndex:
    size = rng.randint(1, gens.s)
    u = tuple(sorted(rng.sample(range(1, gens.s + 1), size)))
    return SubsetIndex(u, tuple(rng.randint(0, gens.m + 1) for _ in u))


# --- GainValue ------------------------------------------------------------------

def test_gain_value_semantics():
    zero = GainValue.zero()
    eight = GainValue(3)
    assert zero.log2 is None and zero.as_int == 0
    assert eight.as_int == 8
    assert str(zero) == "0" and str(eight) == "2^3"


# --- gain_fast -------------------------------------------------------------------

def test_shift_net_attains_eight(shift):
    value, witness = max_gain(shift)
    assert value == GainValue(3)
    assert gain_fast(shift, witness) == GainValue(3)


def test_full_rank_next_depth_means_zero(shift, sobol2d):
    rng = random.Random(4)
    for gens in (shift, sobol2d):
        checked = 0
        for _ in range(300):
            idx = random_index(rng, gens)
            bumped = SubsetIndex(idx.u, tuple(kj + 1 for kj in idx.k))
            stacked = assemble_cuk(gens, bumped)
            if nullspace_rank(stacked.rows, gens.m) == stacked.nrows:
                checked += 1
                assert gain_fast(gens, idx).log2 is None
        assert checked > 20


def test_identity_tail_gain_is_one(identity_net):
    m = 5
    assert gain_fast(identity_net(m), SubsetIndex((1,), (m,))) == GainValue(0)


# --- gain_bruteforce ---------------------------------------------------------------

def test_bruteforce_shift_witness(shift, shift_points):
    _, witness = max_gain(shift)
    assert gain_bruteforce(shift_points, witness) == Fraction(8)


def test_bruteforce_identity_tail(identity_net):
    m = 5
    pts = generate_points(identity_net(m))
    assert gain_bruteforce(pts, SubsetIndex((1,), (m,))) == 1


def test_bruteforce_zero_region(sobol2d, sobol2d_points):
    # t = 0 here, so any |u| + |k| <= m forces an exact zero
    t = t_value(sobol2d)
    rng = random.Random(9)
    for _ in range(100):
        idx = random_index(rng, sobol2d)
        if idx.order + idx.depth <= sobol2d.m - t:
            assert gain_bruteforce(sobol2d_points, idx) == 0


def test_bruteforce_validates_subset(shift_points):
    with pytest.raises(ValueError):
        gain_bruteforce(shift_points, SubsetIndex((5,), (0,)))


def test_bruteforce_refuses_a_subset_past_s_as_the_walks_do(shift_points):
    message = r"^u must be nonempty coordinates in 1\.\.4, increasing, got u=\(5,\) for s=4$"
    with pytest.raises(ValueError, match=message):
        gain_bruteforce(shift_points, SubsetIndex((5,), (1,)))


def test_bruteforce_agrees_with_the_other_routes_past_m_plus_one():
    # identical coordinates agree past every depth, so all three routes are
    # stationary from m + 1 on, however deep k_j goes
    rng = random.Random(61)
    nets = [shift_net()] + [random_generator_set(rng, rng.randint(1, 3), rng.randint(1, 5)) for _ in range(6)]
    for gens in nets:
        pts = generate_points(gens)
        for deep in (gens.m + 2, (1 << 14) - 1, 1 << 14, (1 << 14) + 1, 20_000):
            for j in range(1, gens.s + 1):
                u = tuple(sorted({j, rng.randint(1, gens.s)}))
                k = tuple(deep if i == j else rng.randint(0, gens.m + 1) for i in u)
                for idx in (SubsetIndex((j,), (deep,)), SubsetIndex(u, k)):
                    want = gain_fast(gens, idx).as_int
                    assert gain_representation(gens, idx) == want
                    assert gain_bruteforce(pts, idx) == want, (gens.m, idx)


def test_bruteforce_chunked_path_agrees():
    # n = 4096 spans eight row blocks of the pairwise sum
    rng = random.Random(8)
    m = 12
    mats = tuple(
        BitMatrix(m, tuple(rng.randrange(1 << m) for _ in range(m))) for _ in range(2)
    )
    gens = GeneratorSet(mats)
    pts = generate_points(gens)
    table = gain_pair_table(pts)
    for idx in (SubsetIndex((1, 2), (6, 5)), SubsetIndex((2,), (3,))):
        brute = gain_bruteforce(pts, idx)
        assert brute == gain_fast(gens, idx).as_int
        pairs = table[subset_view(idx.u, gens.s)]
        assert Fraction(int(pairs[idx.k]), pts.n) == brute
        for k in product(range(m + 2), repeat=idx.order):
            assert int(pairs[k]) == pts.n * gain_fast(gens, SubsetIndex(idx.u, k)).as_int


def subset_view(u, s):
    """Index of the pair table's cells for subset ``u``: axis 0 of the others."""
    return tuple(slice(1, None) if j in u else 0 for j in range(1, s + 1))


def pair_table_points():
    rng = random.Random(29)
    nets = [shift_net()]
    nets += [random_generator_set(rng, rng.randint(1, 3), rng.randint(1, 5)) for _ in range(30)]
    for gens in nets:
        yield pytest.param(generate_points(gens), id=f"s{gens.s}m{gens.m}")
    # a digital shift or a random linear scramble keeps x(i) ^ x(0) linear in i
    for kind in (ScrambleKind.DIGITAL_SHIFT_ONLY, ScrambleKind.RANDOM_LINEAR):
        for seed, gens in enumerate(nets[:6]):
            spec = ScrambleSpec(kind=kind, output_bits=gens.m, seed=seed)
            points = scramble(generate_points(gens), spec).to_net_points()
            yield pytest.param(points, id=f"{kind.value}{seed}-s{gens.s}m{gens.m}")


@pytest.mark.parametrize("pts", list(pair_table_points()))
def test_pair_table_matches_bruteforce_everywhere(pts):
    s, m = pts.s, pts.m
    table = gain_pair_table(pts)
    assert table.shape == (m + 3,) * s and table.dtype == np.int64
    assert table[(0,) * s] == pts.n**2  # empty u: every pair adds 1
    for r in range(1, s + 1):
        for u in combinations(range(1, s + 1), r):
            pairs = table[subset_view(u, s)]
            assert pairs.shape == (m + 2,) * r
            for k in product(range(m + 2), repeat=r):
                assert Fraction(int(pairs[k]), pts.n) == gain_bruteforce(pts, SubsetIndex(u, k))


def test_pair_table_refuses_points_that_are_no_digital_net(shift_points):
    spec = ScrambleSpec(kind=ScrambleKind.NESTED_UNIFORM, output_bits=shift_points.m, seed=3)
    nested = scramble(shift_points, spec).to_net_points()
    with pytest.raises(ValueError, match="not a digital net"):
        gain_pair_table(nested)


def test_pair_table_checks_every_block():
    rng = random.Random(31)
    gens = random_generator_set(rng, 2, 10)  # blocks of 2^7 rows
    pts = generate_points(gens)
    table = gain_pair_table(pts)
    for _ in range(6):
        idx = random_index(rng, gens)
        view = table[subset_view(idx.u, 2)][idx.k]
        assert Fraction(int(view), pts.n) == gain_bruteforce(pts, idx)
    coords = pts.coords.copy()
    coords[-1, 1] ^= 1
    with pytest.raises(ValueError, match="not a digital net"):
        gain_pair_table(NetPoints(coords, pts.m))


def test_pair_table_temporaries_stay_below_the_points():
    import tracemalloc

    pts = generate_points(random_generator_set(random.Random(0), 1, 20))
    tracemalloc.start()
    try:
        gain_pair_table(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pts.coords.nbytes == 8 << 20
    assert peak <= pts.coords.nbytes


def test_pair_table_past_its_ceiling_is_refused_before_allocating(monkeypatch):
    import tracemalloc

    # 11^8 int64 cells, 1.7 GB before the contraction's temporaries
    pts = generate_points(random_generator_set(random.Random(0), 8, 8))
    assert (8 + 3) ** 8 > PAIR_TABLE_CELL_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"^pairwise table of s=8, m=8 has 11\^8 cells "):
            gain_pair_table(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the ceiling is on the (m + 3)^s cells: 5^3 at s = 3, m = 2
    small = generate_points(random_generator_set(random.Random(1), 3, 2))
    monkeypatch.setattr(gains, "PAIR_TABLE_CELL_LIMIT", 5**3)
    assert gain_pair_table(small).shape == (5, 5, 5)
    monkeypatch.setattr(gains, "PAIR_TABLE_CELL_LIMIT", 5**3 - 1)
    with pytest.raises(ResourceLimitError, match=r"5\^3 cells \(limit 124\)"):
        gain_pair_table(small)


# --- gain_representation -------------------------------------------------------------

def test_representation_shift_witness(shift):
    _, witness = max_gain(shift)
    assert gain_representation(shift, witness) == 8


def test_representation_matches_bruteforce_thousand_cases():
    rng = random.Random(31)
    cases = 0
    while cases < 1000:
        gens = random_generator_set(rng, rng.randint(1, 3), rng.randint(2, 5))
        pts = generate_points(gens)
        for _ in range(25):
            idx = random_index(rng, gens)
            assert gain_representation(gens, idx) == gain_bruteforce(pts, idx)
            cases += 1


def test_representation_cancels_on_full_rank(identity_net):
    # next-depth stack of the identity has full rank below the diagonal end
    gens = identity_net(5)
    assert gain_representation(gens, SubsetIndex((1,), (2,))) == 0


def test_representation_has_no_nullspace_ceiling(identity_net):
    # the zero net's nullspaces are whole, and its next rows zero: 2^26 terms, all +1
    wide = GeneratorSet((BitMatrix(26, (0,) * 26),))
    idx = SubsetIndex((1,), (1,))
    assert gain_representation(wide, idx) == 1 << 26 == gain_fast(wide, idx).as_int
    # twin identities at equal depths: rank k and next rows that cancel, gain 2^(32 - k)
    twin = identity_net(32, 2)
    assert gain_representation(twin, SubsetIndex((1, 2), (1, 1))) == 1 << 31
    rng = random.Random(41)
    nets = [random_generator_set(rng, s, 32) for s in (1, 2, 3)] + [identity_net(32), twin]
    for gens in nets:
        for _ in range(20):
            idx = random_index(rng, gens)
            assert gain_representation(gens, idx) == gain_fast(gens, idx).as_int


# --- the kernel walk: a StackWalk on a NullTable ------------------------------------

def kernel_walk(gens: GeneratorSet, u, floor) -> StackWalk:
    """The walk of the nullspace route over the whole box ``[floor, m + 1]``."""
    return StackWalk(gens, u, floor, len(u) * (gens.m + 1), NullTable(gens.m))


def counts(walk: StackWalk):
    """Per visited ``k``: the signed count over the walk's current nullspace."""
    for _, _, nxt in walk:
        yield _signed_count(walk.table.basis, nxt)


def brute_signed_count(gens: GeneratorSet, u, k) -> int:
    """Sum over all x with C_{u,k} x = 0 of -1 to the number of next rows x trips."""
    rows = assemble_cuk(gens, SubsetIndex(u, k)).rows
    nexts = [gens.row(j, kj + 1) for j, kj in zip(u, k)]
    total = 0
    for x in range(1 << gens.m):
        if not any((row & x).bit_count() & 1 for row in rows):
            total += (-1) ** sum((g & x).bit_count() & 1 for g in nexts)
    return total


def kernel_walk_nets(rng: random.Random) -> list[GeneratorSet]:
    nets = [random_generator_set(rng, rng.randint(1, 3), m) for m in range(1, 11)]
    for m in (3, 6, 9):
        a, b = random_generator_set(rng, 2, m).matrices
        zero = BitMatrix(m, (0,) * m)
        nets += [GeneratorSet((a, a, b)), GeneratorSet((zero, a)), GeneratorSet((b, zero, b))]
    return nets


def test_kernel_walk_matches_from_scratch_nullspaces():
    rng = random.Random(53)
    visits = 0
    for gens in kernel_walk_nets(rng):
        m, cap = gens.m, gens.m + 1
        for _ in range(4):
            size = rng.randint(1, gens.s)
            u = tuple(sorted(rng.sample(range(1, gens.s + 1), size)))
            floor = tuple(rng.randint(0, cap) for _ in u)
            # deep floors reach k_j = m + 1; few checks past m = 6 keep the brute force cheap
            budget = sum(floor) + rng.randint(0, 2 if m > 6 else size * cap)
            walk = kernel_walk(gens, u, floor)
            seen = []
            for depth, rank, nxt in walk:
                k = tuple(walk.k)
                seen.append(k)
                if sum(k) > budget:
                    continue
                visits += 1
                basis = walk.table.basis
                stack = assemble_cuk(gens, SubsetIndex(u, k))
                rows = stack.rows
                null = nullspace_of_rows(rows, m)
                target = 0
                for j, kj in zip(u, k):
                    target ^= gens.row(j, kj + 1)
                assert depth == sum(k) and nxt == target
                assert len(basis) == len(null) == m - row_reduce(stack).rank == m - rank
                assert nullspace_rank(basis, m) == len(basis)
                assert all(not (row & v).bit_count() & 1 for row in rows for v in basis)
                assert _signed_count(basis, nxt) == brute_signed_count(gens, u, k)
            want = [
                k
                for k in product(range(cap + 1), repeat=size)
                if all(a >= b for a, b in zip(k, floor))
            ]
            assert seen == want
            assert walk.table.log == [] and len(walk.table.basis) == m  # every push undone
    assert visits > 500


def test_kernel_walk_cut_skips_exactly_its_slab():
    # cut walks against uncut ones: each cut must skip just the k' equal to k
    # before the cut level i and at least k[i] at it
    rng = random.Random(29)
    cuts = {"first state": 0, "last coordinate": 0, "floor > 0": 0, "empty basis": 0}
    for trial in range(150):
        gens = random_generator_set(rng, rng.randint(1, 3), rng.randint(1, 5))
        cap = gens.m + 1
        size = rng.randint(1, gens.s)
        u = tuple(sorted(rng.sample(range(1, gens.s + 1), size)))
        floor = tuple(rng.randint(0, 2) for _ in u)
        uncut = kernel_walk(gens, u, floor)
        full = {tuple(uncut.k): (count, uncut.table.basis) for count in counts(uncut)}
        walk = kernel_walk(gens, u, floor)
        seen = []
        for count in counts(walk):
            k = tuple(walk.k)
            basis = walk.table.basis
            assert (count, basis) == full[k]
            if not (rng.random() < 0.3 or (trial % 5 == 0 and not seen) or not basis):
                seen.append(k)
                continue
            i = walk.cut()
            assert i == max((j for j in range(size) if k[j] > floor[j]), default=0)
            tails = product(range(k[i], cap + 1), *(range(f, cap + 1) for f in floor[i + 1 :]))
            slab = [k[:i] + tail for tail in tails]
            if not basis:  # the cut of evaluate_net: count 1 on the whole slab
                assert all(full[kk] == (1, []) for kk in slab)
                cuts["empty basis"] += 1
            seen += slab
            cuts["first state"] += not seen[: -len(slab)] and k == floor
            cuts["last coordinate"] += size > 1 and i == size - 1
            cuts["floor > 0"] += any(floor)
            assert gain_representation(gens, SubsetIndex(u, k)) == count
        assert seen == list(full)
    assert min(cuts.values()) >= 20, cuts


def test_kernel_walk_counts_a_nullspace_of_any_size(identity_net):
    gens = identity_net(5)
    walk = kernel_walk(gens, (1,), (1,))
    assert list(counts(walk)) == [0, 0, 0, 0, 1, 1]  # nullspaces of dimension 4, 3, 2, 1, 0, 0
    assert gain_representation(gens, SubsetIndex((1,), (1,))) == 0
    assert gain_representation(gens, SubsetIndex((1,), (5 + 5,))) == 1
    zero = GeneratorSet((BitMatrix(26, (0,) * 26),))
    assert list(counts(kernel_walk(zero, (1,), (0,)))) == [1 << 26] * 28
    # every k of twin identities at m = 32, against the rank route
    twin = identity_net(32, 2)
    walk = kernel_walk(twin, (1, 2), (0, 0))
    want = [gain_fast(twin, SubsetIndex((1, 2), tuple(walk.k))).as_int for _ in walk]
    assert list(counts(kernel_walk(twin, (1, 2), (0, 0)))) == want
    assert want.count(1 << 31) == 1 and len(want) == 34 * 34


def test_kernel_walk_validates_arguments(shift):
    # u and the floor's length: test_netgen::test_both_walks_refuse_a_bad_u_or_floor_length
    with pytest.raises(ValueError, match="floor entries"):
        kernel_walk(shift, (1,), (shift.m + 2,))


def test_null_table_tracks_a_pivot_table_through_pushes_and_undos():
    # random pushes, and undos back to marks taken on the way as a walk takes them
    rng = random.Random(67)
    undos = 0
    for _ in range(300):
        m = rng.randint(1, 9)
        null, pivots = NullTable(m), PivotTable(m)
        rows, marks = [], [(0, 0)]  # (rank, rows pushed) at each mark
        for _ in range(rng.randint(1, 3 * m)):
            if rng.random() < 0.25:
                i = rng.randrange(len(marks))
                rank, pushed = marks[i]
                del marks[i + 1 :], rows[pushed:]
                null.undo(rank)
                pivots.undo(rank)
                undos += 1
            else:
                if rng.random() < 0.3:
                    marks.append((len(null.log), len(rows)))
                row = rng.choice([0, rng.randrange(1 << m), *rows[-2:]])  # some rows repeat
                rows.append(row)
                assert null.push(row) == pivots.push(row)
            assert len(null.log) == pivots.rank == nullspace_rank(rows, m)
            basis = null.basis
            assert len(basis) == m - pivots.rank == len(nullspace_of_rows(rows, m))
            assert nullspace_rank(basis, m) == len(basis)  # independent
            assert all(not (row & v).bit_count() & 1 for row in rows for v in basis)
    assert undos > 300


# --- max_gain -------------------------------------------------------------------------

def test_max_gain_identity_is_one(identity_net):
    value, witness = max_gain(identity_net(4))
    assert value == GainValue(0)
    assert gain_fast(identity_net(4), witness) == value


def test_max_gain_equal_first_rows_hits_ceiling():
    eye = BitMatrix.identity(4)
    value, witness = max_gain(GeneratorSet((eye, eye)))
    assert value == GainValue(4)
    assert witness.u == (1, 2) and witness.k == (0, 0)
    assert gain_fast(GeneratorSet((eye, eye)), witness) == value


def test_max_gain_minimal_witness_subset():
    # first rows: e1, e2, e1^e2, e1 -> smallest dependent subset is {1, 4}
    rows = ["1000", "0100", "1100", "1000"]
    gens = GeneratorSet(tuple(BitMatrix(4, (int(top, 2), 0b0100, 0b0010, 0b0001)) for top in rows))
    value, witness = max_gain(gens)
    assert value == GainValue(4)
    assert witness.u == (1, 4)
    assert gain_fast(gens, witness) == value


def test_max_gain_witness_verified_on_random_nets():
    rng = random.Random(41)
    for _ in range(200):
        gens = random_generator_set(rng, rng.randint(1, 4), rng.randint(2, 6))
        value, witness = max_gain(gens)
        assert gain_fast(gens, witness) == value


def test_max_gain_past_20_coordinates_takes_a_minimal_witness():
    # first rows e1, e2, e3, e1^e2^e3 at 1-4, one row shared by 5 and 6, and e5
    # from 7 on: past 20 coordinates the witness closes the first dependent
    # prefix, (1, 2, 3, 4); up to 20 it is the smallest, (5, 6)
    m, rng = 5, random.Random(47)
    firsts = [0b10000, 0b01000, 0b00100, 0b11100, 0b00010, 0b00010] + [0b00001] * 15
    gens = GeneratorSet(tuple(
        BitMatrix(m, (first,) + tuple(rng.randrange(1 << m) for _ in range(m - 1))) for first in firsts
    ))
    assert gens.s == 21

    def independent(u):
        return nullspace_rank([gens.row(j, 1) for j in u], m) == len(u)

    value, witness = max_gain(gens)
    assert value == GainValue(m) == gain_fast(gens, witness)
    assert witness == SubsetIndex((1, 2, 3, 4), (0, 0, 0, 0))
    assert not independent(witness.u)
    assert all(independent(witness.u[:i] + witness.u[i + 1 :]) for i in range(len(witness.u)))
    assert not independent((5, 6))  # smaller, but the search past 20 does not look for it
    assert max_gain(GeneratorSet(gens.matrices[:20])) == (GainValue(m), SubsetIndex((5, 6), (0, 0)))


# --- gain_bounds ------------------------------------------------------------------------

def test_an_index_beyond_the_net_is_refused_before_any_search(shift, monkeypatch):
    import oracles

    def no_search(gens):
        raise AssertionError("searched for t before checking the index")

    monkeypatch.setattr(oracles, "t_value", no_search)
    bad = SubsetIndex((1, 5), (0, 0))
    for route in (gain_bounds, gain_fast, gain_representation):
        with pytest.raises(ValueError, match=r"\(1, 5\).*s=4"):
            route(shift, bad)


def test_shift_bounds_sixteen_and_eight(shift):
    bounds = gain_bounds(shift, SubsetIndex((1, 2, 3, 4), (1, 1, 1, 1)))
    assert bounds["t"] == 16
    assert bounds["t_star_u"] == 8


def test_singleton_bounds_on_zero_t_net(sobol2d):
    for j in (1, 2):
        bounds = gain_bounds(sobol2d, SubsetIndex((j,), (2,)))
        assert bounds["t"] == 1
        for k in range(0, sobol2d.m + 2):
            assert gain_fast(sobol2d, SubsetIndex((j,), (k,))).as_int in (0, 1)


def test_bounds_dominate_gain():
    rng = random.Random(43)
    for _ in range(60):
        gens = random_generator_set(rng, rng.randint(1, 3), rng.randint(2, 5))
        idx = random_index(rng, gens)
        value = gain_fast(gens, idx).as_int
        bounds = gain_bounds(gens, idx)
        assert all(value <= b for b in bounds.values())
        if value:
            assert bounds["rank"] == value  # nonzero gains sit on the rank bound


def test_t_star_bound_omitted_when_premise_fails():
    eye = BitMatrix.identity(4)
    gens = GeneratorSet((eye, eye))
    bounds = gain_bounds(gens, SubsetIndex((1, 2), (1, 1)))
    assert "t_star_u" not in bounds


# --- enumerate_gains -----------------------------------------------------------------------

def test_enumerate_shift_depth_eight(shift):
    report = enumerate_gains(shift, 8)
    assert report.gamma_max == GainValue(3)
    assert report.attained_theoretical
    assert not report.truncated
    assert not report.bound_violations


def test_enumerate_records_the_gains_past_a_t_one_too_small(monkeypatch):
    gens = sobol_net(3, 5)
    t, m = t_value(gens), gens.m
    depth = gens.s * (m + 1) + 1  # past every stack, so the later reports keep them all
    report = enumerate_gains(gens, depth)
    assert not report.bound_violations
    attaining = [(ix, gv) for ix, gv in report.entries if gv.log2 == t + len(ix.u) - 1]
    assert attaining  # the gains on the t bound, which a t one too small puts past it

    walk = gains._least_gain_total  # the walk that builds the table and finds t
    # the same table, and a least |u| + |k| of a nonzero gain one up: t - 1
    monkeypatch.setattr(gains, "_least_gain_total", lambda *args: walk(*args) + 1)
    late = enumerate_gains(gens, depth)
    assert late.entries == report.entries
    want = [{"u": list(ix.u), "k": list(ix.k), "log2_gain": gv.log2}
            for ix, gv in report.entries if gv.log2 > min(t - 1 + len(ix.u) - 1, m)]
    assert late.bound_violations == want
    assert [[v["u"], v["k"]] for v in want] == [[list(ix.u), list(ix.k)] for ix, _ in attaining]


def test_enumerate_below_zero_region_depth(shift):
    # with |u| = 1 and t = 1, any |k| <= m - t - |u| stays exactly zero
    report = enumerate_gains(shift, 2)
    assert report.entries
    assert [idx for idx, _ in report.entries if idx.u == (1,)] == []


def test_enumerate_sobol_matches_bruteforce(sobol2d, sobol2d_points):
    report = enumerate_gains(sobol2d, max_depth=2 * (sobol2d.m + 1))
    assert report.attained_theoretical
    for idx, value in report.entries:
        assert value.as_int and value.as_int & (value.as_int - 1) == 0
        assert gain_bruteforce(sobol2d_points, idx) == value.as_int


def test_enumerate_tiebreak_is_first_by_key(shift):
    report = enumerate_gains(shift, 8)
    best = min(
        (
            (idx.order, idx.u, idx.depth, idx.k)
            for idx, value in report.entries
            if value == report.gamma_max
        ),
    )
    got = report.attaining
    assert (got.order, got.u, got.depth, got.k) == best


def test_enumerate_truncation_flag(shift):
    report = enumerate_gains(shift, 8, max_visits=10)
    assert report.truncated
    assert report.visited == 10


def scratch_gain(gens: GeneratorSet, idx: SubsetIndex) -> GainValue:
    """The rank test on an explicitly stacked matrix, eliminated from scratch."""
    rows = list(assemble_cuk(gens, idx).rows)
    nxt = 0
    for j, kj in zip(idx.u, idx.k):
        nxt ^= gens.row(j, kj + 1)
    r = nullspace_rank(rows, gens.m)
    return GainValue(gens.m - r) if nullspace_rank(rows + [nxt], gens.m) == r else GainValue.zero()


def scratch_report(gens: GeneratorSet, max_depth: int, max_visits: int | None) -> dict:
    """enumerate_gains rebuilt as a per-(u, k) loop over the box, in lex order."""
    m = gens.m
    t = t_value(gens)
    entries, violations = [], []
    visited, truncated = 0, False
    subsets = [u for r in range(1, gens.s + 1) for u in combinations(range(1, gens.s + 1), r)]
    for u in subsets:
        for k in (k for k in product(range(m + 2), repeat=len(u)) if sum(k) <= max_depth):
            if max_visits is not None and visited >= max_visits:
                truncated = True
                break
            visited += 1
            idx = SubsetIndex(u, k)
            value = scratch_gain(gens, idx)
            assert gain_fast(gens, idx) == value
            if value.log2 is not None:
                entries.append((idx, value))
                if value.log2 > min(t + len(u) - 1, m):
                    violations.append({"u": list(u), "k": list(k), "log2_gain": value.log2})
        if truncated:
            break
    best = None
    for idx, value in entries:
        key = (-value.log2, idx.order, idx.u, idx.depth, idx.k)
        best = key if best is None or key < best else best
    attaining = None if best is None else SubsetIndex(best[2], best[4])
    bounds = {}
    if attaining is not None:
        # gain_bounds works out t itself; the rank bound is checked from scratch
        bounds = gain_bounds(gens, attaining)
        rows = assemble_cuk(gens, attaining).rows
        assert bounds["rank"] == 1 << (m - nullspace_rank(rows, m))
    return {
        "entries": entries,
        "visited": visited,
        "truncated": truncated,
        "attaining": attaining,
        "bounds": bounds,
        "bound_violations": violations,
    }


def test_enumerate_matches_scratch_loop_for_every_budget():
    rng = random.Random(53)
    nets = [
        (random_generator_set(rng, rng.randint(1, 3), rng.randint(2, 4)), rng.randint(2, 7))
        for _ in range(12)
    ]
    # wider nets, so that budgets cut through subsets of two to five coordinates
    for s, m, depth in ((4, 5, 3), (4, 7, 2), (5, 6, 2), (5, 7, 1)):
        nets.append((random_generator_set(rng, s, m), depth))
    for gens, depth in nets:
        full = enumerate_gains(gens, depth)
        for max_visits in [None, *range(full.visited + 2)]:
            report = enumerate_gains(gens, depth, max_visits=max_visits)
            want = scratch_report(gens, depth, max_visits)
            got = {key: getattr(report, key) for key in want}
            assert got == want
            assert report.gamma_max == (
                GainValue.zero() if want["attaining"] is None else scratch_gain(gens, want["attaining"])
            )


def kernel_rich_net(rng: random.Random, kind: str, s: int, m: int) -> GeneratorSet:
    """A random net whose free forms are often dependent: ``repeated`` copies the first
    matrix to the last, ``sparse`` sets each bit with probability 0.2, ``dependent`` makes
    the last first row the XOR of the earlier ones; ``fair`` draws fair bits."""
    density = 0.2 if kind == "sparse" else 0.5
    mats = [
        BitMatrix(m, tuple(sum(1 << b for b in range(m) if rng.random() < density) for _ in range(m)))
        for _ in range(s)
    ]
    if kind == "repeated":
        mats[-1] = mats[0]
    elif kind == "dependent":
        first = 0
        for mat in mats[:-1]:
            first ^= mat.rows[0]
        mats[-1] = BitMatrix(m, (first,) + mats[-1].rows[1:])
    return GeneratorSet(tuple(mats))


def test_enumerate_matches_scratch_loop_on_kernel_rich_nets():
    # nets whose free forms are often dependent, so a stack's gains are a span of several
    # sets: every budget cuts through subsets of three to five coordinates
    rng = random.Random(3202)
    nets = [
        (kernel_rich_net(rng, "repeated", 4, 5), 2),
        (kernel_rich_net(rng, "sparse", 5, 6), 1),
        (kernel_rich_net(rng, "sparse", 4, 4), 2),
        (kernel_rich_net(rng, "dependent", 4, 5), 2),
        (kernel_rich_net(rng, "fair", 3, 3), 5),  # the table reaches stacks of rank m
    ]
    spans = Counter()
    for gens, depth in nets:
        full = enumerate_gains(gens, depth)
        # the gains per all-coordinate stack of rank below m: two or more need a kernel
        stacks = Counter(
            tuple(dict(zip(ix.u, ix.k)).get(j, 0) for j in range(1, gens.s + 1))
            for ix, gv in full.entries if gv.log2
        )
        spans["kernel span"] += sum(n > 1 for n in stacks.values())
        spans["rank m"] += sum(gv.log2 == 0 for _, gv in full.entries)
        for max_visits in [None, *range(full.visited + 2)]:
            report = enumerate_gains(gens, depth, max_visits=max_visits)
            want = scratch_report(gens, depth, max_visits)
            assert {key: getattr(report, key) for key in want} == want, (gens, depth, max_visits)
    assert spans["kernel span"] >= 10 and spans["rank m"] >= 10, spans


def test_enumerate_visits_what_the_box_counts():
    # visited is the (u, k) of the box, sum over r of C(s, r) times the k in [0, m + 1]^r with |k| <= depth
    for gens, depth in ((sobol_net(3, 5), 4), (random_generator_set(random.Random(8), 5, 6), 2), (shift_net(), 3)):
        counts = quality._box_counts(gens.s, gens.m + 1, depth)
        total = sum(math.comb(gens.s, r) * counts[r] for r in range(1, gens.s + 1))
        report = enumerate_gains(gens, depth)
        assert (report.visited, report.truncated) == (total, False)
        assert enumerate_gains(gens, depth, max_visits=total - 1).visited == total - 1


def test_enumerate_keeps_no_bookkeeping_per_subset():
    # s = m = 20 at depth 1: 11,534,335 pairs (u, k), of which 20 hold a gain.  A list with
    # a slot per subset takes 8 MiB, so the walk may hold none: it solves each of its 21 stacks
    import tracemalloc

    gens = random_generator_set(random.Random(7), 20, 20)
    tracemalloc.start()
    try:
        report = enumerate_gains(gens, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (report.visited, len(report.entries)) == (11_534_335, 20)
    assert all(gain_fast(gens, ix) == gv for ix, gv in report.entries)
    assert peak < 8 << 20, peak


def searched_gamma_and_bounds(gens: GeneratorSet, attaining: SubsetIndex | None) -> tuple:
    """Γ and the bounds at the witness as their own searches find them: the floor-1 search
    over all coordinates, and :func:`oracles.gain_bounds` at the witness."""
    s, m = gens.s, gens.m
    theoretical = GainValue(m + s - quality._least_gain_total(gens, range(1, s + 1), 1))
    return theoretical, {} if attaining is None else gain_bounds(gens, attaining)


def test_table_reads_gamma_and_bounds_as_the_searches_find_them(monkeypatch):
    searched, asked = gains.t_u, []
    monkeypatch.setattr(gains, "t_u", lambda gens, u: asked.append(u) or searched(gens, u))
    walk, floor_one = gains._least_gain_total, []  # per search of enumerate_gains: is it at floor 1

    def counted(gens, u, floor=0, *rest):
        floor_one.append(floor == 1)
        return walk(gens, u, floor, *rest)

    monkeypatch.setattr(gains, "_least_gain_total", counted)
    rng = random.Random(2106)
    seen = Counter()
    for i in range(2400):
        # dense, sparse, with a repeated matrix, or with the last first row a XOR of earlier ones, by i % 4
        s, m = rng.randint(1, 7), rng.randint(2, 10)
        mats = []
        for _ in range(s):
            rows = [rng.randrange(1 << m) for _ in range(m)]
            if i % 4 == 1:
                rows = [r & rng.randrange(1 << m) & rng.randrange(1 << m) for r in rows]
            mats.append(BitMatrix(m, tuple(rows)))
        if i % 4 == 2 and s > 1:
            mats[-1] = rng.choice(mats[:-1])
        elif i % 4 == 3 and s > 1:
            first = 0
            for mat in rng.sample(mats[:-1], rng.randint(1, s - 1)):
                first ^= mat.rows[0]
            mats[-1] = BitMatrix(m, (first,) + mats[-1].rows[1:])
        gens = GeneratorSet(tuple(mats))
        depth = rng.choice((0, 0, 1, 1, 2, 3))
        max_visits = rng.choice((None, None, rng.randint(0, 60)))
        t = t_value(gens)
        holds = bool(enumerate_gains(gens, depth).entries)  # whether the whole table holds a gain
        asked.clear()
        floor_one.clear()
        report = enumerate_gains(gens, depth, max_visits=max_visits)
        theoretical, bounds = searched_gamma_and_bounds(gens, report.attaining)
        assert (report.theoretical, report.bounds) == (theoretical, bounds), (gens, depth, max_visits)
        assert report.attained_theoretical == (report.gamma_max == theoretical)
        # the t search, and the floor-1 search for Γ only when the table holds no gain
        assert floor_one == ([False] if holds else [False, True]), (gens, depth, max_visits)
        if report.attaining is None:
            seen["empty"] += 1
        elif report.truncated:
            seen["truncated"] += 1
        else:
            seen["read off the table"] += 1
            seen["t_u searched"] += bool(asked)
            # no entry is of the least total, so the t search found it past the table
            seen["t found past the table"] += all(ix.order + ix.depth > m + 1 - t for ix, _ in report.entries)
        seen["truncated, read off the table"] += report.truncated and holds
    assert min(seen.values()) >= 15 and len(seen) == 6, seen


def test_table_falls_back_to_the_t_u_search(monkeypatch):
    searched, asked = gains.t_u, []
    monkeypatch.setattr(gains, "t_u", lambda gens, u: asked.append(u) or searched(gens, u))
    gens = sobol_net(5, 4)
    witness = SubsetIndex((1, 3, 4, 5), (0, 0, 0, 0))
    # at depth 0 the only gain over a subset of the witness's u is its own, of total 4; one
    # of total 3 could have |k| = 1, past the table, so the t_u search decides (it finds one)
    report = enumerate_gains(gens, 0)
    assert report.attaining == witness and asked == [witness.u]
    assert report.bounds["t_u"] == 1 << (2 + 3) and quality.t_u(gens, witness.u) == 2
    # at depth 1 the table holds the gains of total 3, and a total of 2 + 1 is exact
    asked.clear()
    report = enumerate_gains(gens, 1)
    assert report.attaining == witness and asked == []
    assert report.bounds == searched_gamma_and_bounds(gens, witness)[1]


def test_enumerate_refuses_oversized_boxes_before_walking(monkeypatch, shift):
    module = importlib.import_module("netgains.gains")
    # the shift net at depth 3: 4 singletons, 6 pairs, 4 triples and one quadruple
    visits = 4 * 4 + 6 * 10 + 4 * 20 + 35
    assert enumerate_gains(shift, 3).visited == visits

    def no_walk(*args, **kwargs):
        raise AssertionError("a walk started before the refusal")

    monkeypatch.setattr(module, "_least_gain_total", no_walk)
    with pytest.raises(ResourceLimitError, match=r"max_depth=1000 "):
        enumerate_gains(sobol_net(7, 10), 1000, max_visits=5)
    monkeypatch.setattr(module, "ENUMERATION_VISIT_LIMIT", visits - 1)
    with pytest.raises(ResourceLimitError, match=r"max_depth=3 .* 191 "):
        enumerate_gains(shift, 3)
    monkeypatch.setattr(module, "ENUMERATION_VISIT_LIMIT", visits)
    with pytest.raises(AssertionError, match="a walk started"):
        enumerate_gains(shift, 3)


def test_enumerate_refuses_stacks_past_the_t_search_limit_before_walking(monkeypatch):
    # the t search tests each of the table's stacks, so a table of more stacks than
    # T_SEARCH_LIMIT would be refused mid-walk: it is refused before the walk starts
    gens = random_generator_set(random.Random(29), 3, 4)
    # k in [0, 5]^r with |k| <= 12: 6 per singleton, 36 per pair, and the triple's 206,
    # which are the walk's stacks
    assert quality._box_counts(3, 5, 12) == [1, 6, 36, 206]
    walks, walk = [], gains._least_gain_total
    monkeypatch.setattr(gains, "_least_gain_total", lambda *a, **kw: walks.append(a) or walk(*a, **kw))
    monkeypatch.setattr(gains, "ENUMERATION_VISIT_LIMIT", 400)  # the 3 * 6 + 3 * 36 + 206 = 332 pairs pass
    monkeypatch.setattr(quality, "T_SEARCH_LIMIT", 200)  # gains reads the one binding, in quality
    with pytest.raises(ResourceLimitError, match=r"max_depth=12 over s=3 .* 206 stacks, .*\(limit 200\)"):
        enumerate_gains(gens, 12)
    assert walks == []
    monkeypatch.setattr(quality, "T_SEARCH_LIMIT", 206)
    assert enumerate_gains(gens, 12).visited == 332 and walks


def test_enumerate_rejects_negative_depth(shift):
    with pytest.raises(ValueError):
        enumerate_gains(shift, -1)


def test_gain_stationary_past_m():
    rng = random.Random(47)
    for _ in range(60):
        gens = random_generator_set(rng, rng.randint(1, 3), rng.randint(2, 5))
        size = rng.randint(1, gens.s)
        u = tuple(sorted(rng.sample(range(1, gens.s + 1), size)))
        base = tuple(rng.randint(0, gens.m) for _ in u)
        pinned = rng.randrange(size)
        values = []
        for extra in (0, 1, 2, 5):
            k = tuple(
                (gens.m + extra) if pos == pinned else kj
                for pos, kj in enumerate(base)
            )
            idx = SubsetIndex(u, k)
            values.append(gain_fast(gens, idx))
            assert gain_representation(gens, idx) == values[-1].as_int
        assert len(set(values)) == 1


def test_report_serialization(shift):
    import io

    report = enumerate_gains(shift, 4)
    payload = report.to_json_dict()
    assert payload["gamma_max_log2"] == 3
    assert payload["attaining"] == {"u": list(report.attaining.u), "k": list(report.attaining.k)}
    assert all(set(e) == {"u", "k", "log2_gain"} for e in payload["entries"])
    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "u,k,log2_gain"
    assert len(lines) == len(report.entries) + 1
