"""Gain coefficients: three routes, bounds, the closed-form maximum."""

import importlib
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from gf2_reference import assemble_cuk, nullspace_of_rows, nullspace_rank, row_reduce
from netgains.gains import (
    GainValue,
    KernelWalk,
    ResourceLimitError,
    enumerate_gains,
    gain_bounds,
    gain_bruteforce,
    gain_fast,
    gain_pair_table,
    gain_representation,
    max_gain,
)
from netgains.gf2 import BitMatrix
from netgains.netgen import GeneratorSet, NetPoints, SubsetIndex, generate_points
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
    assert zero.is_zero and zero.as_int == 0
    assert eight.as_int == 8
    assert zero < GainValue(0) < eight
    assert sorted([eight, zero, GainValue(1)])[0] is zero
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
                assert gain_fast(gens, idx).is_zero
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


def test_representation_resource_guard():
    wide = GeneratorSet((BitMatrix(26, (0,) * 26),))
    with pytest.raises(ResourceLimitError):
        gain_representation(wide, SubsetIndex((1,), (1,)))


# --- the kernel walk ---------------------------------------------------------------

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
            walk = KernelWalk(gens, u, floor)
            seen = []
            for count in walk:
                k = tuple(walk.k)
                seen.append(k)
                if sum(k) > budget:
                    continue
                visits += 1
                stack = assemble_cuk(gens, SubsetIndex(u, k))
                rows = stack.rows
                null = nullspace_of_rows(rows, m)
                assert len(walk.basis) == len(null) == m - row_reduce(stack).rank
                assert nullspace_rank(walk.basis, m) == len(walk.basis)
                assert all(not (row & v).bit_count() & 1 for row in rows for v in walk.basis)
                assert count == brute_signed_count(gens, u, k)
            want = [
                k
                for k in product(range(cap + 1), repeat=size)
                if all(a >= b for a, b in zip(k, floor))
            ]
            assert seen == want
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
        uncut = KernelWalk(gens, u, floor)
        full = {tuple(uncut.k): (count, uncut.basis) for count in uncut}
        walk = KernelWalk(gens, u, floor)
        seen = []
        for count in walk:
            k = tuple(walk.k)
            assert (count, walk.basis) == full[k]
            if not (rng.random() < 0.3 or (trial % 5 == 0 and not seen) or not walk.basis):
                seen.append(k)
                continue
            i = walk.cut()
            assert i == max((j for j in range(size) if k[j] > floor[j]), default=0)
            tails = product(range(k[i], cap + 1), *(range(f, cap + 1) for f in floor[i + 1 :]))
            slab = [k[:i] + tail for tail in tails]
            if not walk.basis:  # the cut of evaluate_net: count 1 on the whole slab
                assert all(full[kk] == (1, []) for kk in slab)
                cuts["empty basis"] += 1
            seen += slab
            cuts["first state"] += not seen[: -len(slab)] and k == floor
            cuts["last coordinate"] += size > 1 and i == size - 1
            cuts["floor > 0"] += any(floor)
            assert gain_representation(gens, SubsetIndex(u, k)) == count
        assert seen == list(full)
    assert min(cuts.values()) >= 20, cuts


def test_kernel_walk_refuses_a_nullspace_past_the_limit(monkeypatch, identity_net):
    from netgains import gains

    monkeypatch.setattr(gains, "NULLSPACE_LOG2_LIMIT", 3)
    gens = identity_net(5)
    walk = KernelWalk(gens, (1,), (2,))
    assert list(walk) == [0, 0, 0, 1, 1]  # nullspaces of dimension 3, 2, 1, 0, 0
    with pytest.raises(ResourceLimitError, match="2\\^4 elements"):
        list(KernelWalk(gens, (1,), (1,)))
    with pytest.raises(ResourceLimitError):
        gain_representation(gens, SubsetIndex((1,), (1,)))
    assert gain_representation(gens, SubsetIndex((1,), (5 + 5,))) == 1


def test_kernel_walk_validates_arguments(shift):
    # u and the floor's length: test_netgen::test_both_walks_refuse_a_bad_u_or_floor_length
    with pytest.raises(ValueError, match="floor entries"):
        KernelWalk(shift, (1,), (shift.m + 2,))


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


# --- gain_bounds ------------------------------------------------------------------------

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
    assert report.visited <= 10


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
            if not value.is_zero:
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


def test_enumerate_refuses_oversized_boxes_before_walking(monkeypatch, shift):
    module = importlib.import_module("netgains.gains")
    # the shift net at depth 3: 4 singletons, 6 pairs, 4 triples and one quadruple
    visits = 4 * 4 + 6 * 10 + 4 * 20 + 35
    assert enumerate_gains(shift, 3).visited == visits

    def no_walk(*args, **kwargs):
        raise AssertionError("a walk started before the refusal")

    monkeypatch.setattr(module, "StackWalk", no_walk)
    with pytest.raises(ResourceLimitError, match=r"max_depth=1000 "):
        enumerate_gains(sobol_net(7, 10), 1000, max_visits=5)
    monkeypatch.setattr(module, "ENUMERATION_VISIT_LIMIT", visits - 1)
    with pytest.raises(ResourceLimitError, match=r"max_depth=3 .* 191 "):
        enumerate_gains(shift, 3)
    monkeypatch.setattr(module, "ENUMERATION_VISIT_LIMIT", visits)
    with pytest.raises(AssertionError, match="a walk started"):
        enumerate_gains(shift, 3)


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
