"""Quality parameters: the algebraic route against the counting oracle."""

import itertools
import random

import numpy as np
import pytest

from gf2_reference import nullspace_rank
from netgains.netgen import GeneratorSet, NetPoints, ResourceLimitError, generate_points
from netgains.quality import (
    compositions,
    first_rank_deficient_k,
    microstructure_A,
    microstructure_AK,
    minimal_counting_t,
    quality_report,
    t_d,
    t_star_u,
    t_u,
    t_value,
    verify_net_by_counting,
)
from netgains.suites import random_generator_set


def brute_t_u(gens: GeneratorSet, u: tuple[int, ...]) -> int:
    """Direct definition: minimum deficient total depth over the whole box."""
    best = None
    for k in itertools.product(range(gens.m + 2), repeat=len(u)):
        rows = []
        for j, kj in zip(u, k):
            rows.extend(gens.row(j, ell) for ell in range(1, kj + 1))
        if nullspace_rank(rows, gens.m) < len(rows):
            total = sum(k)
            best = total if best is None else min(best, total)
    return gens.m + 1 - best


# --- t and friends -------------------------------------------------------------

def test_shift_net_t(shift):
    assert t_value(shift) == 1


def test_identity_t_zero(identity_net):
    for m in (1, 3, 6):
        assert t_value(identity_net(m)) == 0


def test_sobol2d_t_matches_counting(sobol2d, sobol2d_points):
    assert t_value(sobol2d) == minimal_counting_t(sobol2d_points)


def test_t_invariant_under_matrix_permutation(shift):
    for perm in itertools.permutations(range(4)):
        permuted = GeneratorSet(tuple(shift.matrices[p] for p in perm))
        assert t_value(permuted) == 1


def test_shift_net_t_star_full_zero(shift):
    assert t_star_u(shift, (1, 2, 3, 4)) == 0


def test_identity_t_star_zero(identity_net):
    gens = identity_net(5)
    assert t_star_u(gens, (1,)) == 0
    assert first_rank_deficient_k(gens, (1,)) == (6,)


def identity_net_pair(m: int = 4) -> GeneratorSet:
    from netgains.gf2 import BitMatrix

    eye = BitMatrix.identity(m)
    return GeneratorSet((eye, eye))


def test_t_star_of_deficient_first_rows():
    # two equal matrices: the two first rows coincide, so depth (1,1) fails
    gens = identity_net_pair()
    assert t_star_u(gens, (1, 2)) == gens.m + 1 - 2


def test_sobol_singletons_have_t_zero(sobol2d):
    for j in (1, 2):
        assert t_u(sobol2d, (j,)) == 0


def test_t_d_full_dimension_is_t(shift, sobol2d):
    for gens in (shift, sobol2d):
        assert t_d(gens, gens.s) == t_value(gens)


def test_shift_t_u_full_versus_t_star(shift):
    assert t_u(shift, (1, 2, 3, 4)) == 1
    assert t_star_u(shift, (1, 2, 3, 4)) == 0


def test_t_u_matches_direct_definition():
    rng = random.Random(21)
    for _ in range(40):
        gens = random_generator_set(rng, rng.randint(1, 3), rng.randint(2, 4))
        coords = range(1, gens.s + 1)
        for size in range(1, gens.s + 1):
            for u in itertools.combinations(coords, size):
                assert t_u(gens, u) == brute_t_u(gens, u)


def test_subset_identities(shift, sobol2d):
    for gens in (shift, sobol2d):
        coords = range(1, gens.s + 1)
        subsets = [
            u
            for r in range(1, gens.s + 1)
            for u in itertools.combinations(coords, r)
        ]
        star = {u: t_star_u(gens, u) for u in subsets}
        for u in subsets:
            tu = t_u(gens, u)
            assert star[u] <= tu
            assert tu == max(
                star[v]
                for r in range(1, len(u) + 1)
                for v in itertools.combinations(u, r)
            )
        assert t_value(gens) == max(star.values())


def stack_deficient(gens: GeneratorSet, u, k) -> bool:
    rows = [gens.row(j, ell) for j, kj in zip(u, k) for ell in range(1, kj + 1)]
    return nullspace_rank(rows, gens.m) < len(rows)


def test_first_rank_deficient_k_is_lex_first_of_least_total():
    rng = random.Random(29)
    for _ in range(40):
        gens = random_generator_set(rng, rng.randint(1, 3), rng.randint(1, 5))
        m = gens.m
        for size in range(1, gens.s + 1):
            for u in itertools.combinations(range(1, gens.s + 1), size):
                deficient = [
                    k
                    for k in itertools.product(range(m + 2), repeat=size)
                    if min(k) >= 1 and stack_deficient(gens, u, k)
                ]
                least = min(sum(k) for k in deficient)
                want = min(k for k in deficient if sum(k) == least)
                assert first_rank_deficient_k(gens, u) == want


def brute_nets():
    rng = random.Random(43)
    for m, top in ((1, 5), (2, 6), (3, 5)):  # s > m + 1 runs the subset-size cut-off
        for s in range(1, top + 1):
            yield random_generator_set(rng, s, m)
    for _ in range(10):
        yield random_generator_set(rng, rng.randint(1, 3), rng.randint(2, 5))


def test_t_search_matches_brute_definitions():
    for gens in brute_nets():
        coords = range(1, gens.s + 1)
        subsets = [u for r in range(1, gens.s + 1) for u in itertools.combinations(coords, r)]
        brute = {u: brute_t_u(gens, u) for u in subsets}
        for u in subsets:
            assert t_u(gens, u) == brute[u]
        for d in range(1, gens.s + 1):
            assert t_d(gens, d) == max(brute[u] for u in subsets if len(u) <= d)
        assert t_value(gens) == brute[tuple(coords)]


def test_t_is_worst_t_star_on_random_nets():
    rng = random.Random(31)
    for _ in range(80):
        gens = random_generator_set(rng, rng.randint(1, 4), rng.randint(1, 7))
        coords = range(1, gens.s + 1)
        worst = max(
            t_star_u(gens, u)
            for r in range(1, gens.s + 1)
            for u in itertools.combinations(coords, r)
        )
        assert t_value(gens) == worst


def test_subset_validation(shift):
    with pytest.raises(ValueError):
        t_star_u(shift, ())
    with pytest.raises(ValueError):
        t_star_u(shift, (2, 1))
    with pytest.raises(ValueError):
        t_u(shift, (5,))
    with pytest.raises(ValueError):
        t_d(shift, 0)


# --- counting oracle -------------------------------------------------------------

def test_shift_net_counting(shift_points):
    assert verify_net_by_counting(shift_points, 1)
    assert not verify_net_by_counting(shift_points, 0)
    assert minimal_counting_t(shift_points) == 1


def test_identity_counting(identity_net):
    pts = generate_points(identity_net(4))
    assert verify_net_by_counting(pts, 0)


def test_counting_rejects_below_rank_t():
    rng = random.Random(17)
    seen = 0
    for _ in range(40):
        gens = random_generator_set(rng, rng.randint(1, 3), rng.randint(2, 5))
        t = t_value(gens)
        if t == 0:
            continue
        seen += 1
        assert not verify_net_by_counting(generate_points(gens), t - 1)
    assert seen >= 10


def test_counting_t_range_check(shift_points):
    with pytest.raises(ValueError):
        verify_net_by_counting(shift_points, -1)
    with pytest.raises(ValueError):
        verify_net_by_counting(shift_points, 5)


def test_rank_t_equals_counting_t_on_random_nets():
    rng = random.Random(23)
    for _ in range(60):
        gens = random_generator_set(rng, rng.randint(1, 4), rng.randint(2, 6))
        assert t_value(gens) == minimal_counting_t(generate_points(gens))


def counting_every_level(points: NetPoints, t: int) -> bool:
    """Reference: every dyadic box of total depth at most ``m - t`` holds ``2**(m - depth)`` points."""
    m = points.m
    for level in range(m - t, -1, -1):
        for k in compositions(level, points.s):
            cells = points.coords >> np.array([m - kj for kj in k], dtype=np.uint64)
            _, counts = np.unique(cells, axis=0, return_counts=True)
            if counts.min() != 1 << (m - level) or counts.max() != 1 << (m - level):
                return False
    return True


def test_counting_one_level_agrees_with_every_level():
    rng = random.Random(41)
    draw = np.random.default_rng(41)
    for _ in range(50):
        s, m = rng.randint(1, 4), rng.randint(1, 6)
        net = generate_points(random_generator_set(rng, s, m)).coords
        flipped = net.copy()
        flipped[rng.randrange(1 << m), rng.randrange(s)] ^= np.uint64(1 << rng.randrange(m))
        multiset = draw.integers(0, 1 << m, size=(1 << m, s), dtype=np.uint64)
        coarse = multiset >> np.uint64(rng.randint(0, m)) << np.uint64(rng.randint(0, m))
        for coords in (net, flipped, multiset, coarse & np.uint64((1 << m) - 1)):
            points = NetPoints(coords, m)
            answers = [counting_every_level(points, t) for t in range(m + 1)]
            assert [verify_net_by_counting(points, t) for t in range(m + 1)] == answers
            assert minimal_counting_t(points) == answers.index(True)


# --- microstructure -------------------------------------------------------------

def test_balance_gives_exact_cell_log(shift, shift_points):
    t = t_value(shift)
    m = shift.m
    for depth in range(0, m - t + 1):
        for k in compositions(depth, shift.s, lo=0, hi=depth):
            assert microstructure_A(shift_points, k) == m - depth


def test_shift_full_depth_cells_singletons(shift_points):
    assert microstructure_A(shift_points, (4, 4, 4, 4)) == 0


def test_identity_single_coordinate(identity_net):
    pts = generate_points(identity_net(4))
    for depth in (4, 5, 9):
        assert microstructure_A(pts, (depth,)) == 0


def test_a_k_at_zero_is_m(shift_points, sobol2d_points):
    assert microstructure_AK(shift_points, 0) == 4
    assert microstructure_AK(sobol2d_points, 0) == 4


def test_a_k_in_balanced_range(shift, shift_points):
    t = t_value(shift)
    for depth in range(0, shift.m - t + 1):
        assert microstructure_AK(shift_points, depth) == shift.m - depth


def test_shift_a4_stays_at_t(shift_points):
    # frozen from exhaustive bucketing over all depth-4 vectors
    assert microstructure_AK(shift_points, 4) == 1


def test_a_k_deep_depths_respect_t_for_sobol(sobol2d, sobol2d_points):
    t = t_value(sobol2d)
    for depth in range(sobol2d.m - t + 1, 2 * sobol2d.m + 1):
        assert microstructure_AK(sobol2d_points, depth) <= t


def test_microstructure_validation(shift_points):
    with pytest.raises(ValueError):
        microstructure_A(shift_points, (1, 1))
    with pytest.raises(ValueError):
        microstructure_A(shift_points, (1, 1, 1, -1))
    with pytest.raises(ValueError):
        microstructure_AK(shift_points, -1)


# --- report ----------------------------------------------------------------------

def test_quality_report_shift(shift):
    report = quality_report(shift)
    assert report.t == 1
    assert report.t_star_u[(1, 2, 3, 4)] == 0
    assert report.t_d[4] == 1
    assert report.a_k == {0: 4, 1: 3, 2: 2, 3: 1, 4: 1}
    assert report.subsets_complete
    payload = report.to_json_dict()
    assert payload["t"] == 1
    assert {"u": [1, 2, 3, 4], "value": 0} in payload["t_star_u"]
    assert payload["A_K"]["4"] == 1


def test_quality_report_refuses_an_a_k_table_past_the_limit(monkeypatch, shift):
    from netgains import quality

    m, s = shift.m, shift.s
    # boxes in [0, m]^s up to total m + 1, and s stand-ins for the total past m
    boxes = sum(sum(k) <= m + 1 for k in itertools.product(range(m + 1), repeat=s)) + s
    monkeypatch.setattr(quality, "A_K_KEY_LIMIT", boxes << m)
    assert quality_report(shift, a_k_max=m + 1).a_k[m + 1] == microstructure_AK(
        generate_points(shift), m + 1
    )
    monkeypatch.setattr(quality, "A_K_KEY_LIMIT", (boxes << m) - 1)
    with pytest.raises(ResourceLimitError, match=f"a_k_max={m + 1} over m={m}, s={s} "):
        quality_report(shift, a_k_max=m + 1)
    assert quality_report(shift).a_k == {0: 4, 1: 3, 2: 2, 3: 1, 4: 1}


def test_quality_report_gating():
    gens = random_generator_set(random.Random(17), 17, 3)
    report = quality_report(gens)
    full = tuple(range(1, 18))
    singletons = {(j,) for j in full}
    assert not report.subsets_complete
    assert report.t == t_value(gens) == report.t_d[17] and set(report.t_d) == {17}
    assert set(report.t_u) == set(report.t_star_u) == singletons | {full}
    assert report.t_star_u[full] == t_star_u(gens, full)
    assert all(report.t_u[u] == report.t_star_u[u] == t_star_u(gens, u) for u in singletons)
    assert report.a_k[3] == microstructure_AK(generate_points(gens), 3)
