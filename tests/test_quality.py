"""Quality parameters: the algebraic route against the counting oracle."""

import itertools
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import oracles
from gf2_reference import nullspace_rank
from oracles import microstructure_A, microstructure_AK, minimal_counting_t, t_d
from netgains import quality
from netgains.gf2 import BitMatrix
from netgains.netgen import MAX_M, GeneratorSet, NetPoints, ResourceLimitError, StackWalk, generate_points
from netgains.quality import (
    compositions,
    first_rank_deficient_k,
    quality_report,
    t_star_u,
    t_u,
    t_value,
    verify_net_by_counting,
)
from netgains.samples import sobol_net
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


def walk_least(gens: GeneratorSet, u: tuple[int, ...], floor: int) -> int:
    """The rank route without gains: the least budget whose StackWalk over
    ``k >= floor`` meets a deficient stack."""
    budget = floor * len(u)
    while not any(rank < depth for depth, rank, _ in StackWalk(gens, u, (floor,) * len(u), budget)):
        budget += 1
    return budget


def walk_t_u(gens: GeneratorSet, u: tuple[int, ...]) -> int:
    return gens.m + 1 - walk_least(gens, u, 0)


def odd_nets(count: int):
    """Random nets with ``s <= 7`` and ``(m + 3)^s <= 2^14``, each dense, sparse,
    with a row zeroed or repeated, singular (only the last two rows random), or
    with a matrix repeated."""
    rng = random.Random(2718)
    for i in range(count):
        s = rng.randint(1, 7)
        m = rng.randint(1, min(MAX_M, int(2 ** (14 / s)) - 3))
        mats = []
        for _ in range(s):
            if mats and i % 5 == 4:
                mats.append(rng.choice(mats))
                continue
            rows = [rng.randrange(1 << m) for _ in range(m)]
            if i % 5 == 1:
                rows = [r & rng.randrange(1 << m) & rng.randrange(1 << m) for r in rows]
            elif i % 5 == 2:
                rows[rng.randrange(m)] = rng.choice([0, rows[rng.randrange(m)]])
            elif i % 5 == 3:
                rows[: m - 2] = [0] * max(m - 2, 0)
            mats.append(BitMatrix(m, tuple(rows)))
        yield GeneratorSet(tuple(mats))


def test_t_u_matches_the_stack_walk_and_the_definition():
    shapes = set()
    for gens in odd_nets(30):
        shapes.add(gens.s)
        for u in quality._subsets(gens.s):
            want = brute_t_u(gens, u)
            assert walk_t_u(gens, u) == want, (gens, u)
            assert t_u(gens, u) == want, (gens, u)
    assert shapes == set(range(1, 8))


def test_t_value_matches_the_stack_walk_on_larger_nets():
    # deeper searches, where a free set can reach the target only past the least found so far
    rng = random.Random(3)
    for i in range(200):
        s, m = rng.randint(2, 7), rng.randint(4, 12)
        mats = []
        for _ in range(s):
            rows = [rng.randrange(1 << m) for _ in range(m)]
            if i % 2:
                rows = [r & rng.randrange(1 << m) & rng.randrange(1 << m) for r in rows]
            mats.append(BitMatrix(m, tuple(rows)))
        gens = GeneratorSet(tuple(mats))
        assert t_value(gens) == walk_t_u(gens, tuple(range(1, s + 1))), gens


def test_t_star_matches_the_stack_walk_on_larger_nets():
    # dense, sparse, with the last first row the XOR of earlier ones, and with the last
    # matrix a repeat, by i % 4; the last two make the full set trivial, not the rest
    rng = random.Random(7)
    trivial = 0
    for i in range(240):
        s = rng.randint(2, 7)
        m = rng.randint(max(4, s + 1), 12)  # room for s independent first rows
        mats = []
        for _ in range(s):
            rows = [rng.randrange(1 << m) for _ in range(m)]
            if i % 4 == 1:  # past the first row, where the least lies deeper
                rows[1:] = [r & rng.randrange(1 << m) & rng.randrange(1 << m) for r in rows[1:]]
            mats.append(BitMatrix(m, tuple(rows)))
        if i % 4 == 2:
            first = 0
            for mat in rng.sample(mats[:-1], rng.randint(1, s - 1)):
                first ^= mat.rows[0]
            mats[-1] = BitMatrix(m, (first,) + mats[-1].rows[1:])
        elif i % 4 == 3:
            mats[-1] = rng.choice(mats[:-1])
        gens = GeneratorSet(tuple(mats))
        for u in (tuple(range(1, s + 1)), tuple(range(1, s))):
            assert t_star_u(gens, u) == m + 1 - walk_least(gens, u, 1), (gens, u)
        trivial += t_star_u(gens, tuple(range(1, s + 1))) == m + 1 - s
    assert trivial >= 120


def fewest_by_definition(forms: list[int], target: int, most: int) -> int:
    for r in range(1, min(most, len(forms)) + 1):
        for picked in itertools.combinations(forms, r):
            acc = 0
            for f in picked:
                acc ^= f
            if acc == target:
                return r
    return 0


def test_fewest_free_forms_to_a_target():
    rng = random.Random(61)
    for _ in range(400):
        width = rng.randint(1, 6)
        forms = [rng.randrange(1 << width) for _ in range(rng.randint(0, 9))]
        target, most = rng.randrange(1, 1 << width), rng.randint(0, 10)
        r, _ = quality._fewest(forms, target, most, 1 << 20)
        assert r == fewest_by_definition(forms, target, most), (forms, target, most)
    # twelve unit vectors need all twelve; the middle stops once a level would pass what is spare
    forms = [1 << b for b in range(12)]
    r, work = quality._fewest(forms, (1 << 12) - 1, 12, 1 << 20)
    assert r == 12 and work > 1000
    r, stopped = quality._fewest(forms, (1 << 12) - 1, 12, 1000)
    assert r == 0 and 1000 < stopped < work


def test_t_search_refuses_past_its_ceiling(monkeypatch):
    from netgains.gains import enumerate_gains

    gens = sobol_net(5, 10)  # its t search makes 868 tests, that over (1, 3) 59
    monkeypatch.setattr(quality, "T_SEARCH_LIMIT", 868)
    assert t_value(gens) == 3
    monkeypatch.setattr(quality, "T_SEARCH_LIMIT", 867)
    for search in (t_value, lambda gens: t_d(gens, 5)):
        with pytest.raises(ResourceLimitError, match=r"^t search over s=5 coordinates at m=10 made more than 867 "):
            search(gens)
    assert t_u(gens, (1, 3)) == 1
    # the walk of the depth-1 table makes 733: at a table stack the visit's free sets stand in for its own
    monkeypatch.setattr(quality, "T_SEARCH_LIMIT", 733)
    assert enumerate_gains(gens, 1).visited == 111
    monkeypatch.setattr(quality, "T_SEARCH_LIMIT", 732)
    with pytest.raises(ResourceLimitError, match=r"^t search over s=5 coordinates at m=10 made more than 732 "):
        enumerate_gains(gens, 1)

    # the free forms of the empty stack alone would list more than 2^12 XORs
    wide = random_generator_set(random.Random(5), 24, 32)
    monkeypatch.setattr(quality, "T_SEARCH_LIMIT", 1 << 12)
    tracemalloc.start()
    with pytest.raises(ResourceLimitError, match=r"^t search over s=24 coordinates at m=32 "):
        t_value(wide)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20


def test_t_star_search_refuses_past_its_ceiling(monkeypatch):
    from netgains.gains import GainValue, max_gain

    gens = sobol_net(7, 16)  # its t* search makes 847 tests, that over (1, 2, 3, 4) 945
    full = tuple(range(1, 8))
    monkeypatch.setattr(quality, "T_SEARCH_LIMIT", 847)
    assert t_star_u(gens, full) == 5 and max_gain(gens)[0] == GainValue(16 + 7 - 12)
    monkeypatch.setattr(quality, "T_SEARCH_LIMIT", 846)
    message = r"^t\* search over s=7 coordinates at m=16 made more than 846 tests of stacks and free sets$"
    for search in (lambda gens: t_star_u(gens, full), max_gain):
        with pytest.raises(ResourceLimitError, match=message):
            search(gens)
    with pytest.raises(ResourceLimitError, match=r"^t\* search over s=4 coordinates at m=16 made more than 846 "):
        quality_report(gens, a_k_max=0)


def test_witness_scan_refuses_past_its_ceiling(monkeypatch):
    from netgains.gains import GainValue, max_gain

    gens = sobol_net(7, 16)  # its witness scan walks 55 stacks at total 12
    full = tuple(range(1, 8))
    least = quality._least_gain_total(gens, full, 1)
    # the floor-1 search stubbed to the total it finds, so the scan is the only one that counts
    monkeypatch.setattr(quality, "_least_gain_total", lambda gens, u, floor=0: least)
    monkeypatch.setattr(quality, "T_SEARCH_LIMIT", 55)
    assert least == 12 and max_gain(gens)[0] == GainValue(16 + 7 - 12)
    monkeypatch.setattr(quality, "T_SEARCH_LIMIT", 54)
    message = r"^witness scan at total 12 over s=7 coordinates at m=16 walked more than 54 stacks$"
    for scan in (lambda gens: first_rank_deficient_k(gens, full), max_gain):
        with pytest.raises(ResourceLimitError, match=message):
            scan(gens)


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
        for k in compositions(depth, shift.s):
            assert microstructure_A(shift_points, k) == m - depth


def test_cell_counts_past_one_packed_key():
    # k = (13,) * 5 needs 65 key bits, past one uint64: the cells are sorted as rows
    rng = random.Random(47)
    m = 13
    # singular matrices with only their last two rows random: a cell sees two
    # digits a coordinate, so it holds 2^3 points or more, and one digit
    # fewer at each coordinate would merge cells
    low = [BitMatrix(m, (0,) * (m - 2) + (rng.randrange(1 << m), rng.randrange(1 << m)))
           for _ in range(5)]
    points = generate_points(GeneratorSet(tuple(low)))
    for k in ((13,) * 5, (13, 13, 13, 13, 12), (9, 13, 0, 13, 13)):
        cells = Counter(tuple(int(x) >> (m - kj) for x, kj in zip(row, k))
                        for row in points.coords)
        assert sorted(oracles._cell_counts(points, k)) == sorted(cells.values())
        assert microstructure_A(points, k) == (max(cells.values()) - 1).bit_length() > 0
    assert sum((13,) * 5) > oracles._PACK_LIMIT >= sum((13, 13, 13, 13, 12))


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
    # stacks in [0, m + 1]^s up to total m + 1, and the m + 2 entries of the table
    work = sum(sum(k) <= m + 1 for k in itertools.product(range(m + 2), repeat=s)) + m + 2
    monkeypatch.setattr(quality, "A_K_KEY_LIMIT", work)
    assert quality_report(shift, a_k_max=m + 1).a_k[m + 1] == microstructure_AK(
        generate_points(shift), m + 1
    )
    monkeypatch.setattr(quality, "A_K_KEY_LIMIT", work - 1)
    with pytest.raises(ResourceLimitError, match=f"a_k_max={m + 1} over m={m}, s={s} "):
        quality_report(shift, a_k_max=m + 1)
    assert quality_report(shift).a_k == {0: 4, 1: 3, 2: 2, 3: 1, 4: 1}


def a_k_nets(count: int):
    """Random nets with ``s <= 5`` and ``m <= 9 - s``, each with an ``a_k_max`` up to
    past ``s(m + 1)``: dense, sparse, with a row zeroed or repeated, or with a matrix repeated."""
    rng = random.Random(1729)
    for i in range(count):
        s = rng.randint(1, 5)
        m = rng.randint(1, min(8, 9 - s))
        mats = []
        for _ in range(s):
            if mats and i % 4 == 3:
                mats.append(rng.choice(mats))
                continue
            rows = [rng.randrange(1 << m) for _ in range(m)]
            if i % 4 == 1:
                rows = [r & rng.randrange(1 << m) & rng.randrange(1 << m) for r in rows]
            elif i % 4 == 2:
                rows[rng.randrange(m)] = rng.choice([0, rows[rng.randrange(m)]])
            mats.append(BitMatrix(m, tuple(rows)))
        yield GeneratorSet(tuple(mats)), rng.randint(0, s * (m + 1) + 2)


def test_quality_report_a_k_is_the_box_count():
    deficient = 0
    for gens, a in a_k_nets(300):
        points = generate_points(gens)
        want = {kk: microstructure_AK(points, kk) for kk in range(a + 1)}
        assert quality_report(gens, a_k_max=a).a_k == want, (gens, a)
        deficient += any(want[kk] > max(0, gens.m - kk) for kk in want)
    assert deficient > 100


def test_quality_report_reads_no_points(monkeypatch):
    from netgains import netgen

    gens = sobol_net(4, 6)
    want = {kk: microstructure_AK(generate_points(gens), kk) for kk in range(4 * 7 + 2)}

    def no_boxes(points, k):
        raise AssertionError("a dyadic box counted")

    monkeypatch.setattr(quality, "_cell_counts", no_boxes)
    monkeypatch.setattr(netgen, "POINT_VALUE_LIMIT", 0)
    assert quality_report(gens, a_k_max=4 * 7 + 1).a_k == want


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
