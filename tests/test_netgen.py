"""Construction: parsing, point generation, stacked matrices."""

import io
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from gf2_reference import assemble_cuk, nullspace_rank
from netgains.gains import NullTable
from netgains.gf2 import BitMatrix, PivotTable
from netgains.netgen import (
    DIRECTION_NUMBERS,
    RAW,
    DirectionEntry,
    GeneratorSet,
    NetPoints,
    POINT_VALUE_LIMIT,
    ParseError,
    ResourceLimitError,
    StackWalk,
    SubsetIndex,
    _match_depth,
    direction_columns,
    generate_points,
    load_generators,
    parse_direction_numbers,
)
from netgains.quality import compositions
from netgains.suites import random_generator_set
from netgains.samples import JOE_KUO_HEAD, SHIFT_NET_RAW, shift_net, sobol_net

# Pascal matrix mod 2: entry (r, c) = C(c-1, r-1) mod 2; derived by running
# the direction-number recurrence by hand for a=0, m_1=1: m = 1,3,5,15.
PASCAL_4 = BitMatrix(4, (0b1111, 0b0101, 0b0011, 0b0001))


# --- raw format ---------------------------------------------------------------

def test_parse_shift_net(shift):
    assert shift.s == 4 and shift.m == 4
    assert shift.matrices[0].rows == (0b0001, 0b0110, 0b0010, 0b0000)
    assert shift.matrices[3].rows == (0b1000, 0b0011, 0b0001, 0b0000)


def test_parse_accepts_stream():
    gens = load_generators(io.StringIO(SHIFT_NET_RAW), RAW)
    assert gens.s == 4


# input -> (the line it reports, the message after "line N: ")
RAW_FAULTS = {
    "4\n": (1, "header must be 's m', got '4'"),
    "x 4\n": (1, "header must be two integers, got 'x 4'"),
    "1 2\n01\n0x\n": (3, "non-binary digit in row '0x'"),
    "1 2\n01\n011\n": (3, "expected 2 binary digits, got 3"),
    "1 2\n01\n": (2, "unexpected end of input"),  # truncated: error reported at last line
    "1 2\n01\n10\njunk\n": (4, "unexpected content 'junk'"),
    "": (1, "unexpected end of input"),
    "\n\n": (2, "unexpected end of input"),
    "1 2\n": (1, "unexpected end of input"),
    "\n1 2\n01\n\n": (4, "unexpected end of input"),
    "\n\n1 2\n\n01\n\n10\n\n\njunk\n": (10, "unexpected content 'junk'"),
    "1 2\n\n01\n\n0x\n": (5, "non-binary digit in row '0x'"),
    "2 1\n1\n\n": (3, "unexpected end of input"),
}


@pytest.mark.parametrize("text,line", [(text, line) for text, (line, _) in RAW_FAULTS.items()])
def test_parse_raw_errors_carry_line(text, line):
    with pytest.raises(ParseError) as err:
        load_generators(text, RAW)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {RAW_FAULTS[text][1]}"


def test_parse_raw_rejects_overrides():
    with pytest.raises(ValueError):
        load_generators(SHIFT_NET_RAW, RAW, dims=2, m=4)


# --- direction numbers --------------------------------------------------------

def test_dimension_one_is_identity():
    gens = load_generators(JOE_KUO_HEAD, DIRECTION_NUMBERS, dims=1, m=5)
    assert gens.matrices[0] == BitMatrix.identity(5)
    assert gens.s == 1


def test_dimension_two_is_pascal():
    gens = load_generators(JOE_KUO_HEAD, DIRECTION_NUMBERS, dims=2, m=4)
    assert gens.matrices[1] == PASCAL_4


def test_direction_columns_recurrence():
    entry = DirectionEntry(dim=2, degree=1, a=0, m_init=(1,))
    # hand recurrence: m_c = 2 m_{c-1} ^ m_{c-1} -> 1, 3, 5, 15
    assert direction_columns(entry, 4) == (0b1000, 0b1100, 0b1010, 0b1111)


def test_sobol_matrices_unit_upper_triangular():
    gens = load_generators(JOE_KUO_HEAD, DIRECTION_NUMBERS, dims=7, m=8)
    for mat in gens.matrices:
        for r, row in enumerate(mat.rows):
            # r zeros, then the diagonal one
            assert row.bit_length() == 8 - r


@pytest.mark.parametrize(
    "line",
    [
        "2 2 0 1",         # degree 2 but one initial value
        "2 1 0 2",         # even m_1
        "2 1 0 1 9",       # too many initial values
        "2 1 1 1",         # a out of range for degree 1
        "1 1 0 1",         # dimension below 2
        "2 x 0 1",         # non-integer
    ],
)
def test_direction_number_entry_errors(line):
    with pytest.raises(ParseError):
        parse_direction_numbers(["d s a m_i", line])


def test_duplicate_dimension_rejected():
    with pytest.raises(ParseError):
        parse_direction_numbers(["hdr", "2 1 0 1", "2 1 0 1"])


def test_missing_dimension_reported():
    with pytest.raises(ParseError, match="dimension 3"):
        load_generators("hdr\n2 1 0 1\n4 1 0 1\n", DIRECTION_NUMBERS, dims=4, m=4)


def test_direction_numbers_need_dims_and_m():
    with pytest.raises(ValueError):
        load_generators(JOE_KUO_HEAD, DIRECTION_NUMBERS)


# --- input checks -----------------------------------------------------------------

@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: GeneratorSet(()), ValueError, "need at least one generator matrix"),
        (lambda: GeneratorSet((BitMatrix.identity(2), BitMatrix(2, (1,)))), ValueError,
         "matrix 2 is 1x2, expected 2x2"),
        (lambda: GeneratorSet((BitMatrix.identity(33),)), ValueError,
         "m must be in [1, 32] for point generation, got 33"),
        (lambda: shift_net().row(5, 1), IndexError, "coordinate 5 out of range 1..4"),
        (lambda: shift_net().row(1, 0), IndexError, "row index 0 out of range"),
        (lambda: NetPoints(np.zeros(4), 2), ValueError, "coords must be 2-dimensional"),
        (lambda: NetPoints(np.zeros((1, 1)), 0), ValueError, "m must be in [1, 32]"),
        (lambda: NetPoints(np.zeros((3, 1)), 2), ValueError, "expected 4 points for m=2, got 3"),
        (lambda: NetPoints(np.arange(4).reshape(4, 1) * 2, 2), ValueError,
         "numerator out of range for m bits"),
        (lambda: load_generators(SHIFT_NET_RAW, "xml"), ValueError, "unknown format 'xml'"),
        (lambda: load_generators("0 2\n", RAW), ParseError, "line 1: dimension s must be >= 1, got 0"),
        (lambda: load_generators("1 33\n", RAW), ParseError, "line 1: m must be in [1, 32], got 33"),
        (lambda: parse_direction_numbers(["hdr", "2 1 0"]), ParseError,
         "line 2: expected 'd s a m_1 ... m_s', got '2 1 0'"),
        (lambda: parse_direction_numbers(["hdr", "2 0 0 1"]), ParseError,
         "line 2: polynomial degree must be >= 1, got 0"),
        (lambda: parse_direction_numbers(["", "  "]), ParseError, "line 1: empty direction-number input"),
        (lambda: load_generators(JOE_KUO_HEAD, DIRECTION_NUMBERS, dims=0, m=4), ValueError,
         "dims must be >= 1, got 0"),
        (lambda: load_generators(JOE_KUO_HEAD, DIRECTION_NUMBERS, dims=1, m=33), ValueError,
         "m must be in [1, 32], got 33"),
    ],
)
def test_input_checks_name_the_fault(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert err.type is error and str(err.value) == message


def test_blank_lines_parse():
    raw = load_generators("1 2\n10\n\n01\n\n  \n\n", RAW)
    assert raw.matrices == (BitMatrix(2, (0b10, 0b01)),)
    table = load_generators("\nhdr\n\n2 1 0 1\n\n", DIRECTION_NUMBERS, dims=2, m=4)
    assert table.matrices == (BitMatrix.identity(4), PASCAL_4)


# --- point generation -----------------------------------------------------------

def test_identity_gives_bit_reversed_counting(identity_net):
    pts = generate_points(identity_net(3))
    assert [int(v) for v in pts.coords[:, 0]] == [0, 4, 2, 6, 1, 5, 3, 7]


def test_point_zero_is_origin(shift):
    pts = generate_points(shift)
    assert not pts.coords[0].any()


def test_digital_map_is_linear(shift):
    pts = generate_points(shift)
    rng = random.Random(5)
    for _ in range(200):
        i, i2 = rng.randrange(16), rng.randrange(16)
        assert np.array_equal(pts.coords[i ^ i2], pts.coords[i] ^ pts.coords[i2])


def test_columns_recoverable_from_points(shift, sobol2d):
    for gens in (shift, sobol2d):
        pts = generate_points(gens)
        for j in range(1, gens.s + 1):
            for ell in range(1, gens.m + 1):
                column = int(pts.coords[1 << (ell - 1), j - 1])
                # column ell of the generator, read back from the matrix
                want = 0
                for r in range(1, gens.m + 1):
                    want |= ((gens.matrices[j - 1].rows[r - 1] >> (gens.m - ell)) & 1) << (gens.m - r)
                assert column == want


def test_points_match_column_xor_at_every_index(shift, sobol2d, identity_net):
    # point i is the XOR of the generator columns picked by the bits of i
    wide = random_generator_set(random.Random(12), 2, 12)
    for gens in (shift, sobol2d, identity_net(5, 2), wide, sobol_net(7, 8)):
        pts = generate_points(gens)
        m = gens.m
        for j in range(1, gens.s + 1):
            mat = gens.matrices[j - 1]
            cols = []
            for c in range(1, m + 1):
                cols.append(sum(((mat.rows[r - 1] >> (m - c)) & 1) << (m - r) for r in range(1, m + 1)))
            for i in range(gens.n):
                want = 0
                for c in range(1, m + 1):
                    if (i >> (c - 1)) & 1:
                        want ^= cols[c - 1]
                assert int(pts.coords[i, j - 1]) == want


def test_points_are_generated_without_a_second_copy():
    gens = sobol_net(7, 18)
    gens._columns  # cached on the net, not part of the points
    tracemalloc.start()
    try:
        points = generate_points(gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert points.coords.nbytes == 7 << 21  # 14 MiB
    assert peak <= 1.2 * points.coords.nbytes


def test_points_past_the_limit_are_refused_before_allocating():
    gens = sobol_net(7, 32)  # 2^32 x 7 values, 224 GiB
    gens._columns
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="m=32, s=7"):
            generate_points(gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert POINT_VALUE_LIMIT == 1 << 27
    assert peak < 1 << 20


def test_point_limit_counts_values(monkeypatch):
    import netgains.netgen as netgen_module
    from netgains import gains

    assert gains.ResourceLimitError is ResourceLimitError
    monkeypatch.setattr(netgen_module, "POINT_VALUE_LIMIT", 3 << 4)
    assert generate_points(sobol_net(3, 4)).coords.size == 3 << 4
    with pytest.raises(ResourceLimitError, match="m=5, s=3"):
        generate_points(sobol_net(3, 5))
    with pytest.raises(ResourceLimitError, match="m=4, s=4"):
        generate_points(sobol_net(4, 4))


def test_net_points_copy_the_callers_array(shift_points):
    coords = shift_points.coords.copy()
    points = NetPoints(coords, shift_points.m)
    assert not np.shares_memory(points.coords, coords)
    assert coords.flags.writeable and not points.coords.flags.writeable
    coords[3, 1] ^= 1
    assert np.array_equal(points.coords, shift_points.coords)


def test_match_depth_is_m_minus_bit_length():
    rng = random.Random(32)
    # the largest and a random value of every bit length 1..32, and zero
    values = [0]
    for b in range(1, 33):
        values += [(1 << b) - 1, rng.randrange(1 << (b - 1), 1 << b)]
    depth = _match_depth(np.array(values, dtype=np.uint64), 32)
    assert [int(d) for d in depth] == [32 + 2] + [32 - v.bit_length() for v in values[1:]]


def test_shift_net_balanced_to_depth_three(shift_points):
    # every dyadic box with total depth <= 3 holds exactly 2^(4-depth) points
    for depth in range(0, 4):
        want = 1 << (4 - depth)
        for k in compositions(depth, 4):
            shifts = np.array([4 - kj for kj in k], dtype=np.uint64)
            cells = shift_points.coords >> shifts
            _, counts = np.unique(cells, axis=0, return_counts=True)
            assert counts.min() == counts.max() == want


# --- stacked matrices -----------------------------------------------------------

def test_cuk_first_rows_anti_diagonal(shift):
    idx = SubsetIndex((1, 2, 3, 4), (1, 1, 1, 1))
    got = assemble_cuk(shift, idx)
    assert got == BitMatrix(4, (0b0001, 0b0010, 0b0100, 0b1000))
    assert nullspace_rank(got.rows, 4) == 4


def test_cuk_zero_depths_empty(shift):
    got = assemble_cuk(shift, SubsetIndex((2, 3), (0, 0)))
    assert got.nrows == 0


def test_cuk_pads_zero_rows(identity_net):
    m = 4
    got = assemble_cuk(identity_net(m), SubsetIndex((1,), (m + 2,)))
    assert got.nrows == m + 2
    assert got.rows[m:] == (0, 0)
    assert nullspace_rank(got.rows, m) == m


def next_rows_xor(gens, u, k):
    walk = StackWalk(gens, u, k, sum(k))
    visits = [nxt for _, _, nxt in walk]
    assert len(visits) == 1
    return visits[0]


def test_nabla_depth_zero_gives_first_rows(shift):
    got = next_rows_xor(shift, (1, 2, 3, 4), (0, 0, 0, 0))
    assert got == 0b0001 ^ 0b0010 ^ 0b0100 ^ 0b1000


def test_nabla_pads_zero_row(identity_net):
    assert next_rows_xor(identity_net(4), (1,), (4,)) == 0
    assert next_rows_xor(identity_net(4), (1,), (5,)) == 0


def test_nabla_second_rows(sobol2d):
    got = next_rows_xor(sobol2d, (1, 2), (1, 1))
    assert got == sobol2d.row(1, 2) ^ sobol2d.row(2, 2)


def test_stacking_cuk_nabla_gives_next_depth(shift, sobol2d):
    rng = random.Random(2)
    for gens in (shift, sobol2d):
        for _ in range(50):
            size = rng.randint(1, gens.s)
            u = tuple(sorted(rng.sample(range(1, gens.s + 1), size)))
            k = tuple(rng.randint(0, gens.m + 1) for _ in u)
            stacked = list(assemble_cuk(gens, SubsetIndex(u, k)).rows)
            stacked += [gens.row(j, kj + 1) for j, kj in zip(u, k)]
            bumped = assemble_cuk(gens, SubsetIndex(u, tuple(kj + 1 for kj in k)))
            assert sorted(stacked) == sorted(bumped.rows)


# --- the stack walk -----------------------------------------------------------------

def test_walk_matches_from_scratch_stacks():
    rng = random.Random(6)
    for _ in range(200):
        gens = random_generator_set(rng, rng.randint(1, 4), rng.randint(1, 6))
        size = rng.randint(1, gens.s)
        u = tuple(sorted(rng.sample(range(1, gens.s + 1), size)))
        floor = tuple(rng.randint(0, 2) for _ in u)
        cap = gens.m + 1  # the box is [floor, m + 1]
        budget = rng.randint(0, size * cap)
        walk = StackWalk(gens, u, floor, budget)
        seen = []
        for depth, rank_k, nxt in walk:
            k = tuple(walk.k)
            rows = list(assemble_cuk(gens, SubsetIndex(u, k)).rows)
            target = 0
            for j, kj in zip(u, k):
                target ^= gens.row(j, kj + 1)
            assert depth == sum(k)
            assert rank_k == nullspace_rank(rows, gens.m)
            assert nxt == target
            assert (walk.table.residual(nxt) == 0) == (nullspace_rank(rows + [target], gens.m) == rank_k)
            seen.append(k)
        want = [
            k for k in itertools.product(range(cap + 1), repeat=size)
            if sum(k) <= budget and all(a >= b for a, b in zip(k, floor))
        ]
        assert seen == want
        assert walk.table.rank == 0  # every push undone


def test_walk_cut_skips_exactly_its_slab():
    # cut walks against uncut ones: each cut must skip just the k' equal to k
    # before the cut level i and at least k[i] at it, in the box and budget
    rng = random.Random(12)
    cuts = {"first state": 0, "last coordinate": 0, "floor > 0": 0}
    for trial in range(300):
        gens = random_generator_set(rng, rng.randint(1, 4), rng.randint(1, 6))
        size = rng.randint(1, gens.s)
        u = tuple(sorted(rng.sample(range(1, gens.s + 1), size)))
        floor = tuple(rng.randint(0, 2) for _ in u)
        cap = gens.m + 1  # the box is [floor, m + 1]
        budget = rng.randint(0, size * cap)
        uncut = StackWalk(gens, u, floor, budget)
        full = {tuple(uncut.k): state for state in uncut}
        walk = StackWalk(gens, u, floor, budget)
        seen = []
        for state in walk:
            k = tuple(walk.k)
            assert state == full[k]
            if not (rng.random() < 0.3 or (trial % 5 == 0 and not seen)):
                seen.append(k)
                continue
            i = walk.cut()
            assert i == max((j for j in range(size) if k[j] > floor[j]), default=0)
            tails = itertools.product(range(k[i], cap + 1), *(range(f, cap + 1) for f in floor[i + 1 :]))
            seen += [k[:i] + tail for tail in tails if sum(k[:i]) + sum(tail) <= budget]
            cuts["first state"] += not seen[:-1] and k == floor
            cuts["last coordinate"] += size > 1 and i == size - 1
            cuts["floor > 0"] += any(floor)
        assert seen == list(full)
        assert walk.table.rank == 0  # every push undone
    assert min(cuts.values()) >= 20, cuts


def test_walk_pushes_only_the_rows_of_the_stacks_it_yields():
    # a prefix k[:i + 1] costs floor[i] pushes on entering level i and 1 per step
    # up, so the walk pushes exactly the rows of the tree of the k it yields
    class Counting(PivotTable):
        pushes = 0

        def push(self, vec):
            self.pushes += 1
            return super().push(vec)

    rng = random.Random(13)
    for _ in range(300):
        gens = random_generator_set(rng, rng.randint(1, 4), rng.randint(1, 6))
        size = rng.randint(1, gens.s)
        u = tuple(sorted(rng.sample(range(1, gens.s + 1), size)))
        floor = tuple(rng.randint(0, 2) for _ in u)
        table = Counting(gens.m)
        walk = StackWalk(gens, u, floor, rng.randint(0, size * (gens.m + 1)), table)
        prefixes = {tuple(walk.k[: i + 1]) for _ in walk for i in range(size)}
        assert table.pushes == sum(floor[len(p) - 1] if p[-1] == floor[len(p) - 1] else 1 for p in prefixes)


@pytest.mark.parametrize("table", [PivotTable, NullTable])
def test_walk_started_again_after_an_early_exit_starts_afresh(table):
    # left after 7 yields the table still holds pushed rows, and left right
    # after a cut() the cut is still pending: a second walk drops both
    gens, u, floor, budget = sobol_net(3, 5), (1, 2, 3), (0, 0, 0), 6
    fresh = StackWalk(gens, u, floor, budget, table(gens.m))
    want = [(tuple(fresh.k), state) for state in fresh]
    assert len(want) == 84
    for cut in (False, True):
        walk = StackWalk(gens, u, floor, budget, table(gens.m))
        for _ in itertools.islice(walk, 7):
            pass
        if cut:
            walk.cut()
        assert len(walk.table.log) > 0
        assert [(tuple(walk.k), state) for state in walk] == want
        assert len(walk.table.log) == 0  # the rank: every push undone


def test_walk_validates_arguments(shift):
    # u, the floor's length and an entry past m + 1: test_both_walks_refuse_a_bad_u_or_floor_length
    for floor in ((-1,), (0, -1)):
        with pytest.raises(ValueError, match=r"floor entries must be in \[0, 5\]"):
            StackWalk(shift, (1, 2)[: len(floor)], floor, 4)
    walk = StackWalk(shift, (1,), (5,), 5)  # a floor of m + 1 is the far corner of the box
    assert [tuple(walk.k) for _ in walk] == [(5,)]


@pytest.mark.parametrize("walk", [lambda *a: StackWalk(*a, 4), lambda g, *a: StackWalk(g, *a, 4, NullTable(g.m))],
                         ids=["stack", "kernel"])
def test_both_walks_refuse_a_bad_u_or_floor_length(shift, walk):
    for u in ((), (0, 2), (1, 5), (2, 1), (1, 3, 3)):
        with pytest.raises(ValueError, match=r"u must be nonempty coordinates in 1\.\.4"):
            walk(shift, u, (0,) * len(u))
    with pytest.raises(ValueError, match="floor has 1 entries for 2 coordinates"):
        walk(shift, (1, 2), (0,))
    with pytest.raises(ValueError, match=r"floor entries must be in \[0, 5\], got \(0, 6\)"):
        walk(shift, (1, 2), (0, shift.m + 2))


# --- SubsetIndex validation -------------------------------------------------------

@pytest.mark.parametrize(
    "u,k",
    [((), ()), ((2, 1), (0, 0)), ((0,), (1,)), ((1,), (1, 2)), ((1,), (-1,))],
)
def test_subset_index_rejects_bad_shapes(u, k):
    with pytest.raises(ValueError):
        SubsetIndex(u, k)


def test_subset_index_and_the_walks_share_one_subset_check(shift, monkeypatch):
    from netgains import netgen

    for u in ((), (0, 2), (2, 1), (1, 3, 3)):  # refused by both, each with its own message
        with pytest.raises(ValueError):
            SubsetIndex(u, (0,) * len(u))
        with pytest.raises(ValueError, match=r"u must be nonempty coordinates in 1\.\.4"):
            StackWalk(shift, u, (0,) * len(u), 1)
    real, calls = netgen._coordinates, []
    monkeypatch.setattr(netgen, "_coordinates", lambda s, u: calls.append((s, tuple(u))) or real(s, u))
    SubsetIndex((1, 3), (0, 2))
    StackWalk(shift, (1, 3), (0, 0), 1)
    assert calls == [(None, (1, 3)), (4, (1, 3))]


def test_subset_index_out_of_dimension(shift):
    with pytest.raises(ValueError):
        assemble_cuk(shift, SubsetIndex((1, 5), (1, 1)))
