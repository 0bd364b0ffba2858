"""GF(2) kernel: examples pinned by hand plus randomized invariants.

Derived expectations are frozen from independent brute force: row-space
membership by enumerating all 2**nrows combinations, solution counts by
trying all 2**ncols vectors.  Membership is read off the pivot table, the
way the gain kernel reads it; ranks come from the nullspace reference, an
elimination of its own.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2_reference import nullspace_basis, nullspace_of_rows, nullspace_rank, row_reduce
from netgains.gf2 import BitMatrix, PivotTable


def matrix(*lines: str) -> BitMatrix:
    return BitMatrix(len(lines[0]), tuple(int(line, 2) for line in lines))


def rank(mat: BitMatrix) -> int:
    return nullspace_rank(mat.rows, mat.ncols)


ANTI_DIAG = matrix("0001", "0010", "0100", "1000")


def brute_row_space(mat: BitMatrix) -> set[int]:
    out = set()
    for picks in itertools.product([0, 1], repeat=mat.nrows):
        acc = 0
        for take, row in zip(picks, mat.rows):
            if take:
                acc ^= row
        out.add(acc)
    return out


def random_matrix(rng: random.Random, nrows: int, ncols: int) -> BitMatrix:
    return BitMatrix(ncols, tuple(rng.randrange(1 << ncols) for _ in range(nrows)))


def transpose(mat: BitMatrix) -> BitMatrix:
    cols = []
    for c in range(1, mat.ncols + 1):
        packed = 0
        for i in range(mat.nrows):
            packed = (packed << 1) | ((mat.rows[i] >> (mat.ncols - c)) & 1)
        cols.append(packed)
    return BitMatrix(mat.nrows, tuple(cols))


def in_row_space(mat: BitMatrix, vec: int) -> bool:
    table = PivotTable(mat.ncols)
    for row in mat.rows:
        table.push(row)
    return table.residual(vec) == 0


def solution_count_log2(mat: BitMatrix, rhs: int) -> int | None:
    """log2 of #{x : mat @ x = rhs}: 2**(ncols - rank) if rhs keeps the rank, else none.

    ``rhs`` is packed ``nrows`` bits wide."""
    aug = BitMatrix(
        mat.ncols + 1,
        tuple((row << 1) | ((rhs >> (mat.nrows - 1 - i)) & 1) for i, row in enumerate(mat.rows)),
    )
    r = rank(mat)
    return mat.ncols - r if rank(aug) == r else None


# --- rank --------------------------------------------------------------------

def test_rank_anti_diagonal_full():
    assert rank(ANTI_DIAG) == row_reduce(ANTI_DIAG).rank == 4


def test_rank_zero_matrix():
    mat = BitMatrix(5, (0,) * 5)
    assert rank(mat) == row_reduce(mat).rank == 0


def test_rank_xor_dependent_rows():
    mat = matrix("1100", "0110", "1010")
    assert rank(mat) == row_reduce(mat).rank == 2


def test_rank_empty_matrix():
    mat = BitMatrix(4, ())
    assert rank(mat) == row_reduce(mat).rank == 0


def test_rank_equals_transpose_rank():
    rng = random.Random(1)
    for _ in range(10_000):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        mat = random_matrix(rng, nrows, ncols)
        assert rank(mat) == rank(transpose(mat))


# --- row_reduce -----------------------------------------------------------

def test_row_reduce_identity():
    red = row_reduce(BitMatrix.identity(4))
    assert red.reduced == BitMatrix.identity(4)
    assert red.rank == 4
    assert red.pivot_cols == (1, 2, 3, 4)


def test_row_reduce_duplicate_row():
    red = row_reduce(matrix("11", "11"))
    assert red.reduced.rows == (0b11, 0)
    assert red.rank == 1
    assert red.pivot_cols == (1,)


def test_row_reduce_dependent_triple():
    red = row_reduce(matrix("0110", "1100", "1010"))
    assert red.rank == 2
    assert len(red.pivot_cols) == 2


def test_row_reduce_preserves_row_space():
    rng = random.Random(7)
    for _ in range(300):
        mat = random_matrix(rng, rng.randint(0, 6), rng.randint(1, 6))
        red = row_reduce(mat)
        assert brute_row_space(mat) == brute_row_space(red.reduced)
        assert red.rank == rank(mat)
        assert red.reduced.nrows == mat.nrows


# --- row-space membership ------------------------------------------------------

def test_zero_vector_always_in_span():
    mat = matrix("1011", "0001")
    assert in_row_space(mat, 0)
    assert in_row_space(BitMatrix(4, ()), 0)


def test_missing_basis_vector_not_in_span():
    mat = BitMatrix(4, BitMatrix.identity(4).rows[:3])
    assert not in_row_space(mat, 0b0001)


def test_xor_of_rows_in_span():
    mat = matrix("1100", "0110")
    assert in_row_space(mat, 0b1010)
    # frozen from enumerating all 4 combinations: {0000, 1100, 0110, 1010}
    assert brute_row_space(mat) == {0b0000, 0b1100, 0b0110, 0b1010}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_in_row_space_matches_rank_append(data):
    ncols = data.draw(st.integers(1, 6))
    nrows = data.draw(st.integers(0, 6))
    rows = tuple(data.draw(st.integers(0, (1 << ncols) - 1)) for _ in range(nrows))
    vec = data.draw(st.integers(0, (1 << ncols) - 1))
    mat = BitMatrix(ncols, rows)
    member = in_row_space(mat, vec)
    assert member == (rank(BitMatrix(ncols, rows + (vec,))) == rank(mat))
    assert member == (vec in brute_row_space(mat))


# --- solution counts ------------------------------------------------------------

def brute_solution_count(mat: BitMatrix, rhs: int) -> int:
    hits = 0
    for x in range(1 << mat.ncols):
        out = 0
        for row in mat.rows:
            out = (out << 1) | ((row & x).bit_count() & 1)
        hits += out == rhs
    return hits


def test_solution_count_identity_unique():
    for y in range(16):
        assert solution_count_log2(BitMatrix.identity(4), y) == 0


def test_solution_count_inconsistent():
    assert solution_count_log2(BitMatrix(3, (0,)), 1) is None


def test_solution_count_two_free_bits():
    mat = matrix("1100", "0110")
    # frozen from enumerating all 16 vectors: 4 solutions
    assert brute_solution_count(mat, 0b11) == 4
    assert solution_count_log2(mat, 0b11) == 2


def test_homogeneous_system_never_inconsistent():
    rng = random.Random(3)
    for _ in range(500):
        mat = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        got = solution_count_log2(mat, 0)
        assert got == mat.ncols - row_reduce(mat).rank == len(nullspace_basis(mat))
        assert brute_solution_count(mat, 0) == 1 << got


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_solution_count_matches_enumeration(data):
    ncols = data.draw(st.integers(1, 5))
    nrows = data.draw(st.integers(1, 5))
    mat = BitMatrix(
        ncols, tuple(data.draw(st.integers(0, (1 << ncols) - 1)) for _ in range(nrows))
    )
    rhs = data.draw(st.integers(0, (1 << nrows) - 1))
    got = solution_count_log2(mat, rhs)
    want = brute_solution_count(mat, rhs)
    assert (want == 0 and got is None) or want == 1 << got


# --- nullspace and dependencies ----------------------------------------------

def rref_nullspace(mat: BitMatrix) -> list[int]:
    """Nullspace basis read off :func:`row_reduce`: one vector per free column."""
    red = row_reduce(mat)
    n = mat.ncols
    out = []
    for free in range(1, n + 1):
        if free in red.pivot_cols:
            continue
        vec = 1 << (n - free)
        for row, pcol in zip(red.reduced.rows, red.pivot_cols):
            if (row >> (n - free)) & 1:
                vec |= 1 << (n - pcol)
        out.append(vec)
    return out


def test_nullspace_basis_kills_matrix():
    rng = random.Random(11)
    for _ in range(300):
        mat = random_matrix(rng, rng.randint(0, 6), rng.randint(1, 6))
        basis = nullspace_basis(mat)
        assert len(basis) == mat.ncols - row_reduce(mat).rank
        for vec in basis:
            assert all((row & vec).bit_count() % 2 == 0 for row in mat.rows)
        # basis vectors are independent
        assert row_reduce(BitMatrix(mat.ncols, basis)).rank == len(basis)
        assert list(basis) == nullspace_of_rows(mat.rows, mat.ncols)
        assert nullspace_of_rows(mat.rows, mat.ncols) == rref_nullspace(mat)


# --- pivot table -------------------------------------------------------------------

def test_pivot_table_undo_restores_earlier_span():
    rng = random.Random(13)
    for _ in range(300):
        ncols = rng.randint(1, 8)
        rows = [rng.randrange(1 << ncols) for _ in range(rng.randint(0, 10))]
        cut = rng.randint(0, len(rows))
        table = PivotTable(ncols)
        for row in rows[:cut]:
            table.push(row)
        mark = table.rank
        assert mark == rank(BitMatrix(ncols, tuple(rows[:cut])))
        for row in rows[cut:]:
            table.push(row)
        assert table.rank == rank(BitMatrix(ncols, tuple(rows)))
        table.undo(mark)
        assert table.rank == mark
        span = brute_row_space(BitMatrix(ncols, tuple(rows[:cut])))
        assert all((table.residual(v) == 0) == (v in span) for v in range(1 << ncols))


def test_residual_is_the_linear_normal_form():
    # zero at every pivot position, so one reduction per vector serves every XOR of them
    rng = random.Random(17)
    for _ in range(300):
        ncols = rng.randint(1, 12)
        rows = [rng.randrange(1 << ncols) for _ in range(rng.randint(0, 14))]
        cut = rng.randint(0, len(rows))
        table = PivotTable(ncols)
        for row in rows[:cut]:
            table.push(row)
        mark = table.rank
        for row in rows[cut:]:
            table.push(row)
        for undone in (False, True):
            if undone:
                table.undo(mark)
            pivot_bits = sum(1 << (lead - 1) for lead in table.log)
            for _ in range(20):
                a, b = rng.randrange(1 << ncols), rng.randrange(1 << ncols)
                ra, rb = table.residual(a), table.residual(b)
                assert table.residual(a ^ b) == ra ^ rb
                assert ra & pivot_bits == 0
                assert table.residual(a ^ ra) == 0  # a differs from its residual by the row space


# --- construction guards -------------------------------------------------------

def test_width_limit_enforced():
    with pytest.raises(ValueError):
        BitMatrix(65, ())


def test_row_overflow_rejected():
    with pytest.raises(ValueError):
        BitMatrix(3, (0b1000,))


def test_string_roundtrip():
    mat = matrix("101", "010")
    assert mat.rows == (0b101, 0b010)
    assert str(mat).splitlines() == ["101", "010"]
