"""From-scratch GF(2) references: reduced row echelon form, nullspaces, stacks.

The library answers every rank question through one ``PivotTable`` and
every nullspace question through one ``KernelWalk`` per subset, sharing the
work of a common prefix of rows.  The helpers here redo each question on
its own matrix, with no state carried over, so the tests can hold the
incremental routes against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from netgains.gf2 import BitMatrix, PivotTable
from netgains.netgen import GeneratorSet, SubsetIndex


@dataclass(frozen=True)
class RowReduction:
    reduced: BitMatrix
    rank: int
    pivot_cols: tuple[int, ...]


def row_reduce(matrix: BitMatrix) -> RowReduction:
    """Reduced row echelon form over GF(2).

    The result keeps the original number of rows: pivot rows come first in
    pivot-column order, zero rows pad the bottom.  The row space is
    preserved and ``rank`` agrees with :func:`nullspace_rank`.
    """
    table = PivotTable(matrix.ncols)
    for row in matrix.rows:
        table.push(row)
    # pivot-column order is descending bit_length; then clear above pivots
    pivot_rows = [row for row in reversed(table.pivots) if row]
    for i in range(len(pivot_rows)):
        for j in range(i + 1, len(pivot_rows)):
            lead = pivot_rows[j].bit_length()
            if (pivot_rows[i] >> (lead - 1)) & 1:
                pivot_rows[i] ^= pivot_rows[j]
    r = len(pivot_rows)
    pivot_cols = tuple(matrix.ncols - row.bit_length() + 1 for row in pivot_rows)
    padded = tuple(pivot_rows) + (0,) * (matrix.nrows - r)
    return RowReduction(BitMatrix(matrix.ncols, padded), r, pivot_cols)


def nullspace_of_rows(rows: Iterable[int], ncols: int) -> list[int]:
    """Packed basis of {x : row . x = 0 for every row}; ``ncols - rank`` vectors.

    Rows and basis vectors are ``ncols`` bits wide, column 1 most
    significant.  The rows are brought to echelon form indexed by leading
    bit; each free column then gives one vector, in column order, whose
    pivot bits are solved from the lowest pivot up.  The elimination is its
    own, not :class:`PivotTable`'s.
    """
    pivots = [0] * (ncols + 1)
    for row in rows:
        while row:
            lead = row.bit_length()
            pivot = pivots[lead]
            if not pivot:
                pivots[lead] = row
                break
            row ^= pivot
    out = []
    for free in range(ncols, 0, -1):
        if pivots[free]:
            continue
        vec = 1 << (free - 1)
        # the bits of vec below ``lead`` are final; pivot row ``lead`` sets its own
        for lead in range(1, ncols + 1):
            pivot = pivots[lead]
            if pivot and (pivot & vec).bit_count() & 1:
                vec |= 1 << (lead - 1)
        out.append(vec)
    return out


def nullspace_basis(matrix: BitMatrix) -> tuple[int, ...]:
    """Packed basis of {x : matrix @ x = 0}; has ``ncols - rank`` elements."""
    return tuple(nullspace_of_rows(matrix.rows, matrix.ncols))


def nullspace_rank(rows: Iterable[int], ncols: int) -> int:
    """Rank of ``ncols``-bit rows: ``ncols`` minus the dimension of their nullspace."""
    return ncols - len(nullspace_of_rows(rows, ncols))


def assemble_cuk(gens: GeneratorSet, idx: SubsetIndex) -> BitMatrix:
    """Stack the first k_j rows of each selected generator matrix (zero past row m)."""
    gens.validate_index(idx)
    rows = tuple(gens.row(j, ell) for j, kj in zip(idx.u, idx.k) for ell in range(1, kj + 1))
    return BitMatrix(gens.m, rows)
