"""Bit-packed linear algebra over GF(2).

Rows and vectors of length ``m <= 64`` are packed into single Python ints
with column 1 in the most significant position, so the row string "0110"
packs to ``0b0110`` when ``ncols = 4``.  All arithmetic is XOR/AND on
machine words, which is what makes the enumeration loops elsewhere in the
package affordable.

Matrices are immutable after construction.  :class:`PivotTable` is the
mutable piece: the elimination state that every rank and membership
question in the package goes through.
Its :meth:`~PivotTable.residual` is the normal form of a vector, zero at
every pivot position, so it is linear: the residual of an XOR of vectors
is the XOR of their residuals, and one reduction per vector answers the
membership of all their XOR combinations.
Nullspaces are the nullspace gain oracle's own business
(:class:`netgains.gains.KernelWalk`), so they share no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_COLS = 64


@dataclass(frozen=True)
class BitMatrix:
    """A stack of equal-length packed rows; ``nrows == 0`` is allowed."""

    ncols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.ncols <= MAX_COLS:
            raise ValueError(f"ncols must be in [1, {MAX_COLS}], got {self.ncols}")
        limit = 1 << self.ncols
        for i, row in enumerate(self.rows):
            if not 0 <= row < limit:
                raise ValueError(f"row {i} (0x{row:x}) does not fit in {self.ncols} columns")

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, tuple(1 << (n - 1 - i) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:
        return "\n".join(format(r, f"0{self.ncols}b") for r in self.rows)


# --- elimination ---------------------------------------------------------------

class PivotTable:
    """Reduced rows indexed by leading bit (``bit_length``), with an undo log.

    Over GF(2) leading bits of reduced rows are unique, so one slot per bit
    position holds the whole basis.  ``push`` records the slot it fills, and
    ``undo(mark)`` empties every slot filled since ``rank`` was ``mark``;
    that is what lets a depth-first walk share the elimination of a common
    prefix of rows.  Rows up to ``ncols`` bits wide fit.
    """

    __slots__ = ("pivots", "log")

    def __init__(self, ncols: int):
        self.pivots = [0] * (ncols + 1)
        self.log: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.log)

    def residual(self, vec: int) -> int:
        """Normal form of ``vec``: the one vector of ``vec`` + row space that is
        zero at every pivot position.  0 iff ``vec`` lies in the row space, and
        linear in ``vec``.  Each pivot has its own leading bit, so reducing from
        the top clears each pivot position for good."""
        pivots = self.pivots
        rest = 0
        while vec:
            lead = vec.bit_length()
            pivot = pivots[lead]
            if pivot:
                vec ^= pivot
            else:
                top = 1 << (lead - 1)
                rest |= top
                vec ^= top
        return rest

    def push(self, vec: int) -> bool:
        """Add the residual of ``vec`` as a new pivot. True if rank grew."""
        pivots = self.pivots
        while vec:
            lead = vec.bit_length()
            pivot = pivots[lead]
            if not pivot:
                pivots[lead] = vec
                self.log.append(lead)
                return True
            vec ^= pivot
        return False

    def undo(self, mark: int) -> None:
        """Drop the pivots pushed since the rank was ``mark``."""
        pivots, log = self.pivots, self.log
        while len(log) > mark:
            pivots[log.pop()] = 0


__all__ = [
    "MAX_COLS",
    "BitMatrix",
    "PivotTable",
]
