"""Reference computations the benchmark judges the program's outputs by.

Nothing here imports ``netgains``.  Every function works from a definition:
points from generator columns, gains from the pairwise sum over points, ``t``
from point counts in dyadic boxes and the size of the ``(u, k)`` box by
counting.  A net is given as ``rows[j][l - 1]``: row ``l`` of generator
matrix ``j + 1``, packed with column 1 in the most significant of ``m`` bits.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator, Sequence

import numpy as np

_CHUNK = 256  # point rows per block of the pairwise sum


def columns(matrix_rows: Sequence[int], m: int) -> list[int]:
    """Column ``c`` of one generator matrix as an m-bit numerator (row 1 is the top bit)."""
    cols = []
    for c in range(1, m + 1):
        packed = 0
        for ell, row in enumerate(matrix_rows, start=1):
            packed |= ((row >> (m - c)) & 1) << (m - ell)
        cols.append(packed)
    return cols


def points(rows: Sequence[Sequence[int]], m: int) -> np.ndarray:
    """All ``2**m`` points as an ``(n, s)`` array of uint64 numerators.

    Point ``i`` is the XOR of the columns ``c`` whose bit ``c`` of ``i`` is
    set (bit 1 is the least significant).  Built by doubling: points
    ``2**(c-1) .. 2**c - 1`` are the first ``2**(c-1)`` points XOR column ``c``.
    """
    out = np.zeros((1 << m, len(rows)), dtype=np.uint64)
    for j, matrix_rows in enumerate(rows):
        col = out[:, j]
        for c, value in enumerate(columns(matrix_rows, m), start=1):
            half = 1 << (c - 1)
            col[half : 2 * half] = col[:half] ^ np.uint64(value)
    return out


def _agree(xor: np.ndarray, m: int, d: int) -> np.ndarray:
    """1 where two m-bit numerators share their first ``d`` bits (all bits once d >= m)."""
    return ((xor >> np.uint64(max(m - d, 0))) == 0).astype(np.int64)


def pair_gain(pts: np.ndarray, m: int, u: Sequence[int], k: Sequence[int]) -> Fraction:
    """Gain at ``(u, k)`` by its definition, the sum over ordered point pairs.

    A pair adds the product over ``j in u`` of +1 when its coordinates ``j``
    agree beyond ``k_j`` leading bits, -1 when they agree in exactly ``k_j``
    and 0 otherwise, i.e. of ``2 [agree k_j + 1] - [agree k_j]``.  The sum
    is divided by ``n``.  Exact integers; O(n^2) time in blocks of rows.
    """
    n = pts.shape[0]
    total = 0
    for start in range(0, n, _CHUNK):
        prod = None
        for j, kj in zip(u, k):
            col = pts[:, j - 1]
            xor = col[start : start + _CHUNK, None] ^ col[None, :]
            w = 2 * _agree(xor, m, kj + 1) - _agree(xor, m, kj)
            prod = w if prod is None else prod * w
        total += int(prod.sum())
    return Fraction(total, n)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every ``parts``-tuple of non-negative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def balanced(values: np.ndarray, bits: int, coords: Sequence[int], k: Sequence[int]) -> bool:
    """True iff every dyadic box of depth ``k_j`` along coordinate ``coords[j]``
    holds ``n / 2**|k|`` of the ``bits``-digit values."""
    key = np.zeros(values.shape[0], dtype=np.uint64)
    for j, kj in zip(coords, k):
        key = (key << np.uint64(kj)) | (values[:, j - 1] >> np.uint64(bits - kj))
    counts = np.bincount(key.astype(np.int64), minlength=1 << sum(k))
    return bool((counts == values.shape[0] >> sum(k)).all())


def counting_t(pts: np.ndarray, m: int) -> int:
    """Smallest ``t`` for which every box of volume ``2**(t - m)`` holds ``2**t`` points."""
    coords = range(1, pts.shape[1] + 1)
    for t in range(m + 1):
        if all(balanced(pts, m, coords, k) for k in compositions(m - t, pts.shape[1])):
            return t
    raise AssertionError("unreachable: t = m leaves one box holding every point")


def is_permutation(column: np.ndarray, bits: int) -> bool:
    """True iff ``column`` holds each of ``0 .. 2**bits - 1`` exactly once."""
    return column.shape[0] == 1 << bits and bool(
        (np.bincount(column.astype(np.int64), minlength=1 << bits) == 1).all()
    )


def pair_count(s: int, m: int, depth: int | None = None) -> int:
    """Number of ``(u, k)``: nonempty ``u`` in ``1..s``, each ``k_j`` in ``0..m+1``.

    Without ``depth`` this is the closed form ``(m + 3)**s - 1``.  With it,
    only ``|k| <= depth`` counts, and the tuples are counted directly.
    """
    cap = m + 1
    if depth is None:
        return (m + 3) ** s - 1
    ways = [1] + [0] * depth  # ways[d]: r-tuples in [0, cap] summing to d
    total = 0
    for r in range(1, s + 1):
        ways = [sum(ways[d - x] for x in range(min(cap, d) + 1)) for d in range(depth + 1)]
        total += comb(s, r) * sum(ways)
    return total


def box(s: int, m: int, depth: int | None = None) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every ``(u, k)`` that :func:`pair_count` counts."""
    cap = m + 1
    limit = s * cap if depth is None else depth
    for r in range(1, s + 1):
        for u in _subsets(s, r):
            for k in _bounded(r, cap, limit):
                yield u, k


def _subsets(s: int, r: int, lo: int = 1) -> Iterator[tuple[int, ...]]:
    if r == 0:
        yield ()
        return
    for head in range(lo, s - r + 2):
        for tail in _subsets(s, r - 1, head + 1):
            yield (head,) + tail


def _bounded(parts: int, cap: int, limit: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        yield ()
        return
    for head in range(min(cap, limit) + 1):
        for tail in _bounded(parts - 1, cap, limit - head):
            yield (head,) + tail
