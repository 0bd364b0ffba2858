"""The sweep's rank and nullspace tables, one walk per subset.

:func:`netgains.suites.evaluate_net` fills both tables from one walk over
all coordinates per route, and writes every cell of a stack from one XOR.
The loops here fill them the plain way: for each nonempty ``u`` a
:class:`~netgains.netgen.StackWalk` over ``[0, m + 1]^u``, on a
``PivotTable`` for the rank route and on a ``NullTable`` for the nullspace
route, writing one cell per stack and gain 1 over the slab of every stack
of rank ``m``.  The tests hold the library's tables against them cell for
cell.
"""

from __future__ import annotations

import numpy as np

from netgains.gains import NullTable, _signed_count
from netgains.netgen import GeneratorSet, StackWalk, _subsets
from netgains.suites import _NO_COUNT, _NO_LOG2


def _views(s: int):
    """Each nonempty ``u`` with the index of its cells in a table laid out as the pairwise one."""
    for u in _subsets(s):
        yield u, tuple(slice(1, None) if j in u else 0 for j in range(1, s + 1))


def _slab(k: tuple, i: int) -> tuple:
    """The cells of ``u`` equal to ``k`` before axis ``i`` and at least ``k[i]`` at it."""
    return k[:i] + (slice(k[i], None),)


def per_subset_tables(gens: GeneratorSet) -> tuple[np.ndarray, np.ndarray]:
    """``log2`` of the rank route's gain (int8, -1 for 0) and the nullspace route's signed count (int32)."""
    s, m = gens.s, gens.m
    shape = (m + 3,) * s
    log2 = np.full(shape, _NO_LOG2, dtype=np.int8)
    counts = np.full(shape, _NO_COUNT, dtype=np.int32)
    for u, view in _views(s):
        r = len(u)
        log2_u, counts_u = log2[view], counts[view]
        walk = StackWalk(gens, u, (0,) * r, r * (m + 1))
        residual, k = walk.table.residual, walk.k
        for _, rank, nxt in walk:
            if rank == m:
                log2_u[_slab(tuple(k), walk.cut())] = 0
            else:
                log2_u[tuple(k)] = -1 if residual(nxt) else m - rank
        walk = StackWalk(gens, u, (0,) * r, r * (m + 1), NullTable(m))
        table, k = walk.table, walk.k
        for _, rank, nxt in walk:
            if rank == m:
                counts_u[_slab(tuple(k), walk.cut())] = 1
            else:
                counts_u[tuple(k)] = _signed_count(table.basis, nxt)
    return log2, counts
