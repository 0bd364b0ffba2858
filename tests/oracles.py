"""Test-side oracles: box counts, ``t_d``, the gain bounds and the Haar wave on reals.

The library reads every quality parameter and bound off generator
matrices.  The helpers here reach the same numbers another way, so the
tests can hold the library against them: the combinatorial route counts
points in dyadic boxes and never touches a matrix (Niederreiter & Pirsic,
2001), ``t_d`` takes the worst ``t_u`` by brute force over the subsets of
one size, :func:`gain_bounds` is rebuilt from the public searches, and
:func:`haar_at_reals` evaluates a :class:`~netgains.scramble.HaarIntegrand`
on real points where the library reads it off scrambled cells.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from netgains.netgen import GeneratorSet, NetPoints, SubsetIndex, stack_at
from netgains.quality import t_star_u, t_u, t_value, verify_net_by_counting
from netgains.scramble import HaarIntegrand

_PACK_LIMIT = 64  # total key bits that still fit one uint64 per point


def _compositions(total: int, parts: int, lo: int = 0, hi: int | None = None) -> Iterator[tuple[int, ...]]:
    """All ``parts``-tuples with entries in [lo, hi] summing to ``total``, lex order."""
    if hi is None:
        hi = total
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if lo <= total <= hi:
            yield (total,)
        return
    for head in range(lo, min(hi, total - lo * (parts - 1)) + 1):
        for tail in _compositions(total - head, parts - 1, lo, hi):
            yield (head,) + tail


def _ceil_log2(count: int) -> int:
    return (count - 1).bit_length()


def _cell_counts(points: NetPoints, k: Sequence[int]) -> np.ndarray:
    """Occupancy counts of the nonempty depth-``k`` dyadic cells."""
    m = points.m
    depths = [min(int(kj), m) for kj in k]
    if sum(depths) <= _PACK_LIMIT:
        key = np.zeros(points.n, dtype=np.uint64)
        for j, kj in enumerate(depths):
            key <<= np.uint64(kj)
            key |= points.coords[:, j] >> np.uint64(m - kj)
        _, counts = np.unique(key, return_counts=True)
    else:
        shifted = points.coords >> np.array([m - kj for kj in depths], dtype=np.uint64)
        _, counts = np.unique(shifted, axis=0, return_counts=True)
    return counts


def minimal_counting_t(points: NetPoints) -> int:
    """Smallest t accepted by :func:`~netgains.quality.verify_net_by_counting` (m always is)."""
    for t in range(points.m + 1):
        if verify_net_by_counting(points, t):
            return t
    raise AssertionError("unreachable: t = m leaves a single box")


def microstructure_A(points: NetPoints, k: Sequence[int]) -> int:
    """Ceiling log2 of the fullest depth-``k`` dyadic cell."""
    if points.n == 0:
        raise ValueError("empty point set")
    k = tuple(int(kj) for kj in k)
    if len(k) != points.s:
        raise ValueError(f"k must have {points.s} entries, got {len(k)}")
    if any(kj < 0 for kj in k):
        raise ValueError(f"negative depth in {k}")
    return _ceil_log2(int(_cell_counts(points, k).max()))


def microstructure_AK(points: NetPoints, total: int) -> int:
    """Worst :func:`microstructure_A` over all depth vectors summing to ``total``.

    Depths beyond ``m`` in one coordinate see no further digits, so vectors
    with an oversized entry collapse onto clamped ones; past ``m`` the
    single-coordinate vectors ``(0,..,m,..,0)`` dominate every collapsed
    shape and stand in for all of them.
    """
    if total < 0:
        raise ValueError(f"total depth must be >= 0, got {total}")
    m, s = points.m, points.s
    best = 0
    seen = False
    for k in _compositions(total, s, lo=0, hi=min(total, m)):
        best = max(best, microstructure_A(points, k))
        seen = True
    if total > m:
        for j in range(s):
            k = tuple(m if jj == j else 0 for jj in range(s))
            best = max(best, microstructure_A(points, k))
            seen = True
    if not seen:
        raise AssertionError("unreachable: some depth vector always exists")
    return best


def t_d(gens: GeneratorSet, d: int) -> int:
    """Worst t*_u over all subsets of at most ``d`` coordinates: the largest
    :func:`~netgains.quality.t_u` over the subsets of exactly ``d``, which contain the rest."""
    if not 1 <= d <= gens.s:
        raise ValueError(f"d must be in [1, {gens.s}], got {d}")
    return max(t_u(gens, u) for u in itertools.combinations(range(1, gens.s + 1), d))


def gain_bounds(gens: GeneratorSet, idx: SubsetIndex) -> dict[str, int]:
    """Every applicable upper bound for the gain at ``idx``, by name.

    "rank" is ``2**(m - rank)`` of the stacked matrix; "t", "t_u" and
    "t_star_u" are ``2**(param + |u| - 1)``.  The t* bound only applies
    when the one-row-per-coordinate stack over ``u`` has full rank, that is
    when ``t*_u + |u| <= m``, so it is omitted otherwise.
    """
    rank = stack_at(gens, idx.u, idx.k)[0]  # its walk refuses an idx beyond the net before the t search
    order, m = idx.order, gens.m
    out = {
        "rank": 1 << (m - rank),
        "t": 1 << (t_value(gens) + order - 1),
        "t_u": 1 << (t_u(gens, idx.u) + order - 1),
    }
    star = t_star_u(gens, idx.u)
    if star + order <= m:
        out["t_star_u"] = 1 << (star + order - 1)
    return out


def haar_at_reals(f: HaarIntegrand, x: np.ndarray) -> np.ndarray:
    """Values of ``f`` at the reals ``x`` (one point per row).  A float carries 53
    bits, so a wave needing more digits is refused: read it from cells."""
    if f.needed_bits > 53:
        raise ValueError(f"haar integrand at k={f.k} needs more than the 53 digits of a float")
    out = np.ones(x.shape[0])
    for j, kj in zip(f.u, f.k):
        cell = np.floor(x[:, j - 1] * float(1 << (kj + 1))).astype(np.int64)
        out *= 1.0 - 2.0 * (cell & 1).astype(np.float64)
    return out
