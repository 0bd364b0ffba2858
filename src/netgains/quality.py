"""Quality parameters of digital nets in base 2.

Two independent routes to the same quantities live here.  The algebraic
route works on generator matrices: the t parameter is ``m + 1`` minus the
smallest total depth at which some stacked row matrix goes rank deficient,
and the subset-restricted variants ``t_u`` / ``t_star_u`` restrict which
depth vectors compete.  Each is one :class:`~netgains.netgen.StackWalk`,
which refuses a bad ``u``, lowering its budget below every deficient total
it meets: ``t_star_u`` walks ``k >= 1`` over ``u`` (the search that also
gives :func:`~netgains.gains.max_gain`), ``t_u`` walks ``k >= 0`` over ``u``
(a zero depth drops a coordinate, so that covers every subset of ``u``),
``t_value`` is ``t_u`` of all coordinates and ``t_d`` the largest ``t_u``
over the subsets of size ``d``; the A_K table of :func:`quality_report` is
read off the ranks of one more.  The combinatorial route counts points in
dyadic boxes (:func:`verify_net_by_counting`, :func:`microstructure_AK`)
and never touches a matrix, which makes it the oracle for the algebraic
route.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .netgen import GeneratorSet, NetPoints, ResourceLimitError, StackWalk, _subsets, stack_at

_PACK_LIMIT = 64  # total key bits that still fit one uint64 per point


def compositions(total: int, parts: int, lo: int = 0, hi: int | None = None) -> Iterator[tuple[int, ...]]:
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
        for tail in compositions(total - head, parts - 1, lo, hi):
            yield (head,) + tail


def _box_counts(s: int, cap: int, max_depth: int) -> list[int]:
    """At ``r``: how many ``k`` in ``[0, cap]^r`` have ``|k| <= max_depth``, for ``r = 0..s``.

    A DP over totals: ``ways[d]`` counts the vectors of total ``d``, and
    adding a coordinate sums ``cap + 1`` neighbouring totals.
    """
    top = min(max_depth, s * cap)
    ways = [1] + [0] * top
    counts = [1]
    for _ in range(s):
        prefix = list(itertools.accumulate(ways, initial=0))
        ways = [prefix[d + 1] - prefix[max(0, d - cap)] for d in range(top + 1)]
        counts.append(sum(ways))
    return counts


def _ceil_log2(count: int) -> int:
    return (count - 1).bit_length()


def first_rank_deficient_k(gens: GeneratorSet, u: Sequence[int]) -> tuple[int, ...]:
    """Minimal-total ``k >= 1`` (lex-first among minima) whose stack is deficient."""
    return _least_deficient(gens, u, 1)


def _least_deficient(gens: GeneratorSet, u: Sequence[int], floor: int) -> tuple[int, ...]:
    """Lex-first ``k >= floor`` of least total with a deficient stack.

    Each deficient ``k`` the walk meets lowers its budget below its own
    total, so the last one met is the lex-first of the least total.  The
    first budget, ``max(floor * |u|, m + 1)``, reaches a stack of more than ``m`` rows.
    """
    walk = StackWalk(gens, u, (floor,) * len(u), max(floor * len(u), gens.m + 1))
    for depth, rank, _ in walk:
        if rank < depth:
            best = tuple(walk.k)
            walk.budget = depth - 1
    return best


def t_star_u(gens: GeneratorSet, u: Sequence[int]) -> int:
    """Subset quality parameter restricted to depth vectors >= 1 componentwise.

    Equals ``m + 1 - |u|`` when already the one-row-per-coordinate stack is
    deficient (which makes it negative once ``|u| > m + 1``).
    """
    return gens.m + 1 - sum(first_rank_deficient_k(gens, u))


def t_u(gens: GeneratorSet, u: Sequence[int]) -> int:
    """Quality parameter of the projection onto ``u``: the largest t*_v over ``v`` in ``u``.

    That is ``m + 1`` minus the least deficient total over every ``k`` in
    ``[0, m + 1]^u``, as a zero depth drops a coordinate: one walk with
    floor 0.  ``k = (m + 1, 0, ...)`` is always deficient.
    """
    return gens.m + 1 - sum(_least_deficient(gens, u, 0))


def t_d(gens: GeneratorSet, d: int) -> int:
    """Worst t*_u over all subsets of at most ``d`` coordinates: the largest
    :func:`t_u` over the subsets of exactly ``d``, which contain the rest."""
    if not 1 <= d <= gens.s:
        raise ValueError(f"d must be in [1, {gens.s}], got {d}")
    return max(t_u(gens, u) for u in itertools.combinations(range(1, gens.s + 1), d))


def t_value(gens: GeneratorSet) -> int:
    """The net's t parameter, from ranks of stacked generator rows.

    The worst t*_u over every subset: ``m + 1`` minus the least total depth
    at which some stack of at least one row per coordinate is deficient,
    so :func:`t_u` of all coordinates.
    """
    return t_u(gens, range(1, gens.s + 1))


# --- counting route ----------------------------------------------------------

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


def verify_net_by_counting(points: NetPoints, t: int) -> bool:
    """Check the defining balance property directly on the points.

    True iff every dyadic box of total depth ``m - t`` holds exactly
    ``2**t`` points.  The shallower boxes then hold their share too, since
    each is the union of two boxes one level deeper.
    """
    m = points.m
    if not 0 <= t <= m:
        raise ValueError(f"t must be in [0, {m}], got {t}")
    counts = (_cell_counts(points, k) for k in compositions(m - t, points.s))
    return all(c.min() == c.max() == 1 << t for c in counts)


def minimal_counting_t(points: NetPoints) -> int:
    """Smallest t accepted by :func:`verify_net_by_counting` (m always is)."""
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
    for k in compositions(total, s, lo=0, hi=min(total, m)):
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


# --- report -------------------------------------------------------------------

SUBSET_ENUMERATION_LIMIT = 16
A_K_KEY_LIMIT = 1 << 24  # stacks the A_K walk may visit, plus its table entries


@dataclass
class QualityReport:
    """t and friends for one net; subset maps may be partial for large s."""

    s: int
    m: int
    t: int
    t_d: dict[int, int]
    t_u: dict[tuple[int, ...], int]
    t_star_u: dict[tuple[int, ...], int]
    a_k: dict[int, int] = field(default_factory=dict)
    subsets_complete: bool = True

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "m": self.m,
            "t": self.t,
            "t_d": {str(d): v for d, v in sorted(self.t_d.items())},
            "t_u": [{"u": list(u), "value": v} for u, v in sorted(self.t_u.items())],
            "t_star_u": [
                {"u": list(u), "value": v} for u, v in sorted(self.t_star_u.items())
            ],
            "A_K": {str(kk): v for kk, v in sorted(self.a_k.items())},
            "subsets_complete": self.subsets_complete,
        }


def quality_report(gens: GeneratorSet, *, a_k_max: int | None = None) -> QualityReport:
    """Full quality summary of a net.

    Subset tables need 2**s searches, so for ``s > 16`` they are skipped;
    the full-set and singleton entries are always present.  ``a_k_max``
    bounds the A_K table (default ``m``).  A digital net puts ``2**(m - rank C_k)``
    points in each nonempty box of shape ``k``, so A_K is ``m`` less the least
    rank at total ``K``: one floor-0 walk with budget ``a_k_max``, no points,
    and past ``m`` the stand-ins of :func:`microstructure_AK`.  More than
    :data:`A_K_KEY_LIMIT` stacks and table entries is refused before any search.
    """
    if a_k_max is not None and a_k_max < 0:
        raise ValueError(f"a_k_max must be >= 0, got {a_k_max}")
    s, m = gens.s, gens.m
    bound = m if a_k_max is None else a_k_max
    work = _box_counts(s, m + 1, bound)[s] + bound + 1
    if work > A_K_KEY_LIMIT:
        raise ResourceLimitError(
            f"a_k_max={bound} over m={m}, s={s} walks {work} stacks and entries for the A_K table "
            f"(limit {A_K_KEY_LIMIT})"
        )
    full = tuple(range(1, s + 1))
    all_subsets = s <= SUBSET_ENUMERATION_LIMIT

    star: dict[tuple[int, ...], int] = {}
    if all_subsets:
        for u in _subsets(s):
            star[u] = t_star_u(gens, u)
    else:
        for j in full:
            star[(j,)] = t_star_u(gens, (j,))
        star[full] = t_star_u(gens, full)

    tu: dict[tuple[int, ...], int] = {}
    td: dict[int, int] = {}
    if all_subsets:
        # subset DP: t_u is the running max of t* over sub-subsets, each met before u
        for u in star:
            best = star[u]
            if len(u) > 1:
                for drop in range(len(u)):
                    best = max(best, tu[u[:drop] + u[drop + 1 :]])
            tu[u] = best
        by_size = 0
        for d in range(1, s + 1):
            by_size = max(by_size, max(v for u, v in star.items() if len(u) == d))
            td[d] = by_size
        t = td[s]
    else:
        t = t_value(gens)
        tu[full] = t
        for j in full:
            tu[(j,)] = star[(j,)]
        td[s] = t

    least = [m] * (bound + 1)  # the least rank of a stack at each total
    walk = StackWalk(gens, full, (0,) * s, bound)
    for depth, rank, _ in walk:
        least[depth] = min(least[depth], rank)
        if rank == m:  # and so has every stack of the slab
            walk.cut()
    single = min(stack_at(gens, (j,), (m,))[0] for j in full)
    a_k = {kk: m - (least[kk] if kk <= m else min(least[kk], single)) for kk in range(bound + 1)}

    return QualityReport(
        s=s, m=m, t=t, t_d=td, t_u=tu, t_star_u=star, a_k=a_k,
        subsets_complete=all_subsets,
    )


__all__ = [
    "compositions",
    "first_rank_deficient_k",
    "t_value",
    "t_star_u",
    "t_u",
    "t_d",
    "verify_net_by_counting",
    "minimal_counting_t",
    "microstructure_A",
    "microstructure_AK",
    "QualityReport",
    "quality_report",
    "SUBSET_ENUMERATION_LIMIT",
    "A_K_KEY_LIMIT",
]
