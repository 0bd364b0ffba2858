"""Quality parameters of digital nets in base 2.

The t parameter is ``m + 1`` minus the smallest total depth at which some
stacked row matrix of the generators goes rank deficient, and the
subset-restricted variants ``t_u`` / ``t_star_u`` restrict which depth
vectors compete.  One search finds that least total for both
(:func:`_least_gain_total`, which also builds the tables of
:func:`~netgains.gains.enumerate_gains` and the rank table of the sweep,
:func:`~netgains.suites.evaluate_net`): ``t_u`` takes ``k >= 0`` over
``u`` (so every subset of ``u``), where it is the least ``|v| + |k|`` of a
nonzero gain, and ``t_star_u`` takes ``k >= 1``, the same walk started
from the base of the first rows.  Both count their tests against
:data:`T_SEARCH_LIMIT`; at the stacks of a gain table the table's own
visit, which solves for every free set, stands in for the search's test.
:func:`first_rank_deficient_k` reads the lex-first ``k`` of the floor-1
least off a :class:`~netgains.netgen.StackWalk` of that fixed budget, the
witness of :func:`~netgains.gains.max_gain`, and counts the stacks of
that scan against the same limit.  ``t_value`` is ``t_u`` of all
coordinates.  :func:`quality_report` takes its ``t_d`` table, the largest
``t*_u`` over the subsets of at most ``d`` coordinates, from a subset DP,
and reads its A_K table off the ranks of one more ``StackWalk``.
:func:`verify_net_by_counting` checks the balance of a point set directly,
counting points in the dyadic boxes of one total depth, and never touches
a matrix; the sweeps run it on scrambled nets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .gf2 import PivotTable
from .netgen import GeneratorSet, NetPoints, ResourceLimitError, StackWalk, _coordinates, _subsets, stack_at

T_SEARCH_LIMIT = 1 << 23  # stacks and free-set XORs a t search may test


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ``parts``-tuples of entries >= 0 summing to ``total``, lex order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def _box_ways(s: int, cap: int, max_depth: int) -> list[list[int]]:
    """At ``[r][d]``: how many ``k`` in ``[0, cap]^r`` have ``|k| <= d``, for ``r <= s`` and ``d <= max_depth``."""
    ways = [[1] * (min(max_depth, s * cap) + 1)]  # past s * cap every vector fits
    for _ in range(s):  # a DP over totals: a new coordinate sums cap + 1 neighbouring entries
        prefix = list(itertools.accumulate(ways[-1], initial=0))
        ways.append([prefix[d + 1] - prefix[max(0, d - cap)] for d in range(len(prefix) - 1)])
    return ways


def _box_counts(s: int, cap: int, max_depth: int) -> list[int]:
    """At ``r``: how many ``k`` in ``[0, cap]^r`` have ``|k| <= max_depth``, for ``r = 0..s``."""
    return [row[-1] for row in _box_ways(s, cap, max_depth)]


def _box_rank(k: Sequence[int], cap: int, max_depth: int) -> int:
    """How many ``k'`` of the box of ``k``, ``[0, cap]^len(k)`` with ``|k'| <= max_depth``, precede it in lex
    order: those first below ``k`` at ``i`` fill the box of the later coordinates up to the total left."""
    lefts = itertools.accumulate(k, lambda left, kj: left - kj, initial=max_depth)  # the total left at each i
    ways = reversed(_box_ways(len(k), cap, max_depth)[:-1])  # the box of the coordinates after each i
    return sum(rest[min(left - v, len(rest) - 1)] for kj, rest, left in zip(k, ways, lefts) for v in range(kj))


def first_rank_deficient_k(gens: GeneratorSet, u: Sequence[int]) -> tuple[int, ...]:
    """Minimal-total ``k >= 1`` (lex-first among minima) whose stack is deficient.

    :func:`_least_gain_total` at floor 1 gives the least total.  No stack
    below it is deficient, so the first deficient ``k`` of a floor-1
    :class:`~netgains.netgen.StackWalk` with that total as its budget is the
    lex-first of that total.  That scan raises :class:`ResourceLimitError`
    once it has walked more than :data:`T_SEARCH_LIMIT` stacks.
    """
    least = _least_gain_total(gens, u, 1)
    walk = StackWalk(gens, u, (1,) * len(u), least)
    for walked, (depth, rank, _) in enumerate(walk, 1):
        if walked > T_SEARCH_LIMIT:
            raise ResourceLimitError(
                f"witness scan at total {least} over s={len(walk.k)} coordinates at m={gens.m} walked more than "
                f"{T_SEARCH_LIMIT} stacks"
            )
        if rank < depth:
            return tuple(walk.k)


def t_star_u(gens: GeneratorSet, u: Sequence[int]) -> int:
    """Subset quality parameter restricted to depth vectors >= 1 componentwise.

    That is ``m + 1`` minus the least deficient total over every ``k`` in
    ``[1, m + 1]^u`` (:func:`_least_gain_total` at floor 1).  Equals
    ``m + 1 - |u|`` when already the one-row-per-coordinate stack is
    deficient (which makes it negative once ``|u| > m + 1``).
    """
    return gens.m + 1 - _least_gain_total(gens, u, 1)


def t_u(gens: GeneratorSet, u: Sequence[int]) -> int:
    """Quality parameter of the projection onto ``u``: the largest t*_v over ``v`` in ``u``.

    That is ``m + 1`` minus the least deficient total over every ``k`` in
    ``[0, m + 1]^u``, as a zero depth drops a coordinate, and so ``m + 1``
    minus the least ``|v| + |k|`` of a nonzero gain with ``v`` in ``u``
    (:func:`_least_gain_total`).
    """
    return gens.m + 1 - _least_gain_total(gens, u)


def _least_gain_total(gens: GeneratorSet, u: Sequence[int], floor: int = 0, table_depth: int = -1,
                      visit=None, slab=None) -> int:
    """The least total of a deficient stack ``C_{u,k}`` with ``floor <= k <= m + 1``, ``floor`` 0 or 1.

    The first ``floor`` rows of each coordinate form a base, pushed first:
    if they are dependent, that is the least, ``floor * |u|``.  Otherwise
    the least past the base is the least ``|v| + |k|`` of a pair with ``v``
    a nonempty subset of ``u``, ``k`` the rows past the base, and the XOR of
    the next rows over ``v`` in the row space of the base and ``C_{u,k}``;
    at floor 0 that is a nonzero gain ``G_{v,k}``.  Such a pair puts
    ``C_{u,k+1_v}`` deficient, of total ``|v| + |k|`` past the base.
    Conversely, take a deficient ``k'`` of least total, ``v`` the support
    of the rows past the base: a vanishing row combination that missed the
    deepest row of some ``j`` in ``v`` would leave ``k' - e_j`` deficient, so
    each uses them all, and ``(v, k' - 1_v)`` is such a pair.  Any
    ``m + 1`` rows are dependent, so past an independent base the least is
    at most ``m + 1``.

    One depth-first walk over the rows past the base, in lexicographic
    order.  It keeps the normal form (as :meth:`~netgains.gf2.PivotTable.residual`
    has it) of each coordinate's next row under the pushed rows.  Pushing a
    stored form ``p`` needs no reduction: ``p`` becomes the pivot at its
    top bit, each stored form with that bit set XORs ``p``, and the
    coordinate's new next row is reduced, one reduction per push.  A
    stack's pivots are those at the bits of its ``held`` mask, so stepping
    back needs no undo.  At a stack ``k`` the pair of ``v = supp(k) + F``
    qualifies iff the stored forms over ``v`` XOR to 0.  The walk goes to
    every ``k`` with ``|k| + |supp k| <= least - 1``, and there tests each
    set ``F`` of free coordinates with ``|F| <= least - 1 - |k| - |supp k|``,
    so it tests every pair below the least found so far, which a pair that
    qualifies lowers.  It also goes to every ``k`` with ``|k| <= table_depth``
    and calls ``visit(k, rank, forms)`` there, ``k`` a list updated in place.
    The visit returns the least ``|v|`` of a nonempty ``v`` containing
    ``supp(k)`` whose forms XOR to 0, or 0 if there is none: it has solved
    for every free set, so the walk lowers the least to ``|k|`` plus that and
    tests nothing more there.  Given ``slab``, a full stack (``held`` all
    ``m`` bits) of the table is no visit: the walk calls ``slab(k, i)``, ``i``
    the coordinate just raised, and skips the slab of the stacks that
    contain its rows, those equal to ``k`` before ``i`` and at least as deep
    at ``i``, which come next in lexicographic order.  Every ``v`` containing
    ``supp(k)`` has its forms XOR to 0 there, so the walk lowers the least
    to ``|k| + |supp k|``, what the visit would have.

    Raises :class:`ResourceLimitError` once its tests pass
    :data:`T_SEARCH_LIMIT`: one per visit or slab, one per other stack with
    ``|k| + |supp k|`` below the least, and one per XOR of free forms
    listed there (:func:`_fewest`).
    """
    u = _coordinates(gens.s, u)
    m, n = gens.m, len(u)
    cap, full = m + 1 - floor, (1 << m) - 1
    base = PivotTable(m)
    if not all(base.push(row) for j in u for row in gens._rows[j - 1][:floor]):
        return floor * n
    pivots = base.pivots  # by leading bit; those of the bits set in a walk's ``held`` are its stack's
    rows = [gens._rows[j - 1][floor:] for j in u]
    k = [0] * n
    least = m + 1 - floor * n
    tests = 0

    def walk(first: int, forms: list[int], held: int, depth: int, cost: int) -> None:
        """The stack at ``k``, zero past ``first``, then those that raise a later coordinate.

        ``forms`` holds the next rows' normal forms, then that of their XOR
        over ``supp(k)``; ``held`` has a bit set at each pivot's leading bit.
        """
        nonlocal least, tests
        if depth <= table_depth:  # the visit tries every v containing supp(k)
            tests += 1
            fewest = visit(k, held.bit_count(), forms)
            least = min(least, depth + fewest) if fewest else least
        elif not cost:  # the base alone: v = F, the next rows before its last j XOR to j's
            tests += 1
            for j in range(n):
                if not forms[j]:
                    least = 1
                    break
                r, work = _fewest(forms[:j], forms[j], least - 2, T_SEARCH_LIMIT - tests)
                tests += work
                least = r + 1 if r else least
        elif cost < least:
            tests += 1
            if not forms[n]:
                least = cost
            elif cost < least - 1:
                free = [f for f, kj in zip(forms, k) if not kj]
                r, work = _fewest(free, forms[n], least - 1 - cost, T_SEARCH_LIMIT - tests)
                tests += work
                least = cost + r if r else least
        if tests > T_SEARCH_LIMIT:
            raise ResourceLimitError(
                f"{'t*' if floor else 't'} search over s={n} coordinates at m={m} made more than {T_SEARCH_LIMIT} "
                f"tests of stacks and free sets"
            )
        if cost + 2 >= least and depth >= table_depth:
            return  # no later coordinate can rise
        for j in range(n - 1, first, -1):
            row, cur, mask, kj = rows[j], forms, held, 0
            while kj < cap and (depth + kj < table_depth or cost + kj + 2 < least):
                p = cur[j]
                if p:  # a normal form: its leading bit is no pivot's yet
                    lead = p.bit_length()
                    pivots[lead] = p
                    top = 1 << (lead - 1)
                    mask |= top
                    cur = [f ^ p if f & top else f for f in cur]
                else:
                    cur = cur[:]
                kj += 1
                k[j] = kj
                if mask != full:
                    nxt = row[kj]
                    hit = nxt & mask
                    while hit:
                        nxt ^= pivots[hit.bit_length()]
                        hit = nxt & mask
                elif slab and depth + kj <= table_depth:  # the slab spans all: one call, no walk into it
                    tests += 1
                    slab(k, j)
                    least = min(least, cost + kj + 1)
                    break
                else:
                    nxt = 0  # a full stack spans all
                cur[j] = nxt
                # the XOR over supp(k) trades row kj of j, now in the row space, for row kj + 1
                cur[n] ^= nxt
                walk(j, cur, mask, depth + kj, cost + kj + 1)
            k[j] = 0

    walk(-1, [base.residual(row[0]) for row in rows] + [0], sum(1 << (lead - 1) for lead in base.log), 0, 0)
    return floor * n + least


def _fewest(forms: list[int], target: int, most: int, spare: int) -> tuple[int, int]:
    """The least ``r`` in ``1..most`` with ``r`` of ``forms`` XORing to a nonzero ``target``.

    Returns ``(r, work)``, ``r = 0`` if there is none, ``work`` the number
    of XORs listed; past ``spare`` of them it stops and returns a larger
    ``work``.  Meet in the middle: ``sums[h]`` holds the XORs of ``h``
    forms, repeats allowed, and ``r`` is found iff ``target`` XOR some
    member of ``sums[r // 2]`` lies in ``sums[r - r // 2]``.  A repeat
    cancels in pairs, so it would leave ``r - 2`` or fewer forms, and
    ``target`` nonzero, that a smaller ``r`` has already found.
    """
    if most < 1:
        return 0, 0
    if target in forms:
        return 1, 0
    sums = [{0}, set(forms)]
    work = len(forms)
    for r in range(2, min(most, len(forms)) + 1):
        half = r // 2
        if len(sums) == r - half:
            work += len(sums[-1]) * len(forms)
            if work > spare:
                return 0, work
            sums.append({x ^ f for x in sums[-1] for f in forms})
        if not sums[r - half].isdisjoint([target ^ x for x in sums[half]]):
            return r, work
    return 0, work


def t_value(gens: GeneratorSet) -> int:
    """The net's t parameter, from ranks of stacked generator rows.

    The worst t*_u over every subset: ``m + 1`` minus the least total depth
    at which some stack of at least one row per coordinate is deficient,
    so :func:`t_u` of all coordinates.
    """
    return t_u(gens, range(1, gens.s + 1))


# --- counting route ----------------------------------------------------------

def _cell_counts(points: NetPoints, k: Sequence[int]) -> np.ndarray:
    """Occupancy counts of the nonempty depth-``k`` dyadic cells, ``|k| <= m``, so that
    a cell's ``|k|``-bit label fits one uint64 key."""
    m = points.m
    key = np.zeros(points.n, dtype=np.uint64)
    for j, kj in enumerate(k):
        key <<= np.uint64(kj)
        key |= points.coords[:, j] >> np.uint64(m - kj)
    _, counts = np.unique(key, return_counts=True)
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
    rank at total ``K``: one floor-0 walk with budget ``a_k_max``, no points.
    Depths past ``m`` in one coordinate see no further digits, so past ``m``
    the single-coordinate shapes ``(0,..,m,..,0)`` stand in for every shape
    with such an entry.  More than
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

    reported = _subsets(s) if all_subsets else [*((j,) for j in full), full]
    star = {u: t_star_u(gens, u) for u in reported}

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
    "verify_net_by_counting",
    "QualityReport",
    "quality_report",
    "SUBSET_ENUMERATION_LIMIT",
    "A_K_KEY_LIMIT",
    "T_SEARCH_LIMIT",
]
