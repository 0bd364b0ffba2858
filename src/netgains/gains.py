"""Exact gain coefficients of scrambled digital nets in base 2.

A gain coefficient is indexed by a nonempty coordinate subset ``u`` and a
depth vector ``k``: it is the factor by which scrambling rescales the
plain-MC variance contribution of functions that oscillate at resolution
``k`` on exactly the coordinates in ``u``.  For a net built from generator
matrices every such coefficient is 0 or a power of two, and which of the
two cases holds is a row-space membership question, so the value can be
read off one GF(2) elimination (:func:`gain_fast`).

Three routes compute the same number:

* :func:`gain_bruteforce` - the O(n^2) pairwise sum over the points, the
  definition itself; knows nothing about matrices.  :func:`gain_pair_table`
  gives the same sums for every ``(u, k)`` at once, in O(n * s), from the
  match depths of the points' XOR differences from point 0.
* :func:`gain_representation` - a signed count over the nullspace of the
  stacked matrix, read off its basis.  A :class:`NullTable`, the route's own
  dual elimination, keeps that nullspace through every ``k`` of one
  :class:`~netgains.netgen.StackWalk`, row by row.
* :func:`gain_fast` - rank plus one membership test.

They are kept deliberately separate so each can serve as an oracle for the
others; all three use exact integer arithmetic.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TextIO

import numpy as np

from .netgen import (
    GeneratorSet,
    NetPoints,
    ResourceLimitError,
    StackWalk,
    SubsetIndex,
    _coordinates,
    _match_depth,
    _subsets,
    _xor_span,
    stack_at,
)
from . import quality
from .quality import _box_counts, _box_rank, _least_gain_total, first_rank_deficient_k, t_u

ENUMERATION_VISIT_LIMIT = 1 << 24
_BRUTE_CHUNK = 512
_PAIR_BLOCK_LOG2 = 16  # at most 2^16 rows of points per block of gain_pair_table
# Largest pairwise table, (m + 3)^s int64 cells (32 MiB); gain_pair_table peaks at
# about 24 bytes a cell while it builds one.
PAIR_TABLE_CELL_LIMIT = 1 << 22


@dataclass(frozen=True)
class GainValue:
    """A gain coefficient as log2; ``None`` encodes the exact value 0."""

    log2: int | None

    @classmethod
    def zero(cls) -> "GainValue":
        return cls(None)

    @property
    def as_int(self) -> int:
        return 0 if self.log2 is None else 1 << self.log2

    def __str__(self) -> str:
        return "0" if self.log2 is None else f"2^{self.log2}"


def gain_fast(gens: GeneratorSet, idx: SubsetIndex) -> GainValue:
    """Gain coefficient via rank and a row-space membership test.

    The coefficient is ``2**(m - rank)`` of the stacked matrix when the XOR
    of the next row of each selected generator lies in its row space, and 0
    otherwise.
    """
    rank, in_span = stack_at(gens, idx.u, idx.k)
    return GainValue(gens.m - rank) if in_span else GainValue.zero()


def gain_bruteforce(points: NetPoints, idx: SubsetIndex) -> Fraction:
    """Gain coefficient straight from the definition: the pairwise sum.

    Each pair of points contributes the product over ``j in u`` of
    +1 / -1 / 0 according to whether coordinates i and i' agree to more
    than, exactly, or fewer than ``k_j`` leading bits; the total is divided
    by n.  Exact integer arithmetic; O(n^2) time in blocks of rows, so
    meant for modest nets.  Depths past ``m + 1`` are clamped there, as the
    other two routes do: distinct coordinates agree to at most ``m - 1``
    bits, and identical ones past every depth.
    """
    n, m = points.n, points.m
    cols = [points.coords[:, j - 1] for j in _coordinates(points.s, idx.u)]
    k = [min(kj, m + 1) for kj in idx.k]
    total = 0
    for start in range(0, n, _BRUTE_CHUNK):
        prod = None
        for col, kj in zip(cols, k):
            depth = _match_depth(col[start : start + _BRUTE_CHUNK, None] ^ col[None, :], m)
            factor = (depth > kj).astype(np.int8) - (depth == kj).astype(np.int8)
            prod = factor if prod is None else prod * factor
        total += int(prod.astype(np.int64).sum())
    return Fraction(total, n)


def gain_pair_table(points: NetPoints) -> np.ndarray:
    """The pairwise sum of :func:`gain_bruteforce` for every ``(u, k)`` at once.

    Returns an int64 array with ``m + 3`` entries on each of its ``s`` axes.
    Entry 0 on axis ``j`` leaves coordinate ``j`` out of ``u``, and entry
    ``1 + k_j`` puts it in at depth ``k_j`` in ``[0, m + 1]``.  The entry so
    indexed is the exact numerator ``n * gain_bruteforce(points, (u, k))``;
    the all-zero entry, with ``u`` empty, counts all ``n^2`` pairs.

    For a net, digitally shifted or not, ``y(i) = x(i) ^ x(0)`` is linear in
    ``i``; this is checked on the points (else :class:`ValueError`), so the
    pair XORs ``x(i) ^ x(i') = y(i ^ i')`` are ``n`` copies of ``y``.  The joint
    histogram H of the pairs' match depths over all coordinates is thus
    ``n`` times that of ``y``; a depth is at most ``m - 1``, and ``m + 2``
    stands for "identical", which beats every ``k_j``.  A pair
    adds ``W[k_j, d_j] = [d_j > k_j] - [d_j == k_j]`` per coordinate in
    ``u`` and 1 per coordinate outside it, so the table is H contracted
    along each axis with W below a leading all-ones row.  Both the check
    and the histogram run over blocks of at most an eighth of the rows
    (but 64 rows at least and ``2**16`` at most), so beyond the table
    itself the temporaries stay below the size of the points.  A table of
    more than :data:`PAIR_TABLE_CELL_LIMIT` cells raises
    :class:`ResourceLimitError` before any is allocated.
    """
    n, m, s = points.n, points.m, points.s
    _refuse_pair_table(s, m, f"s={s}, m={m}")
    # y(q * 2^b + i) must be high[q] ^ low[i], checked and counted a block of 2^b rows at a time
    b = min(m, max(6, m - 3), _PAIR_BLOCK_LOG2)
    x0 = points.coords[0]
    low = _xor_span(points.coords[1 << np.arange(b)] ^ x0)
    high = _xor_span(points.coords[1 << np.arange(b, m)] ^ x0)
    side = m + 3
    hist = np.zeros(side**s, dtype=np.int64)
    for q, top in enumerate(high):
        diff = points.coords[q << b : (q + 1) << b] ^ x0
        if not np.array_equal(diff, low ^ top):
            raise ValueError("points are not a digital net: x(i) ^ x(0) is not linear in i")
        code = np.zeros(len(diff), dtype=np.intp)
        for j in range(s):
            code *= side
            code += _match_depth(diff[:, j], m)
        hist += np.bincount(code, minlength=side**s)
    hist *= n
    d = np.arange(side)
    k = np.arange(m + 2)[:, None]
    weight = np.vstack([np.ones(side, dtype=np.int64), (d > k).astype(np.int64) - (d == k)])
    table = hist.reshape((side,) * s)
    for _ in range(s):
        # contracts the leading depth axis and appends its (u, k) axis at the end
        table = np.tensordot(table, weight, axes=([0], [1]))
    return table


def _refuse_pair_table(s: int, m: int, sizes: str) -> None:
    """Refuse a pairwise table of ``(m + 3)^s`` cells past :data:`PAIR_TABLE_CELL_LIMIT`; ``sizes``
    names ``s`` and ``m``.  23 factors ``m + 3 >= 2`` pass it, so a huge ``s`` is cheap."""
    if (m + 3) ** min(s, PAIR_TABLE_CELL_LIMIT.bit_length()) > PAIR_TABLE_CELL_LIMIT:
        raise ResourceLimitError(
            f"pairwise table of {sizes} has {m + 3}^{s} cells (limit {PAIR_TABLE_CELL_LIMIT})"
        )


def gain_representation(gens: GeneratorSet, idx: SubsetIndex) -> int:
    """Gain coefficient as a signed count over the stacked matrix nullspace.

    The one-vector walk on a :class:`NullTable`: depths past ``m + 1`` are
    clamped there, which changes neither the nullspace nor the next rows.
    The count is read in one pass over the nullspace basis, so it has no
    ceiling short of ``m = 32``.
    """
    k = [min(kj, gens.m + 1) for kj in idx.k]
    walk = StackWalk(gens, idx.u, k, sum(k), NullTable(gens.m))
    _, _, nxt = next(iter(walk))
    return _signed_count(walk.table.basis, nxt)


class NullTable:
    """A basis of the nullspace of the pushed rows, with an undo log.

    The dual of :class:`~netgains.gf2.PivotTable`, and the nullspace route's
    own elimination: it shares no code with the rank route.  ``basis``
    starts as the ``m`` unit vectors.  As ``N(C + row) = {v in N(C) :
    row . v = 0}``, :meth:`push` takes the first basis vector with odd
    product, XORs it into the later ones with odd product, and drops it;
    the earlier vectors have even product.  Only a push that shrinks the
    basis logs the old one, so ``len(log)`` is the rank of the pushed rows
    and :meth:`undo` restores the basis of an earlier rank:
    :class:`~netgains.netgen.StackWalk` drives it as it does a pivot table.
    """

    __slots__ = ("basis", "log")

    def __init__(self, m: int):
        self.basis = [1 << b for b in range(m)]
        self.log: list[list[int]] = []

    def push(self, row: int) -> bool:
        """Restrict the basis to the vectors with even product with ``row``. True if it shrank."""
        basis = self.basis
        for i, pivot in enumerate(basis):
            if (pivot & row).bit_count() & 1:
                break
        else:
            return False
        self.log.append(basis)
        rest = [vec ^ pivot if (vec & row).bit_count() & 1 else vec for vec in basis[i + 1 :]]
        self.basis = basis[:i] + rest
        return True

    def undo(self, mark: int) -> None:
        """Restore the basis of the rank ``mark``."""
        log = self.log
        if len(log) > mark:
            self.basis = log[mark]
            del log[mark:]


def _signed_count(basis: list[int], nxt: int) -> int:
    """Sum over the span of ``basis`` of -1 to the parity of the vector's product with ``nxt``.

    With ``nxt`` the XOR of the next rows, that is the parity of the number
    of next rows the vector trips.  The sign is a character of the span, so
    the sum is the span's size when every basis vector has even product with
    ``nxt``, and 0 when one has odd product: adding it pairs opposite signs.
    """
    return 0 if any((vec & nxt).bit_count() & 1 for vec in basis) else 1 << len(basis)


def max_gain(gens: GeneratorSet) -> tuple[GainValue, SubsetIndex]:
    """Largest gain coefficient over all (u, k), with a witness attaining it.

    It is ``2**(t*_{1:s} + s - 1) = 2**(m + s - |k*|)``, with ``k*`` the
    :func:`~netgains.quality.first_rank_deficient_k` of all coordinates: the
    least total of the floor-1 search, and the lex-first stack of that
    total, found by a walk that goes no deeper.
    ``|k*| = s`` says that the first rows are dependent: the maximum is then
    ``2**m``, witnessed at depth zero by a minimal dependent subset, the
    smallest only up to 20 coordinates (:func:`_minimal_dependent_first_rows`).
    Otherwise the witness is rebuilt from the vanishing row combination of
    C_{1:s,k*}: drop the coordinates whose deepest row does not participate,
    and step every surviving depth down by one.
    """
    s = gens.s
    full = tuple(range(1, s + 1))
    kstar = first_rank_deficient_k(gens, full)
    gamma = GainValue(gens.m + s - sum(kstar))
    if sum(kstar) == s:
        u = _minimal_dependent_first_rows(gens)
        return gamma, SubsetIndex(u, (0,) * len(u))
    v = _circuit(gens, full, kstar)
    assert v, "a minimal deficient stack always uses some deepest row"
    return gamma, SubsetIndex(v, tuple(kstar[j - 1] - 1 for j in v))


def _circuit(gens: GeneratorSet, u: tuple[int, ...], k: tuple[int, ...]) -> tuple[int, ...]:
    """Members of ``u`` whose deepest row lies on the one dependency of C_{u,k}.

    Needs ``k >= 1`` and exactly one vanishing combination of the rows of
    C_{u,k}.  Dropping a row on it leaves full rank and dropping any other
    row keeps the combination, so ``j`` is on it iff C_{u, k - e_j} has full
    rank.  Both callers' stacks qualify.  In the first dependent prefix of
    first rows, the earlier rows are independent.  In the shallowest
    deficient full stack with independent first rows, some coordinate is
    deeper than 1 and every combination uses its deepest row, or a smaller
    total would be deficient; so the sum of two combinations cannot vanish.
    """
    depth = sum(k)
    return tuple(
        j
        for pos, j in enumerate(u)
        if stack_at(gens, u, k[:pos] + (k[pos] - 1,) + k[pos + 1 :])[0] == depth - 1
    )


def _minimal_dependent_first_rows(gens: GeneratorSet) -> tuple[int, ...]:
    """A minimal subset whose first rows are dependent: up to 20 coordinates the
    smallest (by size, then lex).  That one is a circuit, so it is also the
    first subset whose first rows XOR to zero; the search still tries up to
    ``2**s`` subsets.  Past 20, the circuit that closes the first dependent
    prefix, which need not be smallest: with first rows e1, e2, e3,
    e1^e2^e3 at 1-4 and one shared by 5 and 6, it is (1, 2, 3, 4), not (5, 6).
    """
    s = gens.s
    if s <= 20:
        first = [rows[0] for rows in gens._rows]
        for u in _subsets(s):
            acc = 0
            for j in u:
                acc ^= first[j - 1]
            if not acc:
                return u
        raise AssertionError("unreachable: caller checked dependence")
    # too many subsets: take the circuit that closes the first dependent prefix
    f = next(j for j in range(1, s + 1) if stack_at(gens, range(1, j + 1), (1,) * j)[0] < j)
    return _circuit(gens, tuple(range(1, f + 1)), (1,) * f)


@dataclass
class GainReport:
    """Result of an enumeration sweep over (u, k) pairs."""

    entries: list[tuple[SubsetIndex, GainValue]]
    gamma_max: GainValue
    attaining: SubsetIndex | None
    theoretical: GainValue
    attained_theoretical: bool
    bounds: dict[str, int]
    visited: int
    truncated: bool
    max_depth: int
    bound_violations: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "visited": self.visited,
            "truncated": self.truncated,
            "gamma_max_log2": self.gamma_max.log2,
            "attaining": None
            if self.attaining is None
            else {"u": list(self.attaining.u), "k": list(self.attaining.k)},
            "theoretical_log2": self.theoretical.log2,
            "attained_theoretical": self.attained_theoretical,
            "bounds": self.bounds,
            "bound_violations": self.bound_violations,
            "entries": [
                {"u": list(ix.u), "k": list(ix.k), "log2_gain": gv.log2}
                for ix, gv in self.entries
            ],
        }

    def write_csv(self, stream: TextIO) -> None:
        stream.write("u,k,log2_gain\n")
        for ix, gv in self.entries:
            stream.write(f"{' '.join(map(str, ix.u))},{' '.join(map(str, ix.k))},{gv.log2}\n")


def enumerate_gains(
    gens: GeneratorSet, max_depth: int, *, max_visits: int | None = None
) -> GainReport:
    """Visit every (u, k) with ``|k| <= max_depth`` and record nonzero gains.

    Depths are capped at ``m + 1`` per coordinate since the zero-row
    padding makes gains stationary from depth ``m`` on.  The stack of
    ``(u, k)`` is that of the all-coordinate ``k`` padded with zeros, so
    the one walk over coordinates ``1..s`` that finds ``t``
    (:func:`~netgains.quality._least_gain_total`) eliminates every stack of
    the table once.  It hands each the normal forms of the ``s`` next rows;
    they are linear, so the ``u`` containing the support of ``k`` with a gain
    are an affine space, solved by one elimination of the free forms, and
    the walk takes their least ``|u|`` in place of its own test of the free
    sets.  The entries are checked against the clamped t bound after the walk.

    The walk goes to every ``(u, k)`` of the table whatever ``max_visits``
    keeps, and every gain it meets, kept or not, lowers the least rank of a
    gain at its ``u``; Γ and the bounds come off those ranks.  A table that
    holds a gain holds one of least ``|k|``, which attains
    :func:`max_gain`'s Γ: Γ is ``2**(m - least rank)``.  At the
    attaining ``(u, k)``, ``t*_u`` comes from the least rank over the
    subsets ``v`` of ``u`` and ``t_u`` from the least ``|v| + rank``.  Ranks
    serve for ``|k|``: the projection onto ``v`` has
    ``Γ_v = 2**(m - min_{w⊆v} g(w))``, ``g(w)`` the least ``|k|`` of a gain
    at ``w``, so a gain at ``v`` has rank at least that minimum, and a gain
    of least ``|k|`` has full rank and attains it; the same argument with
    ``t_v`` covers ``|v| + rank``.  The ``t*_u`` minimum lies in the table,
    as ``g(u)`` is at most the attaining ``|k|``; the ``t_u`` one is exact at
    most ``max_depth + 2`` or at ``m + 1 - t``, else
    :func:`~netgains.quality.t_u` searches.  A table with no gain takes Γ
    from the floor-1 search.

    Entries come in ``(|u|, u, k)`` order, ``k`` lexicographic.
    ``max_visits`` keeps the first that many ``(u, k)`` in that order (the
    report then carries ``truncated=True``), filtered after the walk, and
    ``visited`` is what it keeps.  Raises :class:`ResourceLimitError`, before any
    walk, when there are more than :data:`ENUMERATION_VISIT_LIMIT` pairs
    ``(u, k)`` with ``k`` in ``[0, m + 1]^u`` and ``|k| <= max_depth``, or
    more than :data:`~netgains.quality.T_SEARCH_LIMIT` stacks ``k`` in
    ``[0, m + 1]^s`` with ``|k| <= max_depth``, which the ``t`` search tests
    one by one; and when its ``t`` search, the floor-1 search of a table
    with no gain or a ``t_u`` search passes that limit.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if max_visits is not None and max_visits < 0:
        raise ValueError(f"max_visits must be >= 0, got {max_visits}")
    s, m = gens.s, gens.m
    counts = _box_counts(s, m + 1, max_depth)
    total = sum(math.comb(s, r) * counts[r] for r in range(1, s + 1))
    if total > ENUMERATION_VISIT_LIMIT:
        raise ResourceLimitError(
            f"max_depth={max_depth} over s={s} coordinates asks for {total} (u, k) visits "
            f"(limit {ENUMERATION_VISIT_LIMIT})"
        )
    if counts[s] > quality.T_SEARCH_LIMIT:
        raise ResourceLimitError(
            f"max_depth={max_depth} over s={s} coordinates asks for {counts[s]} stacks, each a test of "
            f"the t search (limit {quality.T_SEARCH_LIMIT})"
        )
    kept = total if max_visits is None else min(total, max_visits)
    found: defaultdict[int, list[tuple[int, ...]]] = defaultdict(list)  # found[mask]: (*k, rank) of u's gains
    bits = [1 << j for j in range(s)]

    def span(u: int, masks: list[int]) -> list[int]:  # u XOR each sum of the independent masks
        sets = [u]
        for mask in masks:
            sets += [v ^ mask for v in sets]
        return sets

    # at rank m every form is 0, so the gains are u with each set of the coordinates outside it
    supersets = functools.cache(lambda u: span(u, [bit for bit in bits if not bit & u]))

    def record(k: list[int], rank: int, forms: list[int]) -> int:
        """Record every ``u`` containing ``supp(k)`` with a gain; return the least such ``|u| > 0``, or 0.

        Those ``u`` are the sets whose free forms XOR to ``forms[s]``, that over ``supp(k)``.  Eliminating the
        free forms, each pivot with the mask of the forms it sums, reduces ``forms[s]`` to a residual (no gain)
        or to 0 along one mask; the masks of the forms that reduce to 0 span the rest."""
        if rank == m:
            u = sum(itertools.compress(bits, k))
            gains, fewest = supersets(u), u.bit_count()
        else:
            pivots, kernel, u = {}, [], 0
            for form, mask, kj in zip(forms, bits, k):
                if kj:
                    u |= mask
                    continue
                while form and form.bit_length() in pivots:
                    pivot, held = pivots[form.bit_length()]
                    form, mask = form ^ pivot, mask ^ held
                if form:
                    pivots[form.bit_length()] = form, mask
                else:
                    kernel.append(mask)
            form = forms[s]
            while form:
                if form.bit_length() not in pivots:
                    return 0
                pivot, held = pivots[form.bit_length()]
                form, u = form ^ pivot, u ^ held
            gains = span(u, kernel)[0 if u else 1 :]  # at k = 0 the empty set is no u
            fewest = min(map(int.bit_count, gains), default=0)
        stack = (*k, rank)
        for v in gains:
            found[v].append(stack)
        return fewest

    t = m + 1 - _least_gain_total(gens, range(1, s + 1), 0, max_depth, record)
    least = {mask: min(map(operator.itemgetter(-1), stacks)) for mask, stacks in found.items()}  # kept or not
    values = [GainValue(m - rank) for rank in range(m + 1)]
    entries: list[tuple[SubsetIndex, GainValue]] = []
    violations: list[dict] = []
    # the largest kept gain has the least rank; its witness is the first entry at that
    # rank by (|u|, u, |k|, k), and the masks come in (|u|, u) order and found[mask] in k order
    low, attaining = m + 1, None
    for r, u, mask in sorted((v.bit_count(), tuple(j + 1 for j in range(s) if v >> j & 1), v) for v in found):
        members, clamp, stacks = [(mask >> j) & 1 for j in range(s)], min(t + r - 1, m), found[mask]
        if kept < total:  # keep the (u, k) placed below kept in the visit order, skip of them before u's
            gaps = [j - i - 1 for i, j in zip((0,) + u, u)]  # lex order as u among the r-subsets, total <= s - r
            skip = sum(math.comb(s, q) * counts[q] for q in range(1, r)) + counts[r] * _box_rank(gaps, s, s - r)
            place = lambda stack: _box_rank(tuple(itertools.compress(stack, members)), m + 1, max_depth)
            stacks = stacks[: bisect.bisect_left(stacks, kept - skip, key=place)]
        for stack in stacks:
            rank = stack[-1]
            kk = tuple(itertools.compress(stack, members))
            entries.append((SubsetIndex._trusted(u, kk), values[rank]))
            if m - rank > clamp:
                violations.append({"u": list(u), "k": list(kk), "log2_gain": m - rank})
            if rank < low or rank == low and attaining.u == u and sum(kk) < sum(attaining.k):
                low, attaining = rank, entries[-1][0]

    gamma, bounds = GainValue.zero(), {}
    if least:
        theoretical = values[min(least.values())]
    else:  # no gain in the table
        theoretical = GainValue(m + s - _least_gain_total(gens, range(1, s + 1), 1))
    if attaining is not None:
        gamma, order, umask = values[low], len(attaining.u), sum(1 << (j - 1) for j in attaining.u)
        subsets = [v for v in least if not v & ~umask]
        low_total = min(v.bit_count() + least[v] for v in subsets)
        if low_total > max_depth + 2 and low_total != m + 1 - t:  # a gain past the table may have less
            low_total = m + 1 - (t if umask == (1 << s) - 1 else t_u(gens, attaining.u))
        bounds = {"rank": gamma.as_int, "t": 1 << (t + order - 1), "t_u": 1 << (m + order - low_total)}
        star = min(least[v] for v in subsets)
        if star:
            bounds["t_star_u"] = 1 << (m - star)
    return GainReport(
        entries=entries,
        gamma_max=gamma,
        attaining=attaining,
        theoretical=theoretical,
        attained_theoretical=(gamma == theoretical),
        bounds=bounds,
        visited=kept,  # the walk reaches every (u, k), so it visits all it keeps
        truncated=kept < total,
        max_depth=max_depth,
        bound_violations=violations,
    )


__all__ = [
    "ENUMERATION_VISIT_LIMIT",
    "PAIR_TABLE_CELL_LIMIT",
    "ResourceLimitError",
    "GainValue",
    "GainReport",
    "gain_fast",
    "gain_bruteforce",
    "gain_pair_table",
    "gain_representation",
    "NullTable",
    "max_gain",
    "enumerate_gains",
]
