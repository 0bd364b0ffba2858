"""Exact gain coefficients of scrambled digital nets in base 2.

A gain coefficient is indexed by a nonempty coordinate subset ``u`` and a
depth vector ``k``: it is the factor by which scrambling rescales the
plain-MC variance contribution of functions that oscillate at resolution
``k`` on exactly the coordinates in ``u``.  For a net built from generator
matrices every such coefficient is 0 or a power of two, and which of the
two cases holds is a row-space membership question, so the value can be
read off one GF(2) elimination (:func:`gain_fast`).

Three routes of increasing speed compute the same number:

* :func:`gain_bruteforce` - the O(n^2) pairwise sum over the points, the
  definition itself; knows nothing about matrices.  :func:`gain_pair_table`
  gives the same sums for every ``(u, k)`` at once, in O(n * s), from the
  match depths of the points' XOR differences from point 0.
* :func:`gain_representation` - a signed count over the nullspace of the
  stacked matrix; middle ground.  :class:`KernelWalk` gives the counts for
  every ``k`` of one subset, restricting one nullspace basis row by row.
* :func:`gain_fast` - rank plus one membership test.

They are kept deliberately separate so each can serve as an oracle for the
others; all three use exact integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering
from typing import TextIO

import numpy as np

from .netgen import (
    GeneratorSet,
    NetPoints,
    ResourceLimitError,
    StackWalk,
    SubsetIndex,
    _Box,
    _match_depth,
    _subsets,
    _xor_span,
    stack_at,
)
from .quality import _box_counts, first_rank_deficient_k, t_u, t_value

NULLSPACE_LOG2_LIMIT = 24
ENUMERATION_VISIT_LIMIT = 1 << 24
_BRUTE_CHUNK = 512
_PAIR_BLOCK_LOG2 = 16  # at most 2^16 rows of points per block of gain_pair_table


@total_ordering
@dataclass(frozen=True)
class GainValue:
    """A gain coefficient as log2; ``None`` encodes the exact value 0."""

    log2: int | None

    @classmethod
    def zero(cls) -> "GainValue":
        return cls(None)

    @property
    def is_zero(self) -> bool:
        return self.log2 is None

    @property
    def as_int(self) -> int:
        return 0 if self.log2 is None else 1 << self.log2

    def _key(self) -> int:
        return -1 if self.log2 is None else self.log2

    def __lt__(self, other: "GainValue") -> bool:
        return self._key() < other._key()

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
    meant for modest nets.
    """
    if idx.u[-1] > points.s:
        raise ValueError(f"subset {idx.u} exceeds dimension s={points.s}")
    n, m = points.n, points.m
    cols = [points.coords[:, j - 1] for j in idx.u]
    total = 0
    for start in range(0, n, _BRUTE_CHUNK):
        prod = None
        for col, kj in zip(cols, idx.k):
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
    ``n`` times that of ``y``; a depth is clamped to ``0..m + 1`` and
    ``m + 2`` stands for "identical", which beats every ``k_j``.  A pair
    adds ``W[k_j, d_j] = [d_j > k_j] - [d_j == k_j]`` per coordinate in
    ``u`` and 1 per coordinate outside it, so the table is H contracted
    along each axis with W below a leading all-ones row.  Both the check
    and the histogram run over blocks of at most an eighth of the rows
    (but 64 rows at least and ``2**16`` at most), so beyond the table
    itself the temporaries stay below the size of the points.
    """
    n, m, s = points.n, points.m, points.s
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
            code += np.minimum(_match_depth(diff[:, j], m), m + 2)
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


def gain_representation(gens: GeneratorSet, idx: SubsetIndex) -> int:
    """Gain coefficient as a signed count over the stacked matrix nullspace.

    The one-vector :class:`KernelWalk`: depths past ``m + 1`` are clamped
    there, which changes neither the nullspace nor the next rows.

    Raises :class:`ResourceLimitError` when the nullspace has more than
    ``2**NULLSPACE_LOG2_LIMIT`` elements; use :func:`gain_fast` there.
    """
    return next(iter(KernelWalk(gens, idx.u, [min(kj, gens.m + 1) for kj in idx.k])))


class KernelWalk(_Box):
    """Signed nullspace counts over the :class:`~netgains.netgen._Box` of ``u`` from ``floor``.

    It eliminates in the dual space and shares no elimination code with the
    rank route, :class:`~netgains.netgen.StackWalk`, only the box and its
    cut: per coordinate of ``u`` it keeps a basis of the nullspace of the
    rows stacked up to it.  As ``N(C_{u,k+e_j})`` is
    ``{v in N(C_{u,k}) : row_{k_j+1}(j) . v = 0}``, stepping ``k_j`` up is
    one :func:`_restrict`.

    Iterating yields, per ``k``, the sum over N(C_{u,k}) of -1 to the number
    of next rows (row ``k_j + 1`` of each ``j``) a vector trips.  Sign
    patterns are linear in the vector, so a Gray-code walk updates them in
    O(1) per state; an empty basis yields 1 without a walk.  ``basis`` is
    the current one.  Raises :class:`ResourceLimitError` at a ``k`` whose
    nullspace has more than ``2**NULLSPACE_LOG2_LIMIT`` elements.  Once the
    basis is empty, every ``k`` of the slab that :meth:`cut` skips has the
    empty nullspace and the count 1.
    """

    basis: list[int]

    def __iter__(self):
        rows, floor, cap, k = self._rows, self._floor, self._cap, self.k
        last = len(rows) - 1
        bases = [[]] * (last + 1)  # at i: the basis for the rows of coordinates 0..i
        nexts = [0] * (last + 1)  # row k_j + 1 of each coordinate
        i, basis = -1, [1 << b for b in range(cap - 1)]  # the empty stack's: all m-bit vectors
        self._cut = None
        while True:
            for j in range(i + 1, last + 1):  # the coordinates after i start at their floor
                k[j] = floor[j]
                nexts[j] = rows[j][floor[j]]
                for ell in range(floor[j]):
                    basis = _restrict(basis, rows[j][ell])
                bases[j] = basis
            self.basis = basis
            yield _signed_count(basis, nexts) if basis else 1
            # the next k in lex order steps up the last coordinate that can,
            # or, past a cut slab, the last one before its level
            i = last
            if self._cut is not None:
                i, self._cut = self._cut - 1, None
            while i >= 0 and k[i] >= cap:
                i -= 1
            if i < 0:
                return
            basis = bases[i] = _restrict(bases[i], rows[i][k[i]])
            k[i] += 1
            nexts[i] = rows[i][k[i]]


def _restrict(basis: list[int], row: int) -> list[int]:
    """A basis of ``{v in span(basis) : row . v = 0}``; ``basis`` itself if all of it.

    Takes the first vector with odd product, XORs it into the later ones
    with odd product, and drops it.  The earlier vectors have even product.
    """
    for i, pivot in enumerate(basis):
        if (pivot & row).bit_count() & 1:
            break
    else:
        return basis
    out = basis[:i]
    for vec in basis[i + 1 :]:
        out.append(vec ^ pivot if (vec & row).bit_count() & 1 else vec)
    return out


def _signed_count(basis: list[int], nexts: list[int]) -> int:
    """Sum over the span of ``basis`` of -1 to the number of ``nexts`` rows it trips."""
    dim = len(basis)
    if dim > NULLSPACE_LOG2_LIMIT:
        raise ResourceLimitError(
            f"nullspace has 2^{dim} elements (limit 2^{NULLSPACE_LOG2_LIMIT})"
        )
    # pattern of one basis vector: which next rows it trips
    patkeys = []
    for vec in basis:
        pat = 0
        for g in nexts:
            pat = (pat << 1) | ((g & vec).bit_count() & 1)
        patkeys.append(pat)
    total = 1  # the zero index: all-match, sign +1
    pat = 0
    for step in range(1, 1 << dim):
        pat ^= patkeys[(step & -step).bit_length() - 1]
        total += 1 - 2 * (pat.bit_count() & 1)
    return total


def max_gain(gens: GeneratorSet) -> tuple[GainValue, SubsetIndex]:
    """Largest gain coefficient over all (u, k), with a witness attaining it.

    It is ``2**(t*_{1:s} + s - 1) = 2**(m + s - |k*|)``, with ``k*`` the
    :func:`~netgains.quality.first_rank_deficient_k` of all coordinates.
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
    smallest (by size, then lex).  Past 20, the circuit that closes the first
    dependent prefix, which need not be smallest: with first rows e1, e2, e3,
    e1^e2^e3 at 1-4 and one shared by 5 and 6, it is (1, 2, 3, 4), not (5, 6).
    """
    s = gens.s
    if s <= 20:
        for u in _subsets(s):
            if stack_at(gens, u, (1,) * len(u))[0] < len(u):
                return u
        raise AssertionError("unreachable: caller checked dependence")
    # too many subsets: take the circuit that closes the first dependent prefix
    f = next(j for j in range(1, s + 1) if stack_at(gens, range(1, j + 1), (1,) * j)[0] < j)
    return _circuit(gens, tuple(range(1, f + 1)), (1,) * f)


def gain_bounds(gens: GeneratorSet, idx: SubsetIndex) -> dict[str, int]:
    """Every applicable upper bound for the gain at ``idx``, by name.

    "rank" is ``2**(m - rank)`` of the stacked matrix; "t", "t_u" and
    "t_star_u" are ``2**(param + |u| - 1)``.  The t* bound only applies
    when the one-row-per-coordinate stack over ``u`` has full rank, so it
    is omitted otherwise.
    """
    stack_at(gens, idx.u, idx.k)  # its walk refuses an idx beyond the net before the t search
    return _bounds(gens, idx, t_value(gens))


def _bounds(gens: GeneratorSet, idx: SubsetIndex, t: int) -> dict[str, int]:
    u, order, m = idx.u, idx.order, gens.m
    out = {
        "rank": 1 << (m - stack_at(gens, u, idx.k)[0]),
        "t": 1 << (t + order - 1),
        "t_u": 1 << (t_u(gens, u) + order - 1),
    }
    # t*_u = m + 1 - |k*|, and |k*| = |u| iff the first rows of u are dependent
    least = sum(first_rank_deficient_k(gens, u))
    if least > order:
        out["t_star_u"] = 1 << (m + order - least)
    return out


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


def _entry_key(idx: SubsetIndex) -> tuple:
    return (idx.order, idx.u, idx.depth, idx.k)


def enumerate_gains(
    gens: GeneratorSet, max_depth: int, *, max_visits: int | None = None
) -> GainReport:
    """Visit every (u, k) with ``|k| <= max_depth`` and record nonzero gains.

    Depths are capped at ``m + 1`` per coordinate since the zero-row
    padding makes gains stationary from depth ``m`` on.  The stack of
    ``(u, k)`` is that of the all-coordinate ``k`` padded with zeros, so
    one :class:`StackWalk` over coordinates ``1..s`` with floor 0 eliminates
    every stack once.  At each stack it reduces the ``s`` next rows; the
    residual is linear, so every ``u`` containing the support of ``k``
    costs one XOR, the free coordinates taken in Gray-code order.  The
    same walk finds the least deficient total, so ``t``, and the entries
    are checked against the clamped t bound after it.

    Entries come in ``(|u|, u, k)`` order, ``k`` lexicographic.
    ``max_visits`` keeps the first that many ``(u, k)`` in that order (the
    report then carries ``truncated=True``); it trims the report but does
    not shorten the walk.  Raises :class:`ResourceLimitError`, before any
    walk, when there are more than :data:`ENUMERATION_VISIT_LIMIT` pairs
    ``(u, k)`` with ``k`` in ``[0, m + 1]^u`` and ``|k| <= max_depth``.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if max_visits is not None and max_visits < 0:
        raise ValueError(f"max_visits must be >= 0, got {max_visits}")
    s, m = gens.s, gens.m
    cap = m + 1
    counts = _box_counts(s, cap, max_depth)
    total = sum(math.comb(s, r) * counts[r] for r in range(1, s + 1))
    if total > ENUMERATION_VISIT_LIMIT:
        raise ResourceLimitError(
            f"max_depth={max_depth} over s={s} coordinates asks for {total} (u, k) visits "
            f"(limit {ENUMERATION_VISIT_LIMIT})"
        )
    # quota[mask]: how many of the first (u, k) in lex order are still to visit
    quota = [0] * (1 << s)
    left = total if max_visits is None else min(total, max_visits)
    masks = {u: sum(1 << (j - 1) for j in u) for u in _subsets(s)}
    for u, mask in masks.items():
        quota[mask] = min(counts[len(u)], left)
        left -= quota[mask]
    truncated = max_visits is not None and max_visits < total

    found: defaultdict[int, list[tuple[int, ...]]] = defaultdict(list)  # (*k, rank) per stack
    # gray[i]: the free coordinate, counted from 1, that step i of a Gray code over
    # them flips; step 0 flips placeholder 0, so the code starts at u = supp(k)
    gray = b""
    for j in range(1, s + 1):
        gray += bytes([j]) + gray
    gray = b"\0" + gray
    rows = gens._rows
    walk = StackWalk(gens, range(1, s + 1), (0,) * s, max(max_depth, cap))
    residual, k = walk.table.residual, walk.k
    least = cap + 1  # no deficient stack yet; some total <= m + 1 always is
    visited = 0
    for depth, rank, _ in walk:
        if rank < depth < least:
            least = depth
            walk.budget = max(max_depth, least - 1)
        if depth > max_depth:
            continue
        acc = u = 0
        free_rows, free_bits = [0], [0]
        for j in range(s):
            reduced = residual(rows[j][k[j]]) if rank < m else 0  # a full stack spans all
            if k[j]:
                acc ^= reduced
                u |= 1 << j
            else:
                free_rows.append(reduced)
                free_bits.append(1 << j)
        stack = (*k, rank)
        for b in gray[: 1 << (len(free_rows) - 1)]:
            acc ^= free_rows[b]
            u ^= free_bits[b]
            if quota[u]:
                quota[u] -= 1
                visited += 1
                if not acc:
                    found[u].append(stack)

    t = m + 1 - least
    values = [GainValue(m - rank) for rank in range(m + 1)]
    entries: list[tuple[SubsetIndex, GainValue]] = []
    violations: list[dict] = []
    for u, mask in masks.items():
        clamp = min(t + len(u) - 1, m)
        members = [(mask >> j) & 1 for j in range(s)]
        for stack in found.get(mask, ()):
            rank = stack[-1]
            kk = tuple(itertools.compress(stack, members))
            entries.append((SubsetIndex._trusted(u, kk), values[rank]))
            if m - rank > clamp:
                violations.append({"u": list(u), "k": list(kk), "log2_gain": m - rank})

    gamma = GainValue.zero()
    attaining = None
    for idx, gv in entries:
        if gv > gamma or (gv == gamma and attaining is not None and _entry_key(idx) < _entry_key(attaining)):
            gamma, attaining = gv, idx

    theoretical, _ = max_gain(gens)
    bounds = _bounds(gens, attaining, t) if attaining is not None else {}
    return GainReport(
        entries=entries,
        gamma_max=gamma,
        attaining=attaining,
        theoretical=theoretical,
        attained_theoretical=(gamma == theoretical),
        bounds=bounds,
        visited=visited,
        truncated=truncated,
        max_depth=max_depth,
        bound_violations=violations,
    )


__all__ = [
    "NULLSPACE_LOG2_LIMIT",
    "ENUMERATION_VISIT_LIMIT",
    "ResourceLimitError",
    "GainValue",
    "GainReport",
    "gain_fast",
    "gain_bruteforce",
    "gain_pair_table",
    "gain_representation",
    "KernelWalk",
    "max_gain",
    "gain_bounds",
    "enumerate_gains",
]
