"""Digital net construction in base 2.

A net is defined by ``s`` generator matrices of shape ``m x m`` over GF(2).
Point ``i`` of the net has, in coordinate ``j``, the fraction whose bit
``l`` (bit 1 being worth 1/2) is row ``l`` of matrix ``j`` dotted with the
bits of ``i`` (bit 1 of ``i`` being its least significant bit).  Points are
carried around as integer numerators over ``2**m``.

Rows of a generator matrix beyond row ``m`` are defined to be zero.  The
points only carry ``m`` bits, so any question about deeper digits has the
answer "that digit is zero"; adopting the convention here keeps every
stacked matrix and every gain coefficient well defined at arbitrary depth.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import TextIO

import numpy as np

from .gf2 import BitMatrix, PivotTable

MAX_M = 32
POINT_VALUE_LIMIT = 1 << 27  # 1 GiB of uint64 numerators

RAW = "raw"
DIRECTION_NUMBERS = "direction_numbers"


class ResourceLimitError(RuntimeError):
    """A computation would enumerate more states or hold more values than allowed."""


class ParseError(ValueError):
    """Malformed generator input; carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class SubsetIndex:
    """A nonempty sorted coordinate subset ``u`` with one depth per member."""

    u: tuple[int, ...]
    k: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", tuple(self.u))
        object.__setattr__(self, "k", tuple(self.k))
        if not self.u:
            raise ValueError("u must be nonempty")
        if any(b <= a for a, b in zip(self.u, self.u[1:])):
            raise ValueError(f"u must be strictly increasing, got {self.u}")
        if self.u[0] < 1:
            raise ValueError("coordinates are 1-based")
        if len(self.k) != len(self.u):
            raise ValueError(f"k has {len(self.k)} entries for {len(self.u)} coordinates")
        if any(kj < 0 for kj in self.k):
            raise ValueError(f"negative depth in {self.k}")

    @classmethod
    def _trusted(cls, u: tuple[int, ...], k: tuple[int, ...]) -> "SubsetIndex":
        """An index from a walk that only makes valid ones; skips the checks."""
        idx = object.__new__(cls)
        object.__setattr__(idx, "u", u)
        object.__setattr__(idx, "k", k)
        return idx

    @property
    def depth(self) -> int:
        return sum(self.k)

    @property
    def order(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class GeneratorSet:
    """The ``s`` generator matrices (each ``m x m``) of one digital net."""

    matrices: tuple[BitMatrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrices", tuple(self.matrices))
        if not self.matrices:
            raise ValueError("need at least one generator matrix")
        m = self.matrices[0].ncols
        if not 1 <= m <= MAX_M:
            raise ValueError(f"m must be in [1, {MAX_M}] for point generation, got {m}")
        for j, mat in enumerate(self.matrices, start=1):
            if mat.ncols != m or mat.nrows != m:
                raise ValueError(
                    f"matrix {j} is {mat.nrows}x{mat.ncols}, expected {m}x{m}"
                )

    @property
    def s(self) -> int:
        return len(self.matrices)

    @property
    def m(self) -> int:
        return self.matrices[0].ncols

    @property
    def n(self) -> int:
        return 1 << self.m

    def row(self, j: int, ell: int) -> int:
        """Packed row ``ell`` (1-based) of matrix ``j``; zero for ``ell > m``."""
        if not 1 <= j <= self.s:
            raise IndexError(f"coordinate {j} out of range 1..{self.s}")
        if ell < 1:
            raise IndexError(f"row index {ell} out of range")
        if ell > self.m:
            return 0
        return self.matrices[j - 1].rows[ell - 1]

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        """Per matrix: rows ``1..m``, then zero rows ``m + 1`` and ``m + 2``."""
        return tuple(mat.rows + (0, 0) for mat in self.matrices)

    @cached_property
    def _columns(self) -> np.ndarray:
        """(m, s): at ``[c - 1, j - 1]``, column ``c`` of matrix ``j`` as a point numerator."""
        cols = np.array([_transpose(mat.rows, self.m) for mat in self.matrices], dtype=np.uint64).T
        cols.flags.writeable = False
        return cols

    def validate_index(self, idx: SubsetIndex) -> None:
        if idx.u[-1] > self.s:
            raise ValueError(f"subset {idx.u} exceeds dimension s={self.s}")


class NetPoints:
    """All ``2**m`` points of a net as an (n, s) array of numerators."""

    def __init__(self, coords: np.ndarray, m: int, *, _owned: bool = False):
        # frozen below: an own copy, so the caller's array stays writeable and unaliased,
        # unless ``_owned`` says that no one writes to ``coords`` again
        coords = (np.ascontiguousarray(coords, dtype=np.uint64) if _owned
                  else np.array(coords, dtype=np.uint64, order="C"))
        if coords.ndim != 2:
            raise ValueError("coords must be 2-dimensional")
        if not 1 <= m <= MAX_M:
            raise ValueError(f"m must be in [1, {MAX_M}]")
        if coords.shape[0] != 1 << m:
            raise ValueError(f"expected {1 << m} points for m={m}, got {coords.shape[0]}")
        if coords.size and int(coords.max()) >> m:
            raise ValueError("numerator out of range for m bits")
        coords.flags.writeable = False
        self._coords = coords
        self._m = m

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def m(self) -> int:
        return self._m

    @property
    def n(self) -> int:
        return self._coords.shape[0]

    @property
    def s(self) -> int:
        return self._coords.shape[1]


DEPTH_INF = np.int16(2**14)  # "all digits match"; above every real depth


def _match_depth(xor: np.ndarray, m: int) -> np.ndarray:
    """Common-prefix length of m-bit values from their XOR (DEPTH_INF if equal).

    ``m`` minus the bit length, which is the ``frexp`` exponent: exact below 2**53.
    """
    out = (m - np.frexp(xor.astype(np.float64))[1]).astype(np.int16)
    out[xor == 0] = DEPTH_INF
    return out


def _xor_span(basis: np.ndarray) -> np.ndarray:
    """Row ``i`` is the XOR of ``basis[b]`` over the set bits ``b`` of ``i``, for all
    ``i < 2**len(basis)``: rows ``[2**b, 2**(b + 1))`` are rows ``[0, 2**b)`` ^ ``basis[b]``."""
    out = np.empty((1 << len(basis),) + basis.shape[1:], dtype=np.uint64)
    out[0] = 0
    for b, row in enumerate(basis):
        np.bitwise_xor(out[: 1 << b], row, out=out[1 << b : 2 << b])
    return out


# --- parsing ----------------------------------------------------------------

def _as_lines(source: str | TextIO) -> list[str]:
    if isinstance(source, str):
        return source.splitlines()
    return source.read().splitlines()


def load_generators(
    source: str | TextIO,
    fmt: str = RAW,
    *,
    dims: int | None = None,
    m: int | None = None,
) -> GeneratorSet:
    """Read a :class:`GeneratorSet` from text.

    ``fmt="raw"``: header line "s m", then s blocks separated by blank
    lines, each block being m lines of m characters from {0, 1} (row ``l``
    of matrix ``j``).

    ``fmt="direction_numbers"``: the Joe-Kuo direction-number layout
    (header line, then "d s a m_1 ... m_s" per dimension >= 2); ``dims``
    and ``m`` select how much of the table to instantiate.  Matrix 1 is
    always the identity.
    """
    lines = _as_lines(source)
    if fmt == RAW:
        if dims is not None or m is not None:
            raise ValueError("dims/m overrides only apply to direction_numbers input")
        return _parse_raw(lines)
    if fmt == DIRECTION_NUMBERS:
        if dims is None or m is None:
            raise ValueError("direction_numbers input needs dims and m")
        entries = parse_direction_numbers(lines)
        return sobol_generator_set(entries, dims, m)
    raise ValueError(f"unknown format {fmt!r}")


def _parse_raw(lines: list[str]) -> GeneratorSet:
    pos = 0

    def next_content() -> tuple[str, int]:
        nonlocal pos
        while pos < len(lines):
            text = lines[pos].strip()
            pos += 1
            if text:
                return text, pos
        raise ParseError("unexpected end of input", len(lines))

    header, lineno = next_content()
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"header must be 's m', got {header!r}", lineno)
    try:
        s, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"header must be two integers, got {header!r}", lineno) from None
    if s < 1:
        raise ParseError(f"dimension s must be >= 1, got {s}", lineno)
    if not 1 <= m <= MAX_M:
        raise ParseError(f"m must be in [1, {MAX_M}], got {m}", lineno)

    matrices = []
    for _ in range(s):
        rows = []
        for _ in range(m):
            text, lineno = next_content()
            if len(text) != m:
                raise ParseError(f"expected {m} binary digits, got {len(text)}", lineno)
            if set(text) - {"0", "1"}:
                raise ParseError(f"non-binary digit in row {text!r}", lineno)
            rows.append(int(text, 2))
        matrices.append(BitMatrix(m, tuple(rows)))
    while pos < len(lines):
        if lines[pos].strip():
            raise ParseError(f"unexpected content {lines[pos].strip()!r}", pos + 1)
        pos += 1
    return GeneratorSet(tuple(matrices))


@dataclass(frozen=True)
class DirectionEntry:
    """One Joe-Kuo table line: dimension, polynomial degree, a, initial m_i."""

    dim: int
    degree: int
    a: int
    m_init: tuple[int, ...]


def parse_direction_numbers(lines: list[str]) -> dict[int, DirectionEntry]:
    """Parse the Joe-Kuo layout into entries keyed by dimension (>= 2)."""
    entries: dict[int, DirectionEntry] = {}
    seen_header = False
    for lineno, raw_line in enumerate(lines, start=1):
        text = raw_line.strip()
        if not text:
            continue
        if not seen_header:
            seen_header = True  # first content line is the column header
            continue
        parts = text.split()
        if len(parts) < 4:
            raise ParseError(f"expected 'd s a m_1 ... m_s', got {text!r}", lineno)
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"non-integer token in {text!r}", lineno) from None
        d, degree, a = values[0], values[1], values[2]
        m_init = tuple(values[3:])
        if d < 2:
            raise ParseError(f"direction-number entries start at dimension 2, got {d}", lineno)
        if d in entries:
            raise ParseError(f"duplicate entry for dimension {d}", lineno)
        if degree < 1:
            raise ParseError(f"polynomial degree must be >= 1, got {degree}", lineno)
        if len(m_init) != degree:
            raise ParseError(
                f"degree {degree} needs {degree} initial values, got {len(m_init)}", lineno
            )
        if not 0 <= a < 1 << max(degree - 1, 0):
            raise ParseError(f"a={a} out of range for degree {degree}", lineno)
        for i, mi in enumerate(m_init, start=1):
            if mi <= 0 or mi % 2 == 0 or mi >= 1 << i:
                raise ParseError(f"m_{i}={mi} must be odd and < 2^{i}", lineno)
        entries[d] = DirectionEntry(d, degree, a, m_init)
    if not seen_header:
        raise ParseError("empty direction-number input", 1)
    return entries


def direction_columns(entry: DirectionEntry, m: int) -> tuple[int, ...]:
    """First ``m`` direction numbers of one dimension, as m-bit numerators.

    Column ``c`` holds the top ``m`` bits of the c-th direction number; the
    recurrence past the polynomial degree q is

        m_c = 2 a_1 m_{c-1} ^ 4 a_2 m_{c-2} ^ ... ^ 2^q m_{c-q} ^ m_{c-q}

    with a_1 the most significant bit of the table's ``a`` field.
    """
    q = entry.degree
    mvals = list(entry.m_init[:m])
    for c in range(len(mvals) + 1, m + 1):
        acc = mvals[c - q - 1] ^ (mvals[c - q - 1] << q)
        for t in range(1, q):
            if (entry.a >> (q - 1 - t)) & 1:
                acc ^= mvals[c - t - 1] << t
        mvals.append(acc)
    return tuple(mv << (m - c) for c, mv in enumerate(mvals, start=1))


def _transpose(vectors: tuple[int, ...], m: int) -> tuple[int, ...]:
    """An m x m bit matrix packed one m-bit int per row (or column), the other way round."""
    return tuple(
        sum(((v >> (m - a)) & 1) << (m - b) for b, v in enumerate(vectors, start=1))
        for a in range(1, m + 1)
    )


def sobol_generator_set(entries: dict[int, DirectionEntry], dims: int, m: int) -> GeneratorSet:
    """Generator matrices for the first ``dims`` Sobol' dimensions."""
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m must be in [1, {MAX_M}], got {m}")
    matrices = [BitMatrix.identity(m)]
    for d in range(2, dims + 1):
        entry = entries.get(d)
        if entry is None:
            raise ParseError(f"no direction-number entry for dimension {d}")
        matrices.append(BitMatrix(m, _transpose(direction_columns(entry, m), m)))
    return GeneratorSet(tuple(matrices))


# --- point generation -------------------------------------------------------

def _refuse_points(m: int, s: int) -> None:
    """Raise :class:`ResourceLimitError` when ``2**m`` points in ``s`` coordinates
    exceed :data:`POINT_VALUE_LIMIT` values."""
    if s << m > POINT_VALUE_LIMIT:
        raise ResourceLimitError(
            f"the points of a net with m={m}, s={s} are {s << m} values "
            f"(limit {POINT_VALUE_LIMIT})"
        )


def generate_points(gens: GeneratorSet) -> NetPoints:
    """All ``2**m`` points in index order: point ``i`` is the XOR of the
    generator columns ``c`` picked by the bits ``c - 1`` of ``i``.  Raises
    :class:`ResourceLimitError`, before allocating, past :data:`POINT_VALUE_LIMIT`."""
    _refuse_points(gens.m, gens.s)
    return NetPoints(_xor_span(gens._columns), gens.m, _owned=True)


# --- stacked matrices -------------------------------------------------------

class StackWalk:
    """Depth-first walk over the depth vectors ``k`` of one coordinate subset ``u``.

    Visits every ``k`` with ``floor[i] <= k[i] <= cap`` and ``sum(k) <=
    budget`` in lexicographic order.  The stack C_{u,k} (the first ``k_j``
    rows of matrix ``j``, for ``j`` in ``u`` in order) is eliminated in one
    :class:`PivotTable`: stepping ``k[i]`` up pushes one row, and stepping
    back undoes the pushes, so every ``k`` shares the elimination of its
    common prefix with the ``k`` visited before it.  ``cap`` is at most
    ``m + 1``; deeper rows are zero and change nothing.

    Iterating yields ``(depth, rank, nxt)`` per visited ``k``: ``sum(k)``,
    the rank of C_{u,k}, and the XOR of the next rows (row ``k_j + 1`` of
    each ``j``).  ``table.residual(nxt) == 0`` says whether that XOR lies in
    the row space.  ``k`` is the current vector, a list updated in place.
    Lowering ``budget`` while iterating skips the deeper ``k`` from then on.

    :meth:`cut`, called after a yield, skips every ``k`` still to come
    whose stack contains the current one's rows: the slab of ``k'`` equal
    to ``k`` before level ``i`` and at least ``k[i]`` at it, where ``i`` is
    the deepest coordinate above its floor (0 if none).  In lexicographic
    order they run from the current ``k`` to the end of the level-``i``
    loop, so the walk resumes past them.

    A zero depth adds no rows, so with floor 0 the walk also visits the
    stack of every subset of ``u``: ``enumerate_gains`` and ``t_u`` walk
    once over all their coordinates rather than once per subset.
    """

    def __init__(self, gens: GeneratorSet, u, floor, cap: int, budget: int):
        _check_walk(gens, u, floor)
        if not 0 <= cap <= gens.m + 1:
            raise ValueError(f"cap must be in [0, {gens.m + 1}], got {cap}")
        self._rows = [gens._rows[j - 1] for j in u]
        self._floor = tuple(floor)
        self._cap = cap
        self.budget = budget
        self.table = PivotTable(gens.m)
        self.k = [0] * len(u)
        self._cut: int | None = None

    def cut(self) -> int:
        """Skip the slab of the current ``k`` (see the class docstring); return its level ``i``."""
        self._cut = _cut_level(self.k, self._floor)
        return self._cut

    def __iter__(self):
        rows, floor, cap, k = self._rows, self._floor, self._cap, self.k
        push, undo, log = self.table.push, self.table.undo, self.table.log
        undo(0)  # a walk left early may have rows pushed
        self._cut = None
        last = len(rows) - 1
        tail = [0] * (last + 2)  # least depth the coordinates from i on need
        for i in range(last, -1, -1):
            tail[i] = tail[i + 1] + floor[i]
        spent = [0] * (last + 1)  # depth of the coordinates before i
        pre = [0] * (last + 1)  # XOR of their next rows
        marks = [0] * (last + 1)
        level, entering = 0, True
        while level >= 0:
            row = rows[level]
            hi = min(cap, self.budget - spent[level] - tail[level + 1])
            if entering:
                kl = floor[level]
                if kl > hi:
                    level, entering = level - 1, False
                    continue
                marks[level] = len(log)
                for ell in range(kl):
                    push(row[ell])
            else:
                kl = k[level]
                if kl >= hi:
                    undo(marks[level])
                    level -= 1
                    continue
                push(row[kl])
                kl += 1
            k[level] = kl
            if level < last:
                spent[level + 1] = spent[level] + kl
                pre[level + 1] = pre[level] ^ row[kl]
                level, entering = level + 1, True
                continue
            depth, nxt = spent[level], pre[level]
            while True:
                yield depth + kl, len(log), nxt ^ row[kl]
                if self._cut is not None:  # leave the levels from the cut on
                    level, self._cut = self._cut, None
                    break
                if kl >= min(hi, self.budget - depth):
                    break
                push(row[kl])
                kl += 1
                k[level] = kl
            undo(marks[level])
            level, entering = level - 1, False


def _subsets(s: int):
    """The nonempty subsets of ``1..s`` in ``(|u|, u)`` order."""
    for r in range(1, s + 1):
        yield from itertools.combinations(range(1, s + 1), r)


def _check_walk(gens: GeneratorSet, u, floor) -> None:
    """Refuse a walk over coordinates ``u`` from ``floor`` that ``gens`` cannot take."""
    if not u or any(not 1 <= j <= gens.s for j in u):
        raise ValueError(f"u must be nonempty coordinates in 1..{gens.s}, got {tuple(u)}")
    if len(floor) != len(u):
        raise ValueError(f"floor has {len(floor)} entries for {len(u)} coordinates")


def _cut_level(k, floor) -> int:
    """The deepest coordinate of ``k`` above its floor, 0 if none: the level a walk cuts at."""
    i = len(k) - 1
    while i and k[i] == floor[i]:
        i -= 1
    return i


def stack_at(gens: GeneratorSet, u, k) -> tuple[int, bool]:
    """Rank of C_{u,k}, and whether the XOR of its next rows lies in its row space.

    A walk over the single vector ``k``; depths past ``m + 1`` are clamped
    there, which changes neither answer.
    """
    cap = gens.m + 1
    k = [min(kj, cap) for kj in k]
    walk = StackWalk(gens, u, k, cap, sum(k))
    _, rank, nxt = next(iter(walk))
    return rank, not walk.table.residual(nxt)


# --- export -----------------------------------------------------------------

def write_points_csv(numerators: np.ndarray, bits: int, stream: TextIO) -> None:
    """Write points as decimal fractions, one point per line."""
    scale = float(2**bits)
    for row in numerators:
        stream.write(",".join(repr(int(v) / scale) for v in row))
        stream.write("\n")


def write_points_binary(numerators: np.ndarray, bits: int, stream: io.RawIOBase) -> None:
    """Write numerators row-major as little-endian u32 (u64 past 32 bits)."""
    dtype = "<u4" if bits <= 32 else "<u8"
    stream.write(np.ascontiguousarray(numerators, dtype=np.uint64).astype(dtype).tobytes())


__all__ = [
    "MAX_M",
    "POINT_VALUE_LIMIT",
    "RAW",
    "DIRECTION_NUMBERS",
    "ParseError",
    "ResourceLimitError",
    "SubsetIndex",
    "GeneratorSet",
    "NetPoints",
    "DirectionEntry",
    "load_generators",
    "parse_direction_numbers",
    "direction_columns",
    "sobol_generator_set",
    "generate_points",
    "StackWalk",
    "stack_at",
    "write_points_csv",
    "write_points_binary",
]
