"""Randomization of digital nets and replicate-based RQMC estimation.

Three scramble kinds are provided, all base 2 and all deterministic given
the 64-bit seed:

* ``RANDOM_LINEAR`` - per coordinate, multiply the fraction bits by a
  random unit-lower-triangular bit matrix and XOR a random digital shift.
* ``NESTED_UNIFORM`` - per coordinate, an independent random bit flip for
  every node of the binary digit tree, hashed once per node from the digit
  prefix into a table of at most ``2**m`` values per replicate and coordinate.
* ``DIGITAL_SHIFT_ONLY`` - XOR one random shift per coordinate.

Scrambled points carry ``output_bits >= m`` digits; a uniform offset below
the last digit makes each point exactly uniform on [0, 1).  All randomness
comes from a splitmix-style hash, so results are reproducible across runs,
platforms and chunk sizes.

One engine scrambles a chunk of replicates at a time, with their seeds
hashed per chunk.  It hashes the keys of all coordinates at once, and XORs
the digital shift over the whole chunk.  The other two kinds build a table
of every scrambled numerator and gather from it: for all coordinates
together while the tables are small (``s * 2**m <= 2**14`` values per
replicate), and one coordinate at a time past that, so that a large table
stays in cache while it is gathered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .gains import gain_fast
from .netgen import GeneratorSet, NetPoints, SubsetIndex, _coordinates, _xor_span, generate_points

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB

_TAG_OFFSET = 0x44
_TAG_REPLICATE = 0x55


def _mix_np(x: np.ndarray) -> np.ndarray:
    """64-bit avalanche hash: the splitmix64 finalizer on ``x`` + golden gamma."""
    with np.errstate(over="ignore"):
        x = x + np.uint64(_GOLDEN)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_C1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_C2)
        return x ^ (x >> np.uint64(31))


def _derive(keys: np.ndarray, *parts: int) -> np.ndarray:
    for part in parts:
        keys = _mix_np(keys ^ np.uint64(part & _MASK64))
    return keys


class _ReplicateSeeds:
    """The seeds of replicates ``r < count`` of a run with base seed ``seed``, hashed a
    slice at a time, so that no more seeds are held than one chunk of scrambles takes.

    Hashed, so distinct base seeds give unrelated replicate sets; an XOR
    of ``seed`` and ``r`` would make seeds 1 and 2 share replicates 0..3.
    """

    def __init__(self, seed: int, count: int):
        self._key = _derive(np.uint64(seed & _MASK64), _TAG_REPLICATE)
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, rs: slice) -> np.ndarray:
        return _mix_np(np.arange(*rs.indices(self._count), dtype=np.uint64) ^ self._key)


class ScrambleKind(str, Enum):
    RANDOM_LINEAR = "random_linear"
    NESTED_UNIFORM = "nested_uniform"
    DIGITAL_SHIFT_ONLY = "digital_shift"


@dataclass(frozen=True)
class ScrambleSpec:
    """What randomization to apply; ``output_bits=None`` means m digits."""

    kind: ScrambleKind = ScrambleKind.NESTED_UNIFORM
    output_bits: int | None = None
    seed: int = 0


class ScrambledPoints:
    """Scrambled numerators over 2**output_bits, from the 64-bit scramble seed ``seed``."""

    def __init__(self, numerators: np.ndarray, output_bits: int, seed: int):
        numerators = np.ascontiguousarray(numerators, dtype=np.uint64)
        numerators.flags.writeable = False
        self._numerators = numerators
        self._bits = output_bits
        self._seed = seed

    @property
    def numerators(self) -> np.ndarray:
        return self._numerators

    @property
    def output_bits(self) -> int:
        return self._bits

    @property
    def n(self) -> int:
        return self._numerators.shape[0]

    @property
    def s(self) -> int:
        return self._numerators.shape[1]

    @property
    def reals(self) -> np.ndarray:
        """Points in [0, 1); exactly uniform thanks to an in-cell offset hashed from the seed."""
        return _reals(self._numerators[None], self._bits, np.array([self._seed], dtype=np.uint64))[0]

    def to_net_points(self) -> NetPoints:
        """Reinterpret the scrambled numerators, frozen and shared, as a net (output_bits <= 32)."""
        return NetPoints(self._numerators, self._bits, _owned=True)


def _reals(numerators: np.ndarray, bits: int, seeds: np.ndarray, start: int = 0) -> np.ndarray:
    """Points ``(r, n, s)`` of the scrambles with ``seeds``: each numerator plus an offset
    below its last digit, hashed from the seed, point (counted from ``start``) and coordinate."""
    index = np.arange(start, start + numerators.shape[1], dtype=np.uint64)
    out = numerators.astype(np.float64)
    for j in range(1, numerators.shape[2] + 1):
        h = _mix_np(index ^ _derive(seeds, _TAG_OFFSET, j)[:, None])
        out[:, :, j - 1] += (h >> np.uint64(11)).astype(np.float64) * math.ldexp(1.0, -53)
    out *= math.ldexp(1.0, -bits)
    return out


# The table kinds map the keys ``(r, g)`` of a group of ``g`` coordinates to the
# ``d``-digit scrambles of every m-digit numerator, ``(r, g * 2**m)``: per replicate,
# the tables of the group's coordinates one after the other.

def _scramble_linear(m: int, d: int, keys: np.ndarray) -> np.ndarray:
    # draw i of a key's stream is _mix_np(key + i * gamma): m draws for the columns, one for the shift
    words = _mix_np(keys[..., None] + np.arange(1, m + 2, dtype=np.uint64) * np.uint64(_GOLDEN))
    # column c has its leading one at digit c and d - c random digits below it
    below = np.uint64(d) - np.arange(1, m + 1, dtype=np.uint64)
    cols = (np.uint64(1) << below) | (words[..., :m] >> (np.uint64(64) - below))
    # bit m - c of a numerator picks column c, so the span of the reversed columns is indexed by it
    span = _xor_span(np.moveaxis(cols[..., ::-1], -1, 0))
    span ^= words[..., m] >> np.uint64(64 - d)
    return np.moveaxis(span, 0, -1).reshape(len(keys), -1)


def _scramble_nested(m: int, d: int, keys: np.ndarray) -> np.ndarray:
    table = np.zeros(keys.shape + (1,), dtype=np.uint64)
    for r in range(1, d + 1):
        # digit r flips by the hash of its node: an (r - 1)-digit prefix, or past m a numerator and zeros
        nodes = np.arange(table.shape[-1], dtype=np.uint64) << np.uint64(max(r - 1 - m, 0))
        table |= (_mix_np(nodes ^ _derive(keys, r)[..., None]) & np.uint64(1)) << np.uint64(d - r)
        if r <= m:  # prefix p becomes 2p and 2p + 1, the second with digit r flipped once more
            flipped = table ^ (np.uint64(1) << np.uint64(d - r))
            table = np.stack((table, flipped), axis=-1).reshape(keys.shape + (-1,))
    return table.reshape(len(keys), -1)


_KIND_TAG_FN = {
    ScrambleKind.RANDOM_LINEAR: (0x11, _scramble_linear),
    ScrambleKind.NESTED_UNIFORM: (0x22, _scramble_nested),
    ScrambleKind.DIGITAL_SHIFT_ONLY: (0x33, None),
}

# Scrambled values per chunk of seeds; a chunk holds at least one scramble.
_CHUNK_VALUES = 1 << 18
# Table values per replicate (128 KiB) up to which all coordinates share one table
# build and gather; larger tables are built and gathered one coordinate at a time,
# so that each stays in cache.  Grouping up to 2^16 (s = 7 at m = 12) bought no
# throughput in the rqmc-points benchmark and raised its peak RSS by 1.8 MiB.
_GROUP_VALUES = 1 << 14


def _output_bits(m: int, output_bits: int | None) -> int:
    d = m if output_bits is None else output_bits
    if not m <= d <= 64:
        raise ValueError(f"output_bits must be in [{m}, 64], got {d}")
    return d


def _scramble_chunks(points: NetPoints, kind: ScrambleKind, d: int, seeds: np.ndarray | _ReplicateSeeds):
    """Yield ``(start, chunk, numerators)``: the scrambles ``(r, n, s)`` of ``points`` at
    ``d`` digits under the seeds ``chunk = seeds[start:start + r]``, about
    ``_CHUNK_VALUES`` values at a time."""
    tag, table_fn = _KIND_TAG_FN[ScrambleKind(kind)]
    n, s, m = points.n, points.s, points.m
    step = max(1, _CHUNK_VALUES // (n * s))
    group = s if s << m <= _GROUP_VALUES else 1
    index = points.coords
    if group > 1:  # coordinate j reads its table at offset j * 2^m of the group's tables
        index = index + (np.arange(s, dtype=np.uint64) << np.uint64(m))
    for start in range(0, len(seeds), step):
        chunk = seeds[start : start + step]
        # key of coordinate j: _derive(seed, tag, j), for all j in one hash
        keys = _mix_np(_derive(chunk, tag)[:, None] ^ np.arange(1, s + 1, dtype=np.uint64))
        numerators = np.empty((len(chunk), n, s), dtype=np.uint64)
        if table_fn is None:  # the digital shift: each key stream's first draw
            np.left_shift(points.coords, np.uint64(d - m), out=numerators)
            numerators ^= (_mix_np(keys + np.uint64(_GOLDEN)) >> np.uint64(64 - d))[:, None, :]
        else:
            for j in range(0, s, group):  # no table outlives its gather
                cols = slice(j, j + group)
                numerators[:, :, cols] = table_fn(m, d, keys[:, cols])[:, index[:, cols]]
        yield start, chunk, numerators


def _scrambles(
    points: NetPoints, spec: ScrambleSpec, seeds: np.ndarray | _ReplicateSeeds
) -> Iterator[ScrambledPoints]:
    """The scrambles of ``points`` under ``spec`` with each of ``seeds`` in turn."""
    d = _output_bits(points.m, spec.output_bits)
    return (
        ScrambledPoints(numerators[i], d, int(chunk[i]))
        for _, chunk, numerators in _scramble_chunks(points, spec.kind, d, seeds)
        for i in range(len(numerators))
    )


def scramble(points: NetPoints, spec: ScrambleSpec) -> ScrambledPoints:
    """Randomize a net; same seed gives bit-identical output every time."""
    (out,) = _scrambles(points, spec, np.array([spec.seed & _MASK64], dtype=np.uint64))
    return out


# --- integrands and estimation ------------------------------------------------

class HaarIntegrand(SubsetIndex):
    """Product of one-dimensional square waves at depth ``k_j``, j in u.

    The value at x is ``prod_j sign(k_j-th-level half of x_j)``, with +1
    on the left half of each depth-``k_j`` dyadic cell and -1 on the right
    half.  Mean 0, variance 1, and constant on cells of depth ``k_j + 1``,
    so it is evaluated exactly on scrambled numerators with enough digits
    (:meth:`values_from_cells`), never on reals.  Built only with ``max(k) < 64``.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.needed_bits > 64:
            raise ValueError(f"haar integrand at k={self.k} needs more than 64 digits")

    @property
    def needed_bits(self) -> int:
        return max(self.k) + 1

    def values_from_cells(self, numerators: np.ndarray, bits: int) -> np.ndarray:
        """Exact values from cell labels, one per point (the last axis holds
        the coordinates); needs ``bits >= max(k) + 1``."""
        if bits < self.needed_bits:
            raise ValueError(f"need {self.needed_bits} digits, points carry {bits}")
        out = np.ones(numerators.shape[:-1])
        for j, kj in zip(self.u, self.k):
            bit = (numerators[..., j - 1] >> np.uint64(bits - (kj + 1))) & np.uint64(1)
            out *= 1.0 - 2.0 * bit.astype(np.float64)
        return out


@dataclass(frozen=True)
class RqmcEstimate:
    """Replicated-scramble estimate with its estimated estimator variance."""

    mean: float
    variance_of_mean: float
    replicates: int
    per_replicate_means: tuple[float, ...]

    @property
    def std_error(self) -> float:
        return math.sqrt(self.variance_of_mean)

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean,
            "variance_of_mean": self.variance_of_mean,
            "std_error": self.std_error,
            "replicates": self.replicates,
        }


def estimate(
    points: NetPoints,
    spec: ScrambleSpec,
    integrand: Callable[[np.ndarray], np.ndarray] | HaarIntegrand,
    replicates: int,
) -> RqmcEstimate:
    """Mean of ``replicates`` independently scrambled estimates.

    Replicate r reuses ``spec`` with seed r of ``_ReplicateSeeds(spec.seed, ...)``,
    so replicates of different base seeds are independent; the reported
    ``variance_of_mean`` is the unbiased sample variance of the replicate
    means divided by the replicate count.  ``integrand`` maps the rows of
    an array of points to one value each; it is called on the points of
    many replicates at once.  A :class:`HaarIntegrand` is not callable: it
    is read from the scrambled cells, at ``max(output bits, max(k) + 1)``
    digits.
    """
    if replicates < 2:
        raise ValueError(f"need at least 2 replicates, got {replicates}")
    d = _output_bits(points.m, spec.output_bits)
    haar = isinstance(integrand, HaarIntegrand)
    if haar:
        _coordinates(points.s, integrand.u)
        d = max(d, integrand.needed_bits)
    seeds = _ReplicateSeeds(spec.seed, replicates)
    means = np.empty(replicates)
    for start, chunk, numerators in _scramble_chunks(points, spec.kind, d, seeds):
        r, n, s = numerators.shape
        if haar:
            values = integrand.values_from_cells(numerators, d)
        else:
            x = _reals(numerators, d, chunk).reshape(r * n, s)
            values = np.asarray(integrand(x), dtype=np.float64).reshape(r, n)
        if not np.isfinite(values).all():
            rep, bad = divmod(int(np.flatnonzero(~np.isfinite(values))[0]), n)
            raise ValueError(
                f"integrand returned a non-finite value at point {bad} of replicate {start + rep}"
            )
        means[start : start + r] = values.mean(axis=1)
    grand = float(means.mean())
    var_mean = float(means.var(ddof=1)) / replicates
    return RqmcEstimate(grand, var_mean, replicates, tuple(means.tolist()))


@dataclass(frozen=True)
class GainIdentityReport:
    """Empirical check of n * var(replicate means) against one gain value."""

    index: SubsetIndex
    kind: ScrambleKind
    expected_gain_log2: int | None
    empirical_n_var: float
    mc_se: float
    passed: bool
    replicates: int
    diagnostic: "GainIdentityReport | None" = None

    def to_json_dict(self) -> dict:
        out = {
            "u": list(self.index.u),
            "k": list(self.index.k),
            "kind": self.kind.value,
            "expected_gain_log2": self.expected_gain_log2,
            "empirical_n_var": self.empirical_n_var,
            "mc_se": self.mc_se,
            "pass": self.passed,
            "replicates": self.replicates,
        }
        if self.diagnostic is not None:
            out["diagnostic"] = self.diagnostic.to_json_dict()
        return out


def verify_gain_identity(
    gens: GeneratorSet,
    idx: SubsetIndex,
    replicates: int,
    spec: ScrambleSpec,
    *,
    tolerance_se: float = 3.0,
) -> GainIdentityReport:
    """Compare scramble variance with the exact gain, one term at a time.

    Integrating the unit square wave for ``idx`` over R independent
    scrambles, ``n * var`` of the replicate means estimates exactly the
    gain coefficient; the Monte Carlo error of that variance estimate is
    taken from the replicate fourth moment, and the check passes within
    ``tolerance_se`` standard errors.  A random-linear failure triggers a
    nested-uniform diagnostic re-run, since the identity is only expected
    (not proven here) for the linear scramble.
    """
    expected = gain_fast(gens, idx)  # its walk refuses an idx beyond the net before any scramble
    integrand = HaarIntegrand(idx.u, idx.k)
    points = generate_points(gens)
    est = estimate(points, spec, integrand, replicates)

    ys = np.array(est.per_replicate_means)
    r = replicates
    s2 = float(ys.var(ddof=1))
    n_var = points.n * s2
    m4 = float(((ys - ys.mean()) ** 4).mean())
    var_s2 = max(0.0, (m4 - s2 * s2 * (r - 3) / (r - 1)) / r)
    se = points.n * math.sqrt(var_s2)
    passed = abs(n_var - expected.as_int) <= tolerance_se * se

    diagnostic = None
    if not passed and ScrambleKind(spec.kind) is ScrambleKind.RANDOM_LINEAR:
        diagnostic = verify_gain_identity(
            gens,
            idx,
            replicates,
            replace(spec, kind=ScrambleKind.NESTED_UNIFORM),
            tolerance_se=tolerance_se,
        )
    return GainIdentityReport(
        index=idx,
        kind=ScrambleKind(spec.kind),
        expected_gain_log2=expected.log2,
        empirical_n_var=n_var,
        mc_se=se,
        passed=passed,
        replicates=replicates,
        diagnostic=diagnostic,
    )


__all__ = [
    "ScrambleKind",
    "ScrambleSpec",
    "ScrambledPoints",
    "scramble",
    "HaarIntegrand",
    "RqmcEstimate",
    "estimate",
    "GainIdentityReport",
    "verify_gain_identity",
]
