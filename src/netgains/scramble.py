"""Randomization of digital nets and replicate-based RQMC estimation.

Three scramble kinds are provided, all base 2 and all deterministic given
the 64-bit seed:

* ``RANDOM_LINEAR`` - per coordinate, multiply the fraction bits by a
  random unit-lower-triangular bit matrix and XOR a random digital shift.
* ``NESTED_UNIFORM`` - per coordinate, an independent random bit flip for
  every node of the binary digit tree; flips are produced by a counter
  based hash of the digit prefix, so no tree is ever materialized.
* ``DIGITAL_SHIFT_ONLY`` - XOR one random shift per coordinate.

Scrambled points carry ``output_bits >= m`` digits; a uniform offset below
the last digit makes each point exactly uniform on [0, 1).  All randomness
comes from a splitmix-style hash, so results are reproducible across runs,
platforms and thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .gains import gain_fast
from .netgen import GeneratorSet, NetPoints, SubsetIndex, _xor_span, generate_points

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB

_TAG_LINEAR = 0x11
_TAG_NESTED = 0x22
_TAG_SHIFT = 0x33
_TAG_OFFSET = 0x44
_TAG_REPLICATE = 0x55


def splitmix64(x: int) -> int:
    """64-bit avalanche hash (the splitmix64 finalizer on x + golden gamma)."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _C1) & _MASK64
    x = ((x ^ (x >> 27)) * _C2) & _MASK64
    return x ^ (x >> 31)


def _mix_np(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = x + np.uint64(_GOLDEN)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_C1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_C2)
        return x ^ (x >> np.uint64(31))


def _derive(seed: int, *parts: int) -> int:
    key = seed & _MASK64
    for part in parts:
        key = splitmix64(key ^ (part & _MASK64))
    return key


def replicate_seed(seed: int, r: int) -> int:
    """Seed of replicate ``r`` of a run with base seed ``seed``.

    Hashed, so distinct base seeds give unrelated replicate sets; an XOR
    of ``seed`` and ``r`` would make seeds 1 and 2 share replicates 0..3.
    """
    return _derive(seed, _TAG_REPLICATE, r)


class _Stream:
    """Sequential splitmix64 draws from a derived key."""

    def __init__(self, key: int):
        self._state = key & _MASK64

    def next64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return splitmix64(self._state)

    def bits(self, count: int) -> int:
        word = self.next64()
        return word >> (64 - count) if count > 0 else 0


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
    """Scrambled numerators over 2**output_bits plus in-cell offsets."""

    def __init__(self, numerators: np.ndarray, output_bits: int, offsets: np.ndarray):
        numerators = np.ascontiguousarray(numerators, dtype=np.uint64)
        numerators.flags.writeable = False
        offsets = np.ascontiguousarray(offsets, dtype=np.float64)
        offsets.flags.writeable = False
        self._numerators = numerators
        self._offsets = offsets
        self._bits = output_bits

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
        """Points in [0, 1); exactly uniform thanks to the in-cell offset."""
        scale = math.ldexp(1.0, -self._bits)
        return (self._numerators.astype(np.float64) + self._offsets) * scale

    def to_net_points(self) -> NetPoints:
        """Reinterpret the scrambled numerators, frozen and shared, as a net (output_bits <= 32)."""
        return NetPoints(self._numerators, self._bits, _owned=True)


def _scramble_linear(a: np.ndarray, m: int, d: int, key: int) -> np.ndarray:
    stream = _Stream(key)
    cols = [(1 << (d - c)) | stream.bits(d - c) for c in range(1, m + 1)]
    shift = stream.bits(d)
    # bit m - c of a picks column c, so the span of the reversed columns is indexed by a
    return _xor_span(np.array(cols[::-1], dtype=np.uint64))[a] ^ np.uint64(shift)


def _scramble_nested(a: np.ndarray, m: int, d: int, key: int) -> np.ndarray:
    out = np.zeros(a.shape, dtype=np.uint64)
    zero = np.zeros(a.shape, dtype=np.uint64)
    for r in range(1, d + 1):
        if r - 1 <= m:
            prefix = a >> np.uint64(m - (r - 1))
        else:
            prefix = a << np.uint64(r - 1 - m)
        flips = _mix_np(prefix ^ np.uint64(_derive(key, r))) & np.uint64(1)
        in_bit = (a >> np.uint64(m - r)) & np.uint64(1) if r <= m else zero
        out |= (in_bit ^ flips) << np.uint64(d - r)
    return out


def _scramble_shift(a: np.ndarray, m: int, d: int, key: int) -> np.ndarray:
    shift = _Stream(key).bits(d)
    return (a << np.uint64(d - m)) ^ np.uint64(shift)


_KIND_TAG_FN = {
    ScrambleKind.RANDOM_LINEAR: (_TAG_LINEAR, _scramble_linear),
    ScrambleKind.NESTED_UNIFORM: (_TAG_NESTED, _scramble_nested),
    ScrambleKind.DIGITAL_SHIFT_ONLY: (_TAG_SHIFT, _scramble_shift),
}


def scramble(points: NetPoints, spec: ScrambleSpec) -> ScrambledPoints:
    """Randomize a net; same seed gives bit-identical output every time."""
    m = points.m
    d = m if spec.output_bits is None else spec.output_bits
    if not m <= d <= 64:
        raise ValueError(f"output_bits must be in [{m}, 64], got {d}")
    tag, fn = _KIND_TAG_FN[ScrambleKind(spec.kind)]
    n, s = points.n, points.s
    numerators = np.empty((n, s), dtype=np.uint64)
    offsets = np.empty((n, s), dtype=np.float64)
    index = np.arange(n, dtype=np.uint64)
    for j in range(1, s + 1):
        numerators[:, j - 1] = fn(points.coords[:, j - 1], m, d, _derive(spec.seed, tag, j))
        h = _mix_np(index ^ np.uint64(_derive(spec.seed, _TAG_OFFSET, j)))
        offsets[:, j - 1] = (h >> np.uint64(11)).astype(np.float64) * math.ldexp(1.0, -53)
    return ScrambledPoints(numerators, d, offsets)


# --- integrands and estimation ------------------------------------------------

@dataclass(frozen=True)
class HaarIntegrand:
    """Product of one-dimensional square waves at depth ``k_j``, j in u.

    The value at x is ``amplitude * prod_j sign(k_j-th-level half of x_j)``
    with +1 on the left half of each depth-``k_j`` dyadic cell and -1 on
    the right half.  Mean 0, variance amplitude^2, and constant on cells of
    depth ``k_j + 1``, so evaluating on scrambled numerators with enough
    digits is exact.
    """

    u: tuple[int, ...]
    k: tuple[int, ...]
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        idx = SubsetIndex(tuple(self.u), tuple(self.k))  # validates shape
        object.__setattr__(self, "u", idx.u)
        object.__setattr__(self, "k", idx.k)

    @property
    def needed_bits(self) -> int:
        return max(self.k) + 1

    def values_from_cells(self, numerators: np.ndarray, bits: int) -> np.ndarray:
        """Exact values from cell labels; needs ``bits >= max(k) + 1``."""
        if bits < self.needed_bits:
            raise ValueError(f"need {self.needed_bits} digits, points carry {bits}")
        out = np.full(numerators.shape[0], self.amplitude)
        for j, kj in zip(self.u, self.k):
            bit = (numerators[:, j - 1] >> np.uint64(bits - (kj + 1))) & np.uint64(1)
            out *= 1.0 - 2.0 * bit.astype(np.float64)
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = np.full(x.shape[0], self.amplitude)
        for j, kj in zip(self.u, self.k):
            cell = np.floor(x[:, j - 1] * float(1 << (kj + 1))).astype(np.int64)
            out *= 1.0 - 2.0 * (cell & 1).astype(np.float64)
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


def _replicate_values(integrand, scrambled: ScrambledPoints) -> np.ndarray:
    if isinstance(integrand, HaarIntegrand) and scrambled.output_bits >= integrand.needed_bits:
        return integrand.values_from_cells(scrambled.numerators, scrambled.output_bits)
    return np.asarray(integrand(scrambled.reals), dtype=np.float64)


def estimate(
    points: NetPoints,
    spec: ScrambleSpec,
    integrand: Callable[[np.ndarray], np.ndarray] | HaarIntegrand,
    replicates: int,
) -> RqmcEstimate:
    """Mean of ``replicates`` independently scrambled estimates.

    Replicate r reuses ``spec`` with seed ``replicate_seed(spec.seed, r)``,
    so replicates of different base seeds are independent; the reported
    ``variance_of_mean`` is the unbiased sample variance of the replicate
    means divided by the replicate count.
    """
    if replicates < 2:
        raise ValueError(f"need at least 2 replicates, got {replicates}")
    if isinstance(integrand, HaarIntegrand) and integrand.u[-1] > points.s:
        raise ValueError(f"haar integrand on u={integrand.u} exceeds dimension s={points.s}")
    means = []
    for r in range(replicates):
        scrambled = scramble(points, replace(spec, seed=replicate_seed(spec.seed, r)))
        values = _replicate_values(integrand, scrambled)
        if not np.isfinite(values).all():
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValueError(
                f"integrand returned a non-finite value at point {bad} of replicate {r}"
            )
        means.append(float(values.mean()))
    arr = np.array(means)
    grand = float(arr.mean())
    var_mean = float(arr.var(ddof=1)) / replicates
    return RqmcEstimate(grand, var_mean, replicates, tuple(means))


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
    gens.validate_index(idx)
    expected = gain_fast(gens, idx)
    points = generate_points(gens)
    base_bits = gens.m if spec.output_bits is None else spec.output_bits
    bits = max(base_bits, max(idx.k) + 1)
    run_spec = replace(spec, output_bits=bits)
    est = estimate(points, run_spec, HaarIntegrand(idx.u, idx.k), replicates)

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
    "splitmix64",
    "replicate_seed",
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
