"""From-scratch scrambles: one seed, one value at a time, in Python integers.

The library scrambles a vector of seeds at once and reads each random
draw as a closed-form counter.  The helpers here redo one scramble the
direct way, with a sequential stream of splitmix64 draws per coordinate,
so the tests can hold the batched engine against them bit for bit.
"""

from __future__ import annotations

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
TAGS = {"random_linear": 0x11, "nested_uniform": 0x22, "digital_shift": 0x33}
TAG_OFFSET = 0x44
TAG_REPLICATE = 0x55


def splitmix64(x: int) -> int:
    x = (x + GOLDEN) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def derive(seed: int, *parts: int) -> int:
    key = seed & MASK
    for part in parts:
        key = splitmix64(key ^ (part & MASK))
    return key


class Stream:
    """Sequential draws: the state steps by the golden gamma before each one."""

    def __init__(self, key: int):
        self.state = key

    def bits(self, count: int) -> int:
        self.state = (self.state + GOLDEN) & MASK
        word = splitmix64(self.state)
        return word >> (64 - count) if count > 0 else 0


def scramble_value(a: int, m: int, d: int, kind: str, key: int) -> int:
    """The ``d``-digit scramble of the ``m``-digit numerator ``a`` under ``key``."""
    if kind == "random_linear":
        stream = Stream(key)
        cols = [(1 << (d - c)) | stream.bits(d - c) for c in range(1, m + 1)]
        out = stream.bits(d)
        for c in range(1, m + 1):
            if (a >> (m - c)) & 1:
                out ^= cols[c - 1]
        return out
    if kind == "digital_shift":
        return (a << (d - m)) ^ Stream(key).bits(d)
    out = 0
    for r in range(1, d + 1):
        prefix = a >> (m - (r - 1)) if r - 1 <= m else a << (r - 1 - m)
        digit = splitmix64(prefix ^ derive(key, r)) & 1
        if r <= m:
            digit ^= (a >> (m - r)) & 1
        out |= digit << (d - r)
    return out


def scramble_rows(coords, m: int, d: int, kind: str, seed: int) -> tuple[list[list[int]], list[list[float]]]:
    """Numerators and reals of one scramble of the points ``coords``."""
    keys = [derive(seed, TAGS[kind], j) for j in range(1, len(coords[0]) + 1)]
    offset_keys = [derive(seed, TAG_OFFSET, j) for j in range(1, len(coords[0]) + 1)]
    numerators = [[scramble_value(int(a), m, d, kind, key) for a, key in zip(row, keys)] for row in coords]
    reals = [
        [(float(v) + (splitmix64(i ^ ok) >> 11) * 2.0**-53) * 2.0**-d for v, ok in zip(row, offset_keys)]
        for i, row in enumerate(numerators)
    ]
    return numerators, reals


def replicate_seed(seed: int, r: int) -> int:
    return derive(seed, TAG_REPLICATE, r)
