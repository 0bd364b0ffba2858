"""Checks of the program's outputs, as pure functions over plain data.

Each check returns a list of problems; an empty list means the output
passed.  Nothing here imports ``netgains``: the workloads turn program
outputs into dicts, arrays and numbers first, and the expected values come
from :mod:`reference` or from properties the method must have.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

import reference

Key = tuple[tuple[int, ...], tuple[int, ...]]  # (u, k)

# An RQMC mean further than this many standard errors from the true
# integral fails; unbiased estimators pass it except with odds far below 1e-6.
ESTIMATE_Z = 6.0


def digest(*parts) -> str:
    """Stable hash of arrays, bytes and reprs; equal outputs give equal digests."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.shape, str(part.dtype))).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _is_power_log2(log2) -> bool:
    return isinstance(log2, int) and not isinstance(log2, bool) and log2 >= 0


def check_sweep_record(rec: Mapping, s: int, m: int, ref_t: int) -> list[str]:
    """One ``evaluate_net`` record against the reference and the paper's properties."""
    out = []
    for field in ("oracle_mismatches", "non_power_values", "chain_violations", "zero_region_violations"):
        if rec[field]:
            out.append(f"{field}={rec[field]}")
    if rec["t"] != ref_t:
        out.append(f"rank t={rec['t']} but counting t={ref_t}")
    if rec["counting_t"] != ref_t:
        out.append(f"program counting t={rec['counting_t']} but reference t={ref_t}")
    want = reference.pair_count(s, m)
    if rec["triples"] != want:
        out.append(f"triples={rec['triples']} but (m+3)^s-1={want}")
    if rec["enum_max_log2"] != rec["closed_form_log2"] or not rec["witness_ok"]:
        out.append(
            f"enumerated max 2^{rec['enum_max_log2']} vs closed form "
            f"2^{rec['closed_form_log2']} (witness_ok={rec['witness_ok']})"
        )
    return out


def check_values(program: Mapping[Key, Fraction | int], ref: Mapping[Key, Fraction]) -> list[str]:
    """Sampled gain values against the reference pairwise sum, entry by entry."""
    return [
        f"gain at u={u} k={k}: program {program.get((u, k))} != reference {want}"
        for (u, k), want in ref.items()
        if program.get((u, k)) != want
    ]


def check_bounded(values: Mapping[Key, Fraction | int], t: int, m: int) -> list[str]:
    """Every nonzero value is a power of two at most ``2**min(t + |u| - 1, m)``."""
    out = []
    for (u, k), value in values.items():
        if value == 0:
            continue
        v = Fraction(value)
        if v.denominator != 1 or v.numerator & (v.numerator - 1) or v.numerator > 1 << min(t + len(u) - 1, m):
            out.append(f"gain {value} at u={u} k={k} is no power of two <= 2^min(t+|u|-1, m)")
    return out


def check_gain_table(
    entries: Mapping[Key, int],
    *,
    s: int,
    m: int,
    depth: int,
    t: int,
    gamma_log2: int | None,
    visited: int | None = None,
    theoretical_log2: int | None = None,
    witness: Key | None = None,
) -> list[str]:
    """An ``enumerate_gains`` table: nonzero entries as ``{(u, k): log2}``.

    Checks the visit count (when the output has one) against the direct
    count, the paper's bound ``2**(t + s - 1)``, the forced-zero region
    ``|u| + |k| <= m - t``, and the maximum against the largest entry and,
    when the depth covers the closed form's witness, against the closed form.
    """
    out = []
    want = reference.pair_count(s, m, depth)
    if visited is not None and visited != want:
        out.append(f"visited {visited} (u, k) pairs, direct count is {want}")
    for (u, k), log2 in entries.items():
        if not (u and list(u) == sorted(set(u)) and u[0] >= 1 and u[-1] <= s and len(k) == len(u)
                and all(0 <= kj <= m + 1 for kj in k) and sum(k) <= depth):
            out.append(f"entry u={u} k={k} lies outside the box")
        if not _is_power_log2(log2) or log2 > t + s - 1 or log2 > m:
            out.append(f"gain 2^{log2} at u={u} k={k} breaks the bound 2^(t+s-1) = 2^{t + s - 1}")
        if len(u) + sum(k) <= m - t:
            out.append(f"nonzero gain at u={u} k={k} inside the zero region |u|+|k| <= m-t")
    top = max(entries.values(), default=None)
    if gamma_log2 != top:
        out.append(f"reported maximum 2^{gamma_log2} but the largest entry is 2^{top}")
    if witness is not None and sum(witness[1]) <= depth and gamma_log2 != theoretical_log2:
        out.append(f"maximum 2^{gamma_log2} misses the closed form 2^{theoretical_log2}")
    return out


def table_values(entries: Mapping[Key, int], keys) -> dict[Key, Fraction]:
    """Gain values of ``keys`` in a table of nonzero ``{(u, k): log2}`` entries."""
    return {key: Fraction(1 << entries[key]) if key in entries else Fraction(0) for key in keys}


def check_points(program_digest: str, ref_points: np.ndarray) -> list[str]:
    """Points equal the reference XOR of generator columns, bit for bit."""
    if program_digest != digest(ref_points):
        return [f"points of a {ref_points.shape} net differ from the XOR of generator columns"]
    return []


def check_scrambled(numerators: np.ndarray, bits: int, boxes: Iterable[tuple[Sequence[int], Sequence[int]]]) -> list[str]:
    """A scramble at ``bits`` output digits keeps each coordinate a permutation
    of ``0 .. 2**bits - 1`` and each checked box balanced."""
    out = []
    for j in range(numerators.shape[1]):
        if not reference.is_permutation(numerators[:, j], bits):
            out.append(f"coordinate {j + 1} is no permutation of 0..2^{bits}-1")
    for coords, k in boxes:
        if not reference.balanced(numerators, bits, coords, k):
            out.append(f"box k={tuple(k)} on coordinates {tuple(coords)} is unbalanced")
    return out


def balanced_boxes(values: np.ndarray, bits: int, candidates) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The candidate boxes that the unscrambled net keeps balanced."""
    return [(tuple(c), tuple(k)) for c, k in candidates if reference.balanced(values, bits, c, k)]


def check_estimate(mean: float, std_error: float, target: float) -> list[str]:
    """The RQMC mean lies within :data:`ESTIMATE_Z` standard errors of the integral."""
    if not (std_error > 0 and math.isfinite(mean)):
        return [f"estimate {mean} with standard error {std_error} is degenerate"]
    if abs(mean - target) > ESTIMATE_Z * std_error:
        return [f"estimate {mean} is {abs(mean - target) / std_error:.1f} standard errors from {target}"]
    return []


def check_disjoint(first: Iterable, second: Iterable) -> list[str]:
    """Replicates drawn from two base seeds share no member."""
    shared = set(first) & set(second)
    if shared:
        return [f"{len(shared)} replicate(s) appear under both base seeds"]
    return []
