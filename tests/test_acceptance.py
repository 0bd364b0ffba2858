"""Acceptance gate: one test per criterion, printed as a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The randomized sweep
behind criteria 2-6 is shared (module-scoped) and uses a frozen seed; every
numeric assertion is exact except where a Monte Carlo tolerance is stated.
"""

import json
import time

import pytest

from oracles import microstructure_AK, minimal_counting_t
from netgains.cli import EXIT_OK, main
from netgains.gains import gain_fast, max_gain
from netgains.gf2 import BitMatrix
from netgains.netgen import generate_points, load_generators
from netgains.quality import t_star_u, t_value
from netgains.samples import JOE_KUO_HEAD, shift_net, sobol_net
from netgains.scramble import ScrambleKind, ScrambleSpec, verify_gain_identity
from netgains.suites import (
    _identity_entries,
    net_preservation_suite,
    sweep_records,
)

SWEEP_SEED = 20260810
SWEEP_TRIALS = 1000


def report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    records = sweep_records(SWEEP_TRIALS, max_s=4, max_m=6, min_m=2, seed=SWEEP_SEED)
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_1_shift_net_analysis(data_dir, capsys):
    start = time.perf_counter()
    code = main(["--json", "analyze", "--raw", str(data_dir / "shiftnet.txt")])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    ok = (
        code == EXIT_OK
        and payload["t"] == 1
        and payload["t_star_full"] == 0
        and payload["gamma_log2"] == 3
        and payload["bound_log2"] == 4
        and elapsed < 1.0
    )
    report(
        capsys,
        1,
        ok,
        f"analyze: t={payload['t']} t*={payload['t_star_full']} "
        f"gamma=2^{payload['gamma_log2']} bound=2^{payload['bound_log2']} "
        f"({elapsed:.3f}s)",
    )


def test_criterion_2_power_of_two_oracles(sweep, capsys):
    records, elapsed = sweep
    triples = sum(r.triples for r in records)
    mismatches = sum(r.oracle_mismatches for r in records)
    non_powers = sum(r.non_power_values for r in records)
    ok = (
        len(records) >= 1000
        and mismatches == 0
        and non_powers == 0
        and elapsed < 300.0
    )
    report(
        capsys,
        2,
        ok,
        f"{len(records)} nets / {triples} (u,k) triples, "
        f"{mismatches} oracle mismatches, {non_powers} non-powers ({elapsed:.1f}s)",
    )


def test_criterion_3_rank_bound_chain(sweep, capsys):
    records, _ = sweep
    violations = sum(r.chain_violations for r in records)
    report(capsys, 3, violations == 0, f"{violations} bound-chain violations")


def test_criterion_4_zero_region(sweep, capsys):
    records, _ = sweep
    violations = sum(r.zero_region_violations for r in records)
    report(capsys, 4, violations == 0, f"{violations} nonzero gains inside the balanced region")


def test_criterion_5_t_cross_validation(sweep, capsys):
    records, _ = sweep
    bad = sum(r.t != r.counting_t for r in records)
    report(capsys, 5, bad == 0, f"rank t == counting t on {len(records)} nets ({bad} mismatches)")


def test_criterion_6_maximal_gain_closed_form(sweep, capsys):
    records, _ = sweep
    bad = sum(not (r.attained and r.witness_ok) for r in records)
    report(
        capsys,
        6,
        bad == 0,
        f"full-depth enumeration attains the closed form on {len(records)} nets "
        f"({bad} misses)",
    )


def test_criterion_7_variance_identity(capsys):
    gens = shift_net()
    entries = _identity_entries(gens, 3)
    start = time.perf_counter()
    results = []
    for idx in entries:
        rep = verify_gain_identity(
            gens,
            idx,
            10_000,
            ScrambleSpec(kind=ScrambleKind.RANDOM_LINEAR, seed=SWEEP_SEED),
        )
        results.append(rep)
    elapsed = time.perf_counter() - start
    detail = "; ".join(
        f"u={list(r.index.u)} k={list(r.index.k)}: n*var={r.empirical_n_var:.3f} "
        f"vs 2^{r.expected_gain_log2} (se {r.mc_se:.3f})"
        for r in results
    )
    ok = all(r.passed for r in results) and elapsed < 120.0
    report(capsys, 7, ok, f"{detail} ({elapsed:.1f}s)")


def test_criterion_8_net_preservation(capsys):
    result = net_preservation_suite(seed0=SWEEP_SEED)
    ok = result.passed and result.checked == 600
    report(
        capsys,
        8,
        ok,
        f"{result.checked} scrambles re-verified as nets, {len(result.failures)} failures",
    )


def test_criterion_9_direction_number_path(capsys):
    gens = load_generators(JOE_KUO_HEAD, "direction_numbers", dims=2, m=4)
    pascal = BitMatrix(4, (0b1111, 0b0101, 0b0011, 0b0001))
    rank_t = t_value(gens)
    count_t = minimal_counting_t(generate_points(gens))
    ok = gens.matrices[1] == pascal and rank_t == count_t
    report(
        capsys,
        9,
        ok,
        f"dimension-2 matrix is the binary Pascal matrix; t={rank_t} from ranks "
        f"and t={count_t} from counting",
    )


def test_criterion_10_microstructure(capsys):
    fixtures = [
        ("shift_net", shift_net()),
        ("sobol_2d", sobol_net(2, 4)),
        ("sobol_3d", sobol_net(3, 4)),
    ]
    balanced_ok = True
    deep_ok = True
    deep_checked = []
    for name, gens in fixtures:
        points = generate_points(gens)
        t = t_value(gens)
        m = gens.m
        for depth in range(0, m - t + 1):
            if microstructure_AK(points, depth) != m - depth:
                balanced_ok = False
        if all(t_star_u(gens, (j,)) == 0 for j in range(1, gens.s + 1)):
            deep_checked.append(name)
            for depth in range(m - t + 1, gens.s * m + 1):
                if microstructure_AK(points, depth) > t:
                    deep_ok = False
    ok = balanced_ok and deep_ok and deep_checked
    report(
        capsys,
        10,
        ok,
        f"A_K = m-K on the balanced range of all fixtures; deep A_K <= t on "
        f"{', '.join(deep_checked)}",
    )
