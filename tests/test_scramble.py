"""Randomization: distributional properties, determinism, the variance law."""

import importlib
import math
import warnings

import numpy as np
import pytest

from netgains.gains import gain_fast, max_gain
from netgains.gf2 import BitMatrix
from netgains.netgen import GeneratorSet, SubsetIndex, _match_depth, generate_points
from netgains.quality import verify_net_by_counting
from netgains.scramble import (
    HaarIntegrand,
    ScrambleKind,
    ScrambleSpec,
    estimate,
    replicate_seed,
    scramble,
    verify_gain_identity,
)

ALL_KINDS = list(ScrambleKind)


def ks_statistic(samples: np.ndarray) -> float:
    x = np.sort(samples)
    n = len(x)
    grid = np.arange(1, n + 1) / n
    return max(float((grid - x).max()), float((x - (grid - 1 / n)).max()))


# critical value of the KS statistic at significance 0.001
def ks_critical(n: int) -> float:
    return math.sqrt(math.log(2 / 0.001) / 2) / math.sqrt(n)


# --- determinism ----------------------------------------------------------------

def test_same_seed_same_bits(shift_points):
    for kind in ALL_KINDS:
        spec = ScrambleSpec(kind=kind, seed=123)
        a = scramble(shift_points, spec)
        b = scramble(shift_points, spec)
        assert np.array_equal(a.numerators, b.numerators)
        assert np.array_equal(a.reals, b.reals)


def test_different_seeds_differ(shift_points):
    for kind in ALL_KINDS:
        a = scramble(shift_points, ScrambleSpec(kind=kind, seed=1))
        b = scramble(shift_points, ScrambleSpec(kind=kind, seed=2))
        assert not np.array_equal(a.numerators, b.numerators)


def test_output_bits_validated(shift_points):
    with pytest.raises(ValueError):
        scramble(shift_points, ScrambleSpec(output_bits=3, seed=0))
    with pytest.raises(ValueError):
        scramble(shift_points, ScrambleSpec(output_bits=65, seed=0))


# --- structural properties ---------------------------------------------------------

def test_digital_shift_cancels_in_pairwise_xor(shift_points):
    spec = ScrambleSpec(kind=ScrambleKind.DIGITAL_SHIFT_ONLY, output_bits=4, seed=77)
    scrambled = scramble(shift_points, spec).numerators
    original = shift_points.coords
    for i in (0, 3, 7):
        assert np.array_equal(
            scrambled[i] ^ scrambled, original[i] ^ original
        )


def test_scrambles_preserve_counting(shift, shift_points, sobol2d, sobol2d_points):
    for gens, points in ((shift, shift_points), (sobol2d, sobol2d_points)):
        from netgains.quality import t_value

        t = t_value(gens)
        for kind in ALL_KINDS:
            for seed in range(20):
                scrambled = scramble(points, ScrambleSpec(kind=kind, seed=seed))
                net = scrambled.to_net_points()
                assert np.shares_memory(net.coords, scrambled.numerators)  # frozen, not copied
                assert verify_net_by_counting(net, t)


def test_nested_uniform_mean_near_half(identity_net):
    points = generate_points(identity_net(13))
    spec = ScrambleSpec(kind=ScrambleKind.NESTED_UNIFORM, seed=3)
    x = scramble(points, spec).reals[:, 0]
    se = math.sqrt(1 / 12 / len(x))
    assert abs(x.mean() - 0.5) < 4 * se


def test_marginal_uniformity_ks(identity_net):
    points = generate_points(identity_net(8))
    for kind in ALL_KINDS:
        passes = 0
        for trial in range(100):
            pooled = np.concatenate(
                [
                    scramble(
                        points, ScrambleSpec(kind=kind, output_bits=32, seed=trial * 4 + r)
                    ).reals[:, 0]
                    for r in range(4)
                ]
            )
            passes += ks_statistic(pooled) < ks_critical(len(pooled))
        assert passes >= 99, f"{kind}: only {passes}/100 uniformity trials passed"


def test_scrambles_preserve_pairwise_match_depth(shift_points):
    # common-prefix lengths between points are invariant under all three
    # randomizations; this is the structure that keeps a net a net
    m = shift_points.m

    def depths(points):
        return [_match_depth(col[:, None] ^ col[None, :], m) for col in points.coords.T]

    before = depths(shift_points)
    for kind in ALL_KINDS:
        net = scramble(
            shift_points, ScrambleSpec(kind=kind, output_bits=m, seed=31)
        ).to_net_points()
        for got, want in zip(depths(net), before):
            assert np.array_equal(got, want)


def test_extra_output_bits_refine_cells(shift_points):
    coarse = scramble(shift_points, ScrambleSpec(output_bits=4, seed=9)).numerators
    fine = scramble(shift_points, ScrambleSpec(output_bits=10, seed=9)).numerators
    assert np.array_equal(fine >> np.uint64(6), coarse)


# --- Haar integrand -----------------------------------------------------------------

def test_haar_is_balanced_on_fine_grid():
    f = HaarIntegrand((1, 2), (1, 0), amplitude=2.0)
    # evaluate on all cells two levels past the deepest wave
    grid = np.arange(16, dtype=np.uint64)
    cells = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    values = f.values_from_cells(cells, 4)
    assert set(values) == {2.0, -2.0}
    assert values.sum() == 0.0
    assert (values**2).mean() == 4.0


def test_haar_cells_agree_with_reals():
    f = HaarIntegrand((1,), (2,))
    numerators = np.arange(32, dtype=np.uint64).reshape(-1, 1)
    from_cells = f.values_from_cells(numerators, 5)
    from_reals = f(numerators.astype(np.float64) / 32.0)
    assert np.array_equal(from_cells, from_reals)


def test_haar_on_reals_refuses_waves_past_a_float():
    rng = np.random.default_rng(8)
    numerators = rng.integers(0, 1 << 53, size=(1000, 2), dtype=np.uint64)
    x = numerators.astype(np.float64) / float(1 << 53)  # exact: 53-bit dyadic points
    f = HaarIntegrand((1, 2), (3, 52))
    assert np.array_equal(f(x), f.values_from_cells(numerators, 53))
    assert set(f(x)) == {1.0, -1.0}
    with pytest.raises(ValueError, match=r"k=\(3, 53\)"):
        HaarIntegrand((1, 2), (3, 53))(x)


def test_haar_needs_enough_digits():
    f = HaarIntegrand((1,), (4,))
    with pytest.raises(ValueError):
        f.values_from_cells(np.zeros((4, 1), dtype=np.uint64), 4)


# --- estimate ------------------------------------------------------------------------

def test_distinct_base_seeds_give_disjoint_replicate_means(shift_points):
    # seeds 1 and 2 with 8 replicates once scrambled the same 8 replicates
    means = {}
    for seed in (0, 1, 2, 3):
        est = estimate(shift_points, ScrambleSpec(seed=seed), lambda x: np.prod(x, axis=1), 8)
        means[seed] = set(est.per_replicate_means)
        assert len(means[seed]) == 8
    for a in means:
        for b in means:
            if a < b:
                assert means[a].isdisjoint(means[b])


def test_constant_integrand_has_zero_variance(shift_points):
    est = estimate(shift_points, ScrambleSpec(seed=11), lambda x: np.full(len(x), 2.5), 8)
    assert est.mean == 2.5
    assert est.variance_of_mean == 0.0
    assert est.replicates == 8 and len(est.per_replicate_means) == 8


def test_shallow_haar_integrates_exactly(shift, shift_points):
    # |u| + |k| <= m - t: every replicate integrates the wave without error
    f = HaarIntegrand((1, 2), (1, 0))
    for kind in ALL_KINDS:
        est = estimate(shift_points, ScrambleSpec(kind=kind, seed=5), f, 16)
        assert est.per_replicate_means == (0.0,) * 16


def test_product_integrand_beats_mc(sobol2d):
    from netgains.samples import sobol_net

    gens = sobol_net(2, 10)
    points = generate_points(gens)
    est = estimate(
        points,
        ScrambleSpec(kind=ScrambleKind.NESTED_UNIFORM, seed=19),
        lambda x: x.prod(axis=1),
        32,
    )
    # var(x1 x2) = 1/9 - 1/16 by direct integration
    sigma2 = 1 / 9 - 1 / 16
    mc_variance = sigma2 / (points.n * 32)
    assert est.variance_of_mean < mc_variance
    assert abs(est.mean - 0.25) < 1e-3


def test_haar_estimates_are_unbiased(shift, shift_points):
    _, witness = max_gain(shift)
    f = HaarIntegrand(witness.u, witness.k)
    est = estimate(
        shift_points, ScrambleSpec(kind=ScrambleKind.NESTED_UNIFORM, seed=29), f, 10_000
    )
    assert abs(est.mean) < 4 * est.std_error


def test_estimate_needs_two_replicates(shift_points):
    with pytest.raises(ValueError):
        estimate(shift_points, ScrambleSpec(seed=0), lambda x: x[:, 0], 1)


def test_haar_beyond_the_dimension_refused_before_scrambling(shift, sobol2d_points, monkeypatch):
    module = importlib.import_module("netgains.scramble")

    def no_scramble(points, kind, d, seeds):
        raise AssertionError("scrambled before the dimension check")

    monkeypatch.setattr(module, "_scramble_chunks", no_scramble)
    with pytest.raises(ValueError, match=r"u=\(3,\).*s=2"):
        estimate(sobol2d_points, ScrambleSpec(seed=0), HaarIntegrand((3,), (1,)), 2)
    with pytest.raises(ValueError, match=r"\(1, 5\).*s=4"):
        verify_gain_identity(shift, SubsetIndex((1, 5), (0, 0)), 2, ScrambleSpec(seed=0))
    with pytest.raises(ValueError, match=r"k=\(0, 64\)"):
        estimate(sobol2d_points, ScrambleSpec(seed=0), HaarIntegrand((1, 2), (0, 64)), 2)
    with pytest.raises(ValueError, match=r"k=\(70,\)"):
        verify_gain_identity(shift, SubsetIndex((1,), (70,)), 2, ScrambleSpec(seed=0))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_deep_haar_is_read_from_cells(shift_points, kind):
    # past 53 digits the reals cannot tell the halves of a depth-k cell apart
    for k in (62, 63):
        f = HaarIntegrand((2,), (k,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate(shift_points, ScrambleSpec(kind=kind, seed=3), f, 8)
        want = [
            f.values_from_cells(
                scramble(shift_points, ScrambleSpec(kind, k + 1, replicate_seed(3, r))).numerators, k + 1
            ).mean()
            for r in range(8)
        ]
        assert est.per_replicate_means == tuple(want)
        assert est.std_error > 0.0


def test_non_finite_integrand_reported(shift_points):
    def bad(x):
        out = np.ones(len(x))
        out[3] = np.nan
        return out

    with pytest.raises(ValueError, match="point 3"):
        estimate(shift_points, ScrambleSpec(seed=0), bad, 2)


def test_non_finite_integrand_names_its_replicate(shift_points, monkeypatch):
    # two replicates per chunk, so replicate 3 is the second of the second chunk
    monkeypatch.setattr(importlib.import_module("netgains.scramble"), "_CHUNK_VALUES", 2 * 16 * 4)
    spec = ScrambleSpec(ScrambleKind.RANDOM_LINEAR, seed=4)
    target = scramble(shift_points, ScrambleSpec(spec.kind, seed=replicate_seed(4, 3))).reals[5]

    def bad(x):
        return np.where((x == target).all(axis=1), np.inf, 0.0)

    with pytest.raises(ValueError, match="point 5 of replicate 3"):
        estimate(shift_points, spec, bad, 6)


# --- the variance identity ------------------------------------------------------------

def test_identity_at_shift_witness(shift):
    _, witness = max_gain(shift)
    report = verify_gain_identity(
        shift, witness, 2000, ScrambleSpec(kind=ScrambleKind.RANDOM_LINEAR, seed=101)
    )
    assert report.expected_gain_log2 == 3
    assert report.passed
    assert abs(report.empirical_n_var - 8) <= 3 * report.mc_se


def test_identity_zero_gain_is_exact(shift):
    idx = SubsetIndex((1,), (0,))
    assert gain_fast(shift, idx).is_zero
    report = verify_gain_identity(
        shift, idx, 64, ScrambleSpec(kind=ScrambleKind.RANDOM_LINEAR, seed=7)
    )
    assert report.empirical_n_var == 0.0
    assert report.mc_se == 0.0
    assert report.passed


def test_identity_one_past_precision(identity_net):
    gens = identity_net(4)
    idx = SubsetIndex((1,), (4,))
    report = verify_gain_identity(
        gens, idx, 4000, ScrambleSpec(kind=ScrambleKind.RANDOM_LINEAR, seed=13)
    )
    assert report.expected_gain_log2 == 0
    assert report.passed


def test_identity_holds_at_every_nonzero_entry(shift):
    """Each nonzero gain within the precision range matches its variance.

    Depths past m only repeat these cases (gains are stationary there, see
    the stationarity test), so |k| <= m with per-coordinate depths <= m is
    the full set of distinct checks.  155 simultaneous statistical tests
    need a wide gate, hence 5 standard errors; a random-linear miss falls
    back to the nested-uniform diagnostic before counting as a failure.
    """
    from netgains.gains import enumerate_gains

    entries = enumerate_gains(shift, max_depth=shift.m).entries
    assert len(entries) == 155
    for idx, value in entries:
        report = verify_gain_identity(
            shift,
            idx,
            300,
            ScrambleSpec(kind=ScrambleKind.RANDOM_LINEAR, seed=57),
            tolerance_se=5.0,
        )
        ok = report.passed or (report.diagnostic is not None and report.diagnostic.passed)
        assert ok, f"{idx}: n*var={report.empirical_n_var} vs 2^{value.log2}"


def test_identity_diagnostic_reruns_nested(shift, monkeypatch):
    # force a failure to confirm the nested-uniform diagnostic is attached
    _, witness = max_gain(shift)
    report = verify_gain_identity(
        shift,
        witness,
        200,
        ScrambleSpec(kind=ScrambleKind.RANDOM_LINEAR, seed=3),
        tolerance_se=0.0,
    )
    if not report.passed:  # tolerance 0 fails unless the draw is exact
        assert report.diagnostic is not None
        assert report.diagnostic.kind is ScrambleKind.NESTED_UNIFORM
        payload = report.to_json_dict()
        assert payload["diagnostic"]["kind"] == "nested_uniform"
    assert {"expected_gain_log2", "empirical_n_var", "mc_se", "pass"} <= set(
        report.to_json_dict()
    )


# --- the batched engine against the from-scratch scramble ------------------------------

def test_engine_matches_the_sequential_scramble():
    import random

    import scramble_reference as ref
    from netgains.suites import random_generator_set

    rng = random.Random(61)
    for _ in range(12):
        gens = random_generator_set(rng, rng.randint(1, 3), rng.randint(1, 6))
        points = generate_points(gens)
        for kind in ALL_KINDS:
            d = rng.choice([gens.m, rng.randint(gens.m, 64), 64])
            seed = rng.getrandbits(64)
            got = scramble(points, ScrambleSpec(kind, d, seed))
            numerators, reals = ref.scramble_rows(points.coords.tolist(), gens.m, d, kind.value, seed)
            assert got.numerators.tolist() == numerators
            assert got.reals.tolist() == reals
            # and replicate r of an estimate is that scramble under replicate_seed(seed, r)
            est = estimate(points, ScrambleSpec(kind, d, seed), lambda x: x.sum(axis=1), 3)
            for r, mean in enumerate(est.per_replicate_means):
                _, reals = ref.scramble_rows(points.coords.tolist(), gens.m, d, kind.value, ref.replicate_seed(seed, r))
                assert mean == np.asarray(reals).sum(axis=1).mean()


def singular_net(rng, s: int, m: int) -> GeneratorSet:
    """A random net whose first matrix repeats a row, so coordinate 1 repeats numerators."""
    from netgains.suites import random_generator_set

    gens = random_generator_set(rng, s, m)
    rows = list(gens.matrices[0].rows)
    rows[-1] = rows[0]
    return GeneratorSet((BitMatrix(m, tuple(rows)),) + gens.matrices[1:])


@pytest.mark.parametrize("m", range(8, 13))
def test_nested_tree_table_matches_the_sequential_scramble(m, monkeypatch):
    import random

    import scramble_reference as ref

    mod = importlib.import_module("netgains.scramble")
    rng = random.Random(m)
    gens = singular_net(rng, 2, m)
    points = generate_points(gens)
    _, first, inverse = np.unique(points.coords[:, 0], return_index=True, return_inverse=True)
    assert len(first) < points.n
    seeds = np.array([rng.getrandbits(64) for _ in range(8)], dtype=np.uint64)
    rows = rng.sample(range(points.n), 12)
    for d in (m, m + 1, 64):
        want = [
            [[ref.scramble_value(int(points.coords[i, j - 1]), m, d, "nested_uniform",
                                 ref.derive(int(seed), ref.TAGS["nested_uniform"], j))
              for j in (1, 2)] for i in rows]
            for seed in seeds
        ]
        for per_chunk in (1, 3, 7):
            monkeypatch.setattr(mod, "_CHUNK_VALUES", per_chunk * points.n * points.s)
            got = list(mod._scrambles(points, ScrambleSpec(ScrambleKind.NESTED_UNIFORM, d), seeds))
            assert [sp.numerators[rows].tolist() for sp in got] == want
            # a numerator maps to one scrambled value, wherever it repeats
            for sp in got:
                col = sp.numerators[:, 0]
                assert np.array_equal(col, col[first][inverse])


def test_nested_hashes_each_tree_node_once(monkeypatch):
    mod = importlib.import_module("netgains.scramble")
    mix = mod._mix_np
    hashed = []

    def counting_mix(x):
        hashed.append(np.size(x))
        return mix(x)

    monkeypatch.setattr(mod, "_mix_np", counting_mix)
    m, s = 12, 2
    points = generate_points(GeneratorSet((BitMatrix.identity(m),) * s))
    for extra in (0, 5):
        hashed.clear()
        scramble(points, ScrambleSpec(ScrambleKind.NESTED_UNIFORM, m + extra, 7))
        # 2^m - 1 tree nodes per coordinate and 2^m values per digit past m, plus the keys;
        # hashing every point at every digit would be (m + extra) * 2^m per coordinate
        assert sum(hashed) <= s * ((2 + extra) << m)
