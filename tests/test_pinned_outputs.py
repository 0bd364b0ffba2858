"""Scramble, estimate, ``scramble --reps`` and ``gains`` outputs pinned to sha256 digests.

Every scramble kind, the output-bit counts ``m``, ``m + 7`` and 64, single
scrambles and replicate estimates are hashed here, so a change to the
scramble engine that moves one bit of one output fails.  The Haar
integrands stay within the output bits, where estimates read cells.  Gain
tables are hashed at shallow, middle and whole-box depths, whole and cut
by ``--max-visits``, so a change to the enumeration that moves one entry,
its order or a count fails; ``enumerate_gains`` reports are also hashed as
JSON over random, Sobol' and sparse nets with ``s`` 1-6 and ``m`` 1-10 at
depths 0-4, whole, cut by ``max_visits`` and emptied by ``max_visits=0``.  The records of a 300-net acceptance sweep are
hashed as JSON, so a change to ``evaluate_net`` that moves one count fails,
and so are the five sweep suites of a clean sweep and of one whose ``t`` is
one too small, so a change that moves one verdict, count or failure note
fails.  ``analyze --json``, with and without ``--full``, and ``gain_bounds``
at the ``max_gain`` witness are hashed on the shift net, the Joe-Kuo head and
random nets, some with dependent first rows and some with ``s > m + 1``;
``analyze --full`` also on the first one to seven Joe-Kuo dimensions at
``m`` = 8, 12, 16 and 20 and on random nets of eight to twelve coordinates,
and ``analyze`` alone at ``m`` = 24 and 28, so a change to the ``t`` and
``t*`` searches that moves one value or one witness fails.
``first_rank_deficient_k`` is hashed over every subset of nets with up to
six coordinates.
The nullspace route's ``gain_representation`` is hashed over every ``(u, k)``
with depths up to ``m + 2`` on the shift net and small random nets, some
with a zero row or a repeated matrix, and ``--json scramble --reps 3`` of
every kind on the Joe-Kuo head at ``m`` and 64 output bits.  ``--json gen``
is hashed on seven Joe-Kuo dimensions at ``m`` = 4, 12 and 16, and ``gen`` as
CSV and binary at ``m`` = 16, as is ``scramble --reps 2`` of every kind at
``m`` = 16 with ``m`` and 64 output bits, so each writer is pinned over
several of the blocks it writes at a time.
"""

import hashlib
import importlib
import itertools
import json
import random
from dataclasses import asdict

import numpy as np
import pytest

from netgains.cli import EXIT_OK, main
from oracles import gain_bounds
from netgains.gains import enumerate_gains, gain_representation, max_gain
from netgains.gf2 import BitMatrix
from netgains.netgen import DIRECTION_NUMBERS, GeneratorSet, SubsetIndex, _subsets, generate_points, load_generators
from netgains.quality import first_rank_deficient_k
from netgains.samples import shift_net, sobol_net
from netgains.scramble import HaarIntegrand, ScrambleKind, ScrambleSpec, estimate, scramble
from netgains import suites
from netgains.suites import SWEEP_SUITES, random_generator_set, suites_from_records, sweep_records

NETS = {"shift": shift_net, "sobol_4_8": lambda: sobol_net(4, 8)}
SEEDS = (0, 5, 2**63 + 12345)

SCRAMBLE_DIGESTS = {
    ("shift", "random_linear"): "5740712a0b88f39bfd1e661fd2a736b325942c6f015f5716cba9b42e014f2019",
    ("shift", "nested_uniform"): "8651ae20a7531089b3574a23c3f903f6c9e385d4eb6ae3588b220b055e7681ac",
    ("shift", "digital_shift"): "06627d44f91224938f6947f7a8e71be91824aab1f71fa2cec1cc38f621432af4",
    ("sobol_4_8", "random_linear"): "219f1ed69dfd6d81e73b4054f0876ff0102317affe739f89c11cfaa00e0bf0ed",
    ("sobol_4_8", "nested_uniform"): "117e28e8dcafae8132af69ea45ef6ea70c7be2be4310e53ef160f14aeda8e469",
    ("sobol_4_8", "digital_shift"): "8e66299455b85adb1f5f6e9b2332ee86c3d78b351fb4469c8067b5aab1f03723",
}

INTEGRANDS = {
    "haar": {"shift": HaarIntegrand((1, 2, 4), (0, 0, 1)), "sobol_4_8": HaarIntegrand((1, 2, 3, 4), (0, 0, 0, 3))},
    "prod": {"shift": lambda x: x.prod(axis=1), "sobol_4_8": lambda x: x.prod(axis=1)},
}

ESTIMATE_DIGESTS = {
    ("shift", "haar", "random_linear"): "49cef7c69dc9f29d1f74195dd9783192e79cc27a42696be2f8892298e60cfe83",
    ("shift", "haar", "nested_uniform"): "71b954bf57844aacf221fa4a95cb8ddb7420eedf9dd8674d8b974e2ee3b4fd12",
    ("shift", "haar", "digital_shift"): "e6465b63db68212f983fe03546b34c5fc623dc77680f4441dab4b4329d6e3472",
    ("shift", "prod", "random_linear"): "d4a2fc27dcdeeb491e9f10e9b3ad49ada6f716b405145185043f4d8492422fbe",
    ("shift", "prod", "nested_uniform"): "85d87923fdb2ebeb053e421ff50aa10ab69b65ee15ce399b8eb1f5b46d19e221",
    ("shift", "prod", "digital_shift"): "e8f139d43b54f6b5233363104d6f45521bd835729c9441898eaeaa76b1d33e01",
    ("sobol_4_8", "haar", "random_linear"): "e9d2d4a9a9d16dcb774d41041919f93acc5a426d1fa6e0535f0bd8b45a7b9e10",
    ("sobol_4_8", "haar", "nested_uniform"): "76a6400cbbd1ad45651019113626a01cc741f0f845d172ba0939af062448a58e",
    ("sobol_4_8", "haar", "digital_shift"): "5d89f056865052bcb89c910d2d62872e029fb273c3db03f8968a52a41593c1b5",
    ("sobol_4_8", "prod", "random_linear"): "48de916569bf63bd7908cc7dff44ac9db2ec1497a0a86abb0778aef875f1355e",
    ("sobol_4_8", "prod", "nested_uniform"): "53cff2677612401056f8d5c338478fc77879dbb06c8cdddba8d5303200579a74",
    ("sobol_4_8", "prod", "digital_shift"): "cf2a68f4c87afffc5f62ce512371da4e64bfba937d39dafd8241c22f04287fa5",
}

CLI_DIGESTS = {
    "csv": "78c487eaf525d421d5f7a27dde89fbf4ff97c5915d47e06155c14fc9f52fb4e0",
    "bin": "e9a0c2d1d536511f0b5d5dae87c69591c5afe75ce5beea7e4b7205c301021f79",
    "json": "afc8e9fd97da8d8c924e6f67b0b0c8b56da4a247f96c91bfe05b22c625b2347b",
}

GAINS_DIGESTS = {
    ("shift", "json"): "0283607e3892684658b0672cf23d5ba409f2e21b1cf9f6b1515916d688763f7c",
    ("shift", "csv"): "be8f3235cb94d2a957a9247a483a8969c45ff2ace531fbef560fb26342d283bc",
    ("sobol_5_8", "json"): "7c93f344e22d05b3d65c99fc1b41dcb8adf28e4c70920839ce80e964c26b8bf8",
    ("sobol_5_8", "csv"): "f8bcfa21f32666078179c815bbb85e350ef1f2150ee4bbdbbf68cacf82596685",
}

GAIN_TABLES_DIGEST = "f705a89917a7dbb85e331c44eb07cec59ae440043649e27f0cd4923009cdb595"

SWEEP_DIGEST = "e50ed5455a707f756fa5850095c81d9c125118310a0f33a5491e459147be90a6"

# t_value lowered by 0 and by 1: the second breaches bound-chain, zero-region and t-crossval
SUITES_DIGESTS = {
    0: "e2909763eadd9c6e57b8deb664acea2ba15052c7192f533a7cf62358971cc7e0",
    1: "fb045fe8bd3fe8e6055c66a79c2b94b6f7f6d79d81e6ad308aaab3a86a937cde",
}


def _random_nets() -> list[GeneratorSet]:
    rng = random.Random(20261018)
    shapes = ((1, 1), (1, 5), (2, 3), (2, 6), (3, 2), (3, 5), (3, 6), (4, 4), (4, 7), (5, 3), (5, 6), (6, 5),
              (7, 2), (9, 4), (18, 2), (22, 3))
    nets = [random_generator_set(rng, s, m) for s, m in shapes]
    # dependent first rows with s <= m: a repeated matrix, three rows that sum to
    # zero, and a zero first row
    a, b, c, d = (BitMatrix(4, (first,) + mat.rows[1:]) for first, mat in
                  zip((0b1010, 0b0110, 0b1100, 0), random_generator_set(rng, 4, 4).matrices))
    return nets + [GeneratorSet((a, b, a)), GeneratorSet((a, b, c)), GeneratorSet((d, a))]


def _sparse_net(rng: random.Random, s: int, m: int) -> GeneratorSet:
    """Random matrices whose rows are each the AND of three random ones."""
    return GeneratorSet(tuple(
        BitMatrix(m, tuple(rng.randrange(1 << m) & rng.randrange(1 << m) & rng.randrange(1 << m) for _ in range(m)))
        for _ in range(s)
    ))


def _wide_random_nets() -> list[GeneratorSet]:
    rng = random.Random(20261021)
    nets = [random_generator_set(rng, s, m) for s, m in ((8, 8), (9, 3), (10, 6), (11, 7), (12, 8))]
    # sparse rows, where the least deficient stacks lie deeper
    nets += [_sparse_net(rng, s, m) for s, m in ((8, 6), (10, 8))]
    # the first row of coordinate 3 is the XOR of those of 1 and 2
    a, b, c, *rest = random_generator_set(rng, 10, 8).matrices
    c = BitMatrix(8, (a.rows[0] ^ b.rows[0],) + c.rows[1:])
    return nets + [GeneratorSet((a, b, c, *rest))]


def _joe_kuo(m: int):
    return lambda: [sobol_net(dims, m) for dims in range(1, 8)]


# the nets of each group; the Joe-Kuo head is read by the CLI from its table, the rest as raw text
PINNED_NETS = {
    "shift": lambda: [shift_net()],
    **{f"joe_kuo_m{m}": _joe_kuo(m) for m in (6, 8, 10, 12, 16, 20, 24, 28)},
    "random": _random_nets,
    "random_wide": _wide_random_nets,
}

ANALYZE_DIGESTS = {
    ("shift", False): "ab4ffcda7b243b1a0c89ee0ba345497f9b1ef2ddf46438ed7a1b9254f0ce576c",
    ("shift", True): "982a751257aac3ffda6ee5d449da1d3bebd4619871cfae120ef5f3fb33c8bb74",
    ("joe_kuo_m6", False): "c9b6d21ed8f5dc13356a5f31f3c7267366aec4e707901b76ed2ffb9b5e8debca",
    ("joe_kuo_m6", True): "f65a06f5de8df9f4f9f7efaeeba82b5f1c9b865f248fa04921c8ab9d956d5dd3",
    ("joe_kuo_m10", False): "ed18cb9a82b7a73225af74e7fe08831ae204efa938ce8ebbfe0fde286843bf5e",
    ("joe_kuo_m10", True): "cf407c653b0fd8000691e368ce87fec19f81ab42189f9fa37fbf9a3001799048",
    ("random", False): "b4fee064910c81a99ee7cf32b5edc268a4a7ff31eb964423adb48f770e747e36",
    ("random", True): "a7190b2caa2cdd44c4f4ca031773055989eedc32bc9068345375396c5aff970f",
    ("joe_kuo_m8", True): "a6b3443ab2475d72bfbdb9c79c0fde8caf48632bdf7b569f746fc96ee3d6d4b4",
    ("joe_kuo_m12", True): "f2fa84ffe0ebff8401b37f7fd731b2ae6aa63b1d4862beff0887d0c68d89803e",
    ("joe_kuo_m16", True): "fada0462b2a75fcbc953c10792b1bfd4020fec7ef1657c7a1634954bf21a1777",
    ("joe_kuo_m20", True): "1a5b9a7049e22c9c95aa0052214d6a56f686a391d50e5b11d19961467d026ac8",
    ("joe_kuo_m24", False): "20df092e21508ada370f9bef8b3be55a85b91c7db8f86c711ff4db1ccff2b2f8",
    ("joe_kuo_m28", False): "0984476894084c9f1cd6b74af42339469fbe556921cdd7e251d2ec3aa3afc69c",
    ("random_wide", False): "559dcb590332eb7a106fb8223777a2c997a0c416065665239637099380f4d478",
    ("random_wide", True): "826183d3c5aeec3003f5e6ef0d01be3300e50d8dc5c5a0547c49031b3d51f369",
}

FIRST_DEFICIENT_DIGEST = "0766602fec2aee8a4895da370d7e5a0d853952f1c31d37d5f910a3cb6f7eda88"

BOUNDS_DIGESTS = {
    "shift": "80cc8b69862f980e266eb9f2ec49384f69dcbd7a859521c7be3f303f1d733562",
    "joe_kuo_m6": "315806891b9a2c074c0c706dc2a8c16e5b04c5acf9646af8d795eda2ed6d50ce",
    "joe_kuo_m10": "62e39151de872f0ce1748bbe704aeebed3c962fcfd08c46e7f4c73b85d78fc73",
    "random": "b2c5e7da7eeb2dd659b8ef737eee97579638846a98324fc4ec951c9fc966ee25",
}

REPRESENTATION_DIGEST = "30c24ba5dc1fd3b1e824b008de5ee14514db1587bff663c13b227f5c588af6f0"

JSON_SCRAMBLE_DIGESTS = {
    "rls": "6a55ddf1761d8889b77e30a472006b9a6bd3515157a5a2f6f3b79dd3ee1a0541",
    "nested": "f424e74b552783413c8471bb027324c0b72201df01d8cc545563fec8c11c9182",
    "shift": "b0167e618a5cf874d6c0f635036f7a9f3a3f469b09440c8cc674a7626871453b",
}

# --json scramble at m = 16: 2^16 rows, four of the blocks written at a time per replicate
JSON_SCRAMBLE_BLOCK_DIGESTS = {
    "rls": "9d29f65ac751c3ffbcdd512cc04cda8ec111c5de5360bdcfc7280f028d108a65",
    "nested": "aebf139526b70fe12797b4bde803ef50802757ee20665a1f17d6980679670919",
    "shift": "3d5a036f3f41860937de8249961253c42c0ce2c0a67ba32d7dbc19ce6da91d7c",
}

JSON_GEN_DIGEST = "62617abb7a8b28014b90c366c3cb0e0ba813e1cc29ac0f1886c5f58f609578ad"

# gen and scramble as csv and bin at m = 16: 2^16 rows, four of the blocks written at a time
BLOCK_GEN_DIGESTS = {
    "csv": "35e08d838f8c53fcfc967f1acbc452ed5f146c54e1f3fee227bd69f1393efb50",
    "bin": "7ff9199d15df90c8534e9021b797c545bdc3c9120174629b95d746b7aa956247",
}

BLOCK_SCRAMBLE_DIGESTS = {
    ("rls", "csv"): "e8957050fde8df1004d8122577ab412a3affc06b4ef575d39d837f83d220cec5",
    ("rls", "bin"): "ae1fb3f3f1c7ff57cfaae5883908e9370ef9439032daa68e1002a0523fef50fe",
    ("nested", "csv"): "1ac615d3e04af0fa105d6d08ae599918db65d5399e9c9e3435d91f76ae2560ad",
    ("nested", "bin"): "a09188ebf05afb9ac9daade0a27e2cbcab031e4f75d88ddd8d240443b0c823bb",
    ("shift", "csv"): "fb89b5109c1cba0f8580513f3f3f6c013c9b9ad927c6be9d7d4373a27022db04",
    ("shift", "bin"): "d966990cfac7ca405c977d52a62ed2d023dcc6bf0dd9d45561b5c89b3fcb6972",
}


def _representation_nets() -> list[GeneratorSet]:
    rng = random.Random(20261019)
    nets = [shift_net()] + [random_generator_set(rng, s, m) for s, m in
                            ((1, 1), (1, 4), (1, 6), (2, 1), (2, 2), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4),
                             (4, 2), (4, 3), (5, 2))]
    # a zero row, a zero matrix, and a repeated matrix
    for m in (3, 4):
        a, b = random_generator_set(rng, 2, m).matrices
        holed = BitMatrix(m, a.rows[:1] + (0,) + a.rows[2:])
        zero = BitMatrix(m, (0,) * m)
        nets += [GeneratorSet((holed, b)), GeneratorSet((zero, a)), GeneratorSet((a, b, a))]
    return nets


def test_gain_representation_is_pinned():
    # every (u, k) with depths in [0, m + 2], one past the box, where depths are clamped
    h = hashlib.sha256()
    for gens in _representation_nets():
        for u in _subsets(gens.s):
            values = [gain_representation(gens, SubsetIndex(u, k))
                      for k in itertools.product(range(gens.m + 3), repeat=len(u))]
            h.update(json.dumps([list(u), values]).encode())
    assert h.hexdigest() == REPRESENTATION_DIGEST


@pytest.mark.parametrize("kind", list(JSON_SCRAMBLE_DIGESTS))
def test_cli_json_scramble_replicates_are_pinned(data_dir, tmp_path, kind):
    h = hashlib.sha256()
    for bits in ([], ["--output-bits", "64"]):
        out = tmp_path / "reps.json"
        args = ["--json", "--seed", "3", "--out", str(out), "scramble", "--dirnum", str(data_dir / "joe-kuo-head.txt"),
                "--dims", "4", "--m", "8", "--kind", kind, "--reps", "3", *bits]
        assert main(args) == EXIT_OK
        h.update(out.read_bytes())
    assert h.hexdigest() == JSON_SCRAMBLE_DIGESTS[kind]


@pytest.mark.parametrize("kind", list(JSON_SCRAMBLE_BLOCK_DIGESTS))
def test_cli_json_scramble_blocks_are_pinned(data_dir, tmp_path, kind):
    h = hashlib.sha256()
    for bits in ([], ["--output-bits", "64"]):
        out = tmp_path / "reps.json"
        args = ["--json", "--seed", "5", "--out", str(out), "scramble", "--dirnum", str(data_dir / "joe-kuo-head.txt"),
                "--dims", "4", "--m", "16", "--kind", kind, "--reps", "2", *bits]
        assert main(args) == EXIT_OK
        h.update(out.read_bytes())
    assert h.hexdigest() == JSON_SCRAMBLE_BLOCK_DIGESTS[kind]


def test_cli_json_gen_is_pinned(data_dir, tmp_path):
    # 2^16 rows at m = 16 span several of the blocks that --json gen writes at a time
    h = hashlib.sha256()
    for m in ("4", "12", "16"):
        out = tmp_path / f"gen-{m}.json"
        args = ["--json", "--out", str(out), "gen", "--dirnum", str(data_dir / "joe-kuo-head.txt"), "--dims", "7",
                "--m", m]
        assert main(args) == EXIT_OK
        h.update(out.read_bytes())
    assert h.hexdigest() == JSON_GEN_DIGEST


@pytest.mark.parametrize("fmt", list(BLOCK_GEN_DIGESTS))
def test_cli_gen_blocks_are_pinned(data_dir, tmp_path, fmt):
    out = tmp_path / f"gen.{fmt}"
    args = ["--out", str(out), "gen", "--dirnum", str(data_dir / "joe-kuo-head.txt"), "--dims", "7", "--m", "16",
            "--format", fmt]
    assert main(args) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BLOCK_GEN_DIGESTS[fmt]


@pytest.mark.parametrize("kind, fmt", list(BLOCK_SCRAMBLE_DIGESTS))
def test_cli_scramble_blocks_are_pinned(data_dir, tmp_path, kind, fmt):
    h = hashlib.sha256()
    for bits in ([], ["--output-bits", "64"]):
        out = tmp_path / f"reps.{fmt}"
        args = ["--seed", "5", "--out", str(out), "scramble", "--dirnum", str(data_dir / "joe-kuo-head.txt"),
                "--dims", "4", "--m", "16", "--kind", kind, "--reps", "2", "--format", fmt, *bits]
        assert main(args) == EXIT_OK
        h.update(out.read_bytes())
    assert h.hexdigest() == BLOCK_SCRAMBLE_DIGESTS[kind, fmt]


@pytest.fixture(scope="module")
def net_points():
    return {name: generate_points(make()) for name, make in NETS.items()}


@pytest.mark.parametrize("net, kind", list(SCRAMBLE_DIGESTS))
def test_scramble_outputs_are_pinned(net_points, net, kind):
    points = net_points[net]
    h = hashlib.sha256()
    for bits in (points.m, points.m + 7, 64):
        for seed in SEEDS:
            out = scramble(points, ScrambleSpec(kind=ScrambleKind(kind), output_bits=bits, seed=seed))
            h.update(out.numerators.tobytes())
            h.update(out.reals.tobytes())
    assert h.hexdigest() == SCRAMBLE_DIGESTS[net, kind]


@pytest.mark.parametrize("net, integrand, kind", list(ESTIMATE_DIGESTS))
def test_estimate_means_are_pinned(net_points, net, integrand, kind):
    est = estimate(
        net_points[net], ScrambleSpec(kind=ScrambleKind(kind), seed=7), INTEGRANDS[integrand][net], 24
    )
    means = np.array(est.per_replicate_means)
    digest = hashlib.sha256(means.tobytes()).hexdigest()
    assert digest == ESTIMATE_DIGESTS[net, integrand, kind]


@pytest.mark.parametrize("fmt", list(CLI_DIGESTS))
def test_cli_scramble_replicates_are_pinned(data_dir, tmp_path, fmt, capsys):
    h = hashlib.sha256()
    for kind in ("rls", "nested", "shift"):
        for bits in ("4", "11"):
            out = tmp_path / f"{kind}-{bits}.{fmt}"
            args = ["--seed", "11", "--out", str(out), "scramble", "--raw", str(data_dir / "shiftnet.txt"),
                    "--kind", kind, "--reps", "3", "--output-bits", bits]
            args += ["--json"] if fmt == "json" else ["--format", fmt]
            assert main(args) == EXIT_OK
            h.update(out.read_bytes())
    assert h.hexdigest() == CLI_DIGESTS[fmt]


@pytest.mark.parametrize("net, fmt", list(GAINS_DIGESTS))
def test_cli_gain_tables_are_pinned(data_dir, tmp_path, net, fmt):
    if net == "shift":
        source = ["--raw", str(data_dir / "shiftnet.txt")]
        gens = shift_net()
    else:
        source = ["--dirnum", str(data_dir / "joe-kuo-head.txt"), "--dims", "5", "--m", "8"]
        gens = sobol_net(5, 8)
        with open(data_dir / "joe-kuo-head.txt") as fh:
            assert load_generators(fh, DIRECTION_NUMBERS, dims=5, m=8) == gens
    s, m = gens.s, gens.m
    h = hashlib.sha256()
    for depth in (3, 6, s * (m + 1)):
        # visits to the singletons plus half of those to the first pair
        per_size = [sum(sum(k) <= depth for k in itertools.product(range(m + 2), repeat=r))
                    for r in (1, 2)]
        cut = s * per_size[0] + per_size[1] // 2
        for max_visits in (0, 1, cut, None):
            out = tmp_path / f"gains-{depth}-{max_visits}.{fmt}"
            args = ["--out", str(out), "gains", *source, "--depth", str(depth)]
            args += ["--json"] if fmt == "json" else ["--format", "csv"]
            args += [] if max_visits is None else ["--max-visits", str(max_visits)]
            assert main(args) == EXIT_OK
            h.update(out.read_bytes())
    assert h.hexdigest() == GAINS_DIGESTS[net, fmt]


def test_gain_tables_are_pinned():
    rng = random.Random(20261023)
    h = hashlib.sha256()
    for s in range(1, 7):
        for m in range(1, 11):
            sparse = _sparse_net(rng, s, m)
            for gens in (random_generator_set(rng, s, m), sobol_net(s, m), sparse):
                for depth in range(5):
                    for max_visits in (None, 0, 3, 17, rng.randrange(200)):
                        report = enumerate_gains(gens, depth, max_visits=max_visits)
                        h.update(json.dumps(report.to_json_dict()).encode())
    assert h.hexdigest() == GAIN_TABLES_DIGEST


def test_outputs_do_not_depend_on_the_chunk_size(net_points, data_dir, tmp_path, capsys, monkeypatch):
    # two or seven shift-net replicates per chunk, one of sobol_net(4, 8)
    for per_chunk in (2, 7):
        monkeypatch.setattr(importlib.import_module("netgains.scramble"), "_CHUNK_VALUES", per_chunk * 16 * 4)
        for net, integrand, kind in ESTIMATE_DIGESTS:
            test_estimate_means_are_pinned(net_points, net, integrand, kind)
        for fmt in CLI_DIGESTS:
            test_cli_scramble_replicates_are_pinned(data_dir, tmp_path, fmt, capsys)


def test_sweep_records_are_pinned():
    records = json.dumps([asdict(r) for r in sweep_records(300, seed=20260810)])
    assert hashlib.sha256(records.encode()).hexdigest() == SWEEP_DIGEST


@pytest.mark.parametrize("lowered", list(SUITES_DIGESTS))
def test_sweep_suites_are_pinned(monkeypatch, lowered):
    real = suites.t_value
    monkeypatch.setattr(suites, "t_value", lambda gens: real(gens) - lowered)
    results = suites_from_records(sweep_records(100, seed=20260811), list(SWEEP_SUITES))
    text = json.dumps([r.to_json_dict() for r in results])
    assert hashlib.sha256(text.encode()).hexdigest() == SUITES_DIGESTS[lowered]


def _raw_text(gens: GeneratorSet) -> str:
    blocks = ("\n".join(format(row, f"0{gens.m}b") for row in mat.rows) for mat in gens.matrices)
    return f"{gens.s} {gens.m}\n" + "\n\n".join(blocks) + "\n"


@pytest.mark.parametrize("group, full", list(ANALYZE_DIGESTS))
def test_cli_analyze_is_pinned(data_dir, tmp_path, group, full):
    h = hashlib.sha256()
    for i, gens in enumerate(PINNED_NETS[group]()):
        if group.startswith("joe_kuo"):
            source = ["--dirnum", str(data_dir / "joe-kuo-head.txt"), "--dims", str(gens.s), "--m", str(gens.m)]
        else:
            path = tmp_path / f"net-{i}.txt"
            path.write_text(_raw_text(gens))
            source = ["--raw", str(path)]
        out = tmp_path / f"analyze-{i}.json"
        args = ["--json", "--out", str(out), "analyze", *source] + (["--full"] if full else [])
        assert main(args) == EXIT_OK
        h.update(out.read_bytes())
    assert h.hexdigest() == ANALYZE_DIGESTS[group, full]


@pytest.mark.parametrize("group", list(BOUNDS_DIGESTS))
def test_gain_bounds_at_the_witness_are_pinned(group):
    h = hashlib.sha256()
    for gens in PINNED_NETS[group]():
        gamma, witness = max_gain(gens)
        entry = [gamma.log2, list(witness.u), list(witness.k), gain_bounds(gens, witness)]
        h.update(json.dumps(entry).encode())
    assert h.hexdigest() == BOUNDS_DIGESTS[group]


def _narrow_nets() -> list[GeneratorSet]:
    rng = random.Random(20261022)
    nets = [shift_net()] + [sobol_net(6, m) for m in (6, 10, 14, 18)]
    nets += [random_generator_set(rng, s, m) for s, m in ((2, 5), (3, 4), (4, 3), (5, 6), (6, 4), (6, 8))]
    return nets + [gens for gens in _random_nets() if gens.s <= 6]


def test_first_deficient_depths_are_pinned():
    h = hashlib.sha256()
    for gens in _narrow_nets():
        h.update(json.dumps([list(first_rank_deficient_k(gens, u)) for u in _subsets(gens.s)]).encode())
    assert h.hexdigest() == FIRST_DEFICIENT_DIGEST
