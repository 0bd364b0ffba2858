"""Scramble, estimate, ``scramble --reps`` and ``gains`` outputs pinned to sha256 digests.

Every scramble kind, the output-bit counts ``m``, ``m + 7`` and 64, single
scrambles and replicate estimates are hashed here, so a change to the
scramble engine that moves one bit of one output fails.  The Haar
integrands stay within the output bits, where estimates read cells.  Gain
tables are hashed at shallow, middle and whole-box depths, whole and cut
by ``--max-visits``, so a change to the enumeration that moves one entry,
its order or a count fails.  The records of a 300-net acceptance sweep are
hashed as JSON, so a change to ``evaluate_net`` that moves one count fails,
and so are the five sweep suites of a clean sweep and of one whose ``t`` is
one too small, so a change that moves one verdict, count or failure note
fails.
"""

import hashlib
import importlib
import itertools
import json
from dataclasses import asdict

import numpy as np
import pytest

from netgains.cli import EXIT_OK, main
from netgains.netgen import DIRECTION_NUMBERS, generate_points, load_generators
from netgains.samples import shift_net, sobol_net
from netgains.scramble import HaarIntegrand, ScrambleKind, ScrambleSpec, estimate, scramble
from netgains import suites
from netgains.suites import SWEEP_SUITES, suites_from_records, sweep_records

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

SWEEP_DIGEST = "e50ed5455a707f756fa5850095c81d9c125118310a0f33a5491e459147be90a6"

# t_value lowered by 0 and by 1: the second breaches bound-chain, zero-region and t-crossval
SUITES_DIGESTS = {
    0: "e2909763eadd9c6e57b8deb664acea2ba15052c7192f533a7cf62358971cc7e0",
    1: "fb045fe8bd3fe8e6055c66a79c2b94b6f7f6d79d81e6ad308aaab3a86a937cde",
}


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
