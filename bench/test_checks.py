"""Tests of the benchmark's references and checks.

    python3 -m pytest bench

The references are tested against their definitions written out the slow
way; every check is shown to pass on the program's real output and to
reject it with one gain doubled, one point bit flipped or one visit count
off by one, so no check passes vacuously.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import reference  # noqa: E402
from netgains import enumerate_gains, generate_points  # noqa: E402
from netgains.samples import shift_net, sobol_net  # noqa: E402
from netgains.suites import evaluate_net  # noqa: E402

scramble_mod = sys.modules["netgains.scramble"]


def rows_of(gens):
    return tuple(mat.rows for mat in gens.matrices)


def naive_point(rows, m, i):
    """Bit l of coordinate j is row l of matrix j dotted with the bits of i."""
    out = []
    for mat in rows:
        value = 0
        for ell, row in enumerate(mat, start=1):
            bit = sum(((row >> (m - c)) & 1) & ((i >> (c - 1)) & 1) for c in range(1, m + 1)) & 1
            value |= bit << (m - ell)
        out.append(value)
    return out


def naive_gain(pts, m, u, k):
    """The pairwise sum with common-prefix lengths counted bit by bit."""
    def depth(a, b):
        d = 0
        while d < m and (a >> (m - 1 - d)) & 1 == (b >> (m - 1 - d)) & 1:
            d += 1
        return float("inf") if a == b else d

    total = 0
    for x in pts:
        for y in pts:
            prod = 1
            for j, kj in zip(u, k):
                d = depth(int(x[j - 1]), int(y[j - 1]))
                prod *= 1 if d > kj else (-1 if d == kj else 0)
            total += prod
    return Fraction(total, len(pts))


@pytest.fixture(scope="module")
def shift():
    gens = shift_net()
    return gens, rows_of(gens), reference.points(rows_of(gens), gens.m)


def test_points_match_the_bit_relation():
    gens = sobol_net(3, 5)
    rows = rows_of(gens)
    pts = reference.points(rows, 5)
    assert pts.tolist() == [naive_point(rows, 5, i) for i in range(32)]


def test_pair_gain_matches_the_slow_pairwise_sum(shift):
    _, _, pts = shift
    for u, k in [((1,), (0,)), ((1, 2), (1, 0)), ((2, 3, 4), (0, 1, 2)), ((1, 4), (5, 3)), ((1, 2, 3, 4), (1, 1, 1, 0))]:
        assert reference.pair_gain(pts, 4, u, k) == naive_gain(pts, 4, u, k)


def test_counting_t_of_the_shift_net(shift):
    _, _, pts = shift
    assert reference.counting_t(pts, 4) == 1


@pytest.mark.parametrize("s,m,depth", [(1, 2, None), (3, 2, None), (2, 4, 3), (4, 3, 5), (3, 8, 10)])
def test_pair_count_counts_the_box(s, m, depth):
    keys = list(reference.box(s, m, depth))
    assert len(keys) == len(set(keys)) == reference.pair_count(s, m, depth)
    if depth is None:
        assert len(keys) == (m + 3) ** s - 1


def test_sweep_record_check(shift):
    gens, _, pts = shift
    rec = vars(evaluate_net(gens))
    t = reference.counting_t(pts, gens.m)
    assert checks.check_sweep_record(rec, gens.s, gens.m, t) == []
    assert checks.check_sweep_record({**rec, "triples": rec["triples"] + 1}, gens.s, gens.m, t)
    assert checks.check_sweep_record({**rec, "enum_max_log2": rec["enum_max_log2"] + 1}, gens.s, gens.m, t)
    assert checks.check_sweep_record(rec, gens.s, gens.m, t + 1)


def test_gain_values_and_bounds_reject_a_doubled_gain(shift):
    gens, _, pts = shift
    keys = list(reference.box(gens.s, gens.m, 4))
    ref = {key: reference.pair_gain(pts, gens.m, *key) for key in keys}
    report = enumerate_gains(gens, 4)
    entries = {(ix.u, ix.k): gv.log2 for ix, gv in report.entries}
    assert checks.check_values(checks.table_values(entries, keys), ref) == []
    assert checks.check_bounded(checks.table_values(entries, keys), 1, gens.m) == []
    key = next(iter(entries))
    doubled = {**entries, key: entries[key] + 1}
    assert checks.check_values(checks.table_values(doubled, keys), ref)
    top = max(entries, key=entries.get)
    assert checks.check_bounded({top: Fraction(2 << entries[top])}, 1, gens.m)
    assert checks.check_bounded({top: Fraction(3)}, 1, gens.m)


def test_gain_table_rejects_visits_off_by_one_and_a_doubled_maximum(shift):
    gens, _, _ = shift
    report = enumerate_gains(gens, 6)
    entries = {(ix.u, ix.k): gv.log2 for ix, gv in report.entries}
    witness = (report.attaining.u, report.attaining.k)
    base = dict(s=gens.s, m=gens.m, depth=6, t=1, gamma_log2=report.gamma_max.log2,
                visited=report.visited, theoretical_log2=report.theoretical.log2, witness=witness)
    assert checks.check_gain_table(entries, **base) == []
    assert checks.check_gain_table(entries, **{**base, "visited": report.visited + 1})
    assert checks.check_gain_table(entries, **{**base, "visited": report.visited - 1})
    assert checks.check_gain_table({**entries, witness: entries[witness] + 1}, **base)
    assert checks.check_gain_table(entries, **{**base, "gamma_log2": report.gamma_max.log2 - 1})
    shallow = min(entries, key=lambda key: len(key[0]) + sum(key[1]))
    assert checks.check_gain_table(entries, **{**base, "t": gens.m - len(shallow[0]) - sum(shallow[1])})


def test_points_check_rejects_a_flipped_bit():
    gens = sobol_net(4, 7)
    program = generate_points(gens).coords
    ref = reference.points(rows_of(gens), 7)
    assert checks.check_points(checks.digest(program), ref) == []
    flipped = program.copy()
    flipped[37, 2] ^= np.uint64(1 << 3)
    assert checks.check_points(checks.digest(flipped), ref)


@pytest.mark.parametrize("kind", list(scramble_mod.ScrambleKind))
def test_scramble_check_rejects_a_flipped_bit(kind):
    gens = sobol_net(4, 8)
    points = generate_points(gens)
    boxes = checks.balanced_boxes(points.coords, 8, [((1, 2), (a, 8 - a)) for a in range(9)])
    assert len(boxes) == 9
    out = scramble_mod.scramble(points, scramble_mod.ScrambleSpec(kind=kind, seed=5)).numerators
    assert checks.check_scrambled(out, 8, boxes) == []
    flipped = out.copy()
    flipped[11, 1] ^= np.uint64(1)
    assert checks.check_scrambled(flipped, 8, boxes)


def test_estimate_and_disjoint_checks():
    assert checks.check_estimate(0.0626, 0.001, 1 / 16) == []
    assert checks.check_estimate(0.0626 + 0.01, 0.001, 1 / 16)
    assert checks.check_estimate(1 / 16, 0.0, 1 / 16)
    assert checks.check_disjoint([1.0, 2.0], [3.0]) == []
    assert checks.check_disjoint([1.0, 2.0], [2.0, 3.0])


def test_tracer_wraps_names_where_callers_find_them():
    code = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
import netgains, netgains.quality as q, netgains.suites as su
sc = sys.modules["netgains.scramble"]
from netgains.samples import shift_net
wrapped = [getattr(f, "__wrapped__", None) is not None
           for f in (q.rank_of_rows, su.gain_fast, sc.gain_fast, netgains.scramble, netgains.t_value)]
tracer.op, tracer.on = 0, True
g = shift_net()
q.t_value(g)
tracer.on = False
ops = tracer.ops
print(json.dumps({"wrapped": wrapped, "ops": ops, "rows": tracer.row_calls}))
"""
    src = os.path.join(os.path.dirname(HERE), "src")
    out = subprocess.run([sys.executable, "-c", code, HERE, src], capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    assert all(got["wrapped"])
    calls, self_s, incl_s, _ = got["ops"]["quality.t_value"]
    rank_calls, rank_self, rank_incl, _ = got["ops"]["gf2.rank_of_rows"]
    assert calls == 1 and rank_calls > 0 and got["rows"] > 0
    assert rank_self == pytest.approx(rank_incl)
    assert self_s == pytest.approx(incl_s - rank_incl, abs=1e-6)
