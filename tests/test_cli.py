"""Command-line behavior: outputs, exit codes, determinism, and the point writers."""

import io
import json
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest

from netgains.cli import (
    EXIT_INVALID,
    EXIT_IO,
    EXIT_OK,
    EXIT_SUITE,
    _write_binary_rows,
    _write_csv_rows,
    _write_json_rows,
    main,
)
from netgains.netgen import generate_points

IDENTITY_RAW = "1 4\n1000\n0100\n0010\n0001\n"
TWIN_RAW = "2 3\n100\n010\n001\n\n100\n010\n001\n"


@pytest.fixture()
def shiftnet_file(data_dir):
    return str(data_dir / "shiftnet.txt")


@pytest.fixture()
def joekuo_file(data_dir):
    return str(data_dir / "joe-kuo-head.txt")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- gen -----------------------------------------------------------------------

def test_gen_raw_csv(shiftnet_file, capsys):
    assert main(["gen", "--raw", shiftnet_file]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16
    assert all(len(line.split(",")) == 4 for line in lines)
    assert lines[0] == "0.0,0.0,0.0,0.0"


def test_gen_dirnum_van_der_corput(joekuo_file, capsys):
    assert main(["gen", "--dirnum", joekuo_file, "--dims", "1", "--m", "3"]) == EXIT_OK
    values = [float(line) for line in capsys.readouterr().out.splitlines()]
    assert values == [v / 8 for v in (0, 4, 2, 6, 1, 5, 3, 7)]


@pytest.mark.parametrize("source, flags, message", [
    ("--raw", ["--m", "2", "--dims", "9"], "dims and m apply only to direction_numbers input"),
    ("--raw", ["--m", "2"], "dims and m apply only to direction_numbers input"),
    ("--raw", ["--dims", "9"], "dims and m apply only to direction_numbers input"),
    ("--dirnum", ["--m", "3"], "direction_numbers input needs dims and m"),
    ("--dirnum", ["--dims", "1"], "direction_numbers input needs dims and m"),
])
def test_dims_and_m_go_with_a_direction_number_table_only(shiftnet_file, joekuo_file, source,
                                                          flags, message, capsys):
    # they select from a direction-number table; a raw file fixes s and m itself
    path = shiftnet_file if source == "--raw" else joekuo_file
    assert main(["--json", "gen", source, path, *flags]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_gen_binary_output(shiftnet_file, tmp_path):
    out = tmp_path / "points.bin"
    assert main(["--out", str(out), "gen", "--raw", shiftnet_file, "--format", "bin"]) == EXIT_OK
    assert out.stat().st_size == 16 * 4 * 4


def test_gen_missing_file_exits_io(tmp_path, capsys):
    out = tmp_path / "points.csv"
    code = main(["--out", str(out), "gen", "--raw", str(tmp_path / "nope.txt")])
    assert code == EXIT_IO
    assert not out.exists()  # no partial output
    assert "error" in capsys.readouterr().err


def test_out_into_a_missing_directory_exits_io(shiftnet_file, tmp_path, capsys):
    out = tmp_path / "missing" / "points.csv"
    assert main(["--out", str(out), "gen", "--raw", shiftnet_file]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: cannot write {out}: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_out_to_a_full_device_exits_io(shiftnet_file, capsys):
    # the open succeeds and the write fails, so the error reaches main's OSError handler
    assert main(["--out", "/dev/full", "gen", "--raw", shiftnet_file]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and "cannot write" not in err


@pytest.mark.parametrize(
    "text,flags",
    [
        ("0 2\n", ["--raw"]),
        ("1 33\n", ["--raw"]),
        ("hdr\n2 1 0\n", ["--dirnum", "--dims", "2", "--m", "4"]),
        ("hdr\n2 0 0 1\n", ["--dirnum", "--dims", "2", "--m", "4"]),
        ("\n\n", ["--dirnum", "--dims", "1", "--m", "4"]),
        ("hdr\n2 1 0 1\n", ["--dirnum", "--dims", "0", "--m", "4"]),
    ],
)
def test_generator_input_faults_exit_invalid(text, flags, tmp_path, capsys):
    path = write(tmp_path, "net.txt", text)
    assert main(["gen", flags[0], path, *flags[1:]]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: invalid generator input: ")


def test_gen_parse_error_exits_invalid(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "1 2\n01\n0x\n")
    assert main(["gen", "--raw", bad]) == EXIT_INVALID
    assert "line 3" in capsys.readouterr().err


# --- analyze --------------------------------------------------------------------

def test_analyze_shift_net(shiftnet_file, capsys):
    assert main(["--json", "analyze", "--raw", shiftnet_file]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["t"] == 1
    assert payload["t_star_full"] == 0
    assert payload["gamma_log2"] == 3
    assert payload["bound_log2"] == 4


def test_analyze_identity(tmp_path, capsys):
    path = write(tmp_path, "eye.txt", IDENTITY_RAW)
    assert main(["--json", "analyze", "--raw", path]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["t"] == 0
    assert payload["gamma_log2"] == 0


def test_analyze_twin_matrices_hit_ceiling(tmp_path, capsys):
    path = write(tmp_path, "twin.txt", TWIN_RAW)
    assert main(["--json", "analyze", "--raw", path]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma_log2"] == 3  # 2^m with m = 3


def test_analyze_rejects_negative_a_k_max(shiftnet_file, capsys):
    code = main(["--json", "analyze", "--raw", shiftnet_file, "--full", "--a-k-max", "-1"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and "a_k_max must be >= 0" in captured.err


@pytest.mark.parametrize("a_k_max", ["3", "-1"])
def test_analyze_refuses_a_k_max_without_full(a_k_max, monkeypatch, shiftnet_file, capsys):
    from netgains import cli

    def no_load(args):
        raise AssertionError("input read before the --a-k-max check")

    monkeypatch.setattr(cli, "_load", no_load)
    assert main(["--json", "analyze", "--raw", shiftnet_file, "--a-k-max", a_k_max]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --a-k-max applies only with --full\n"


def test_analyze_full_refuses_an_unbounded_a_k_table(shiftnet_file, capsys):
    start = time.perf_counter()
    code = main(["analyze", "--raw", shiftnet_file, "--full", "--a-k-max", "1000000000"])
    assert time.perf_counter() - start < 1.0  # refused before any box is counted
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: a_k_max=1000000000 ")


def test_analyze_full_refuses_a_deep_net_up_front(joekuo_file, capsys):
    # the A_K walk over [0, 21]^7 up to total 40 would visit 59.5M stacks
    code = main(
        ["analyze", "--dirnum", joekuo_file, "--dims", "7", "--m", "20", "--full", "--a-k-max", "40"]
    )
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: a_k_max=40 over m=20, s=7 ")


def test_analyze_full_report(shiftnet_file, capsys):
    assert main(["--json", "analyze", "--raw", shiftnet_file, "--full"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["A_K"]["0"] == 4
    assert {"u": [1, 2, 3, 4], "value": 0} in payload["t_star_u"]


# --- gains ----------------------------------------------------------------------

def test_gains_depth_eight(shiftnet_file, capsys):
    assert main(["--json", "gains", "--raw", shiftnet_file, "--depth", "8"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma_max_log2"] == 3
    assert payload["attained_theoretical"] is True
    assert max(e["log2_gain"] for e in payload["entries"]) == 3


def test_gains_csv_format(shiftnet_file, capsys):
    assert main(["gains", "--raw", shiftnet_file, "--depth", "4", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "u,k,log2_gain"
    assert len(lines) > 1


# --- scramble and integrate --------------------------------------------------------

def test_scramble_deterministic_bytes(shiftnet_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scramble", "--raw", shiftnet_file, "--kind", "rls", "--reps", "2"]
    assert main(["--seed", "7", "--out", str(a)] + args) == EXIT_OK
    assert main(["--seed", "7", "--out", str(b)] + args) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 32  # 2 replicates x 16 points


def test_scramble_generates_and_prints_seed(shiftnet_file, capsys):
    assert main(["scramble", "--raw", shiftnet_file]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err.startswith("seed:")
    assert len(captured.out.splitlines()) == 16


def test_scramble_binary_format(shiftnet_file, tmp_path):
    out = tmp_path / "s.bin"
    code = main(
        ["--seed", "3", "--out", str(out), "scramble", "--raw", shiftnet_file,
         "--format", "bin", "--output-bits", "20"]
    )
    assert code == EXIT_OK
    assert out.stat().st_size == 16 * 4 * 4


def test_integrate_prod(shiftnet_file, capsys):
    code = main(["--json", "--seed", "5", "integrate", "--raw", shiftnet_file, "--reps", "8"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"mean", "variance_of_mean", "std_error", "replicates"}
    assert payload["replicates"] == 8


def test_integrate_rejects_reps_below_two_up_front(monkeypatch, shiftnet_file, capsys):
    from netgains import netgen

    def no_points(gens):
        raise AssertionError("points generated before the --reps check")

    monkeypatch.setattr(netgen, "generate_points", no_points)
    for reps in ("1", "0"):
        code = main(["integrate", "--raw", shiftnet_file, "--reps", reps])
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and "seed:" not in captured.err
        assert f"--reps must be >= 2, got {reps}" in captured.err


@pytest.mark.parametrize("flags", [["--u", "1", "--k", "2"], ["--u", "1"], ["--k", "2"]])
def test_integrate_prod_refuses_u_and_k(flags, shiftnet_file, capsys):
    code = main(["--seed", "5", "integrate", "--raw", shiftnet_file, "--integrand", "prod", *flags])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --u and --k apply only to --integrand haar\n"


def test_integrate_haar_needs_u_and_k(shiftnet_file, capsys):
    code = main(["--seed", "5", "integrate", "--raw", shiftnet_file, "--integrand", "haar"])
    assert code == EXIT_INVALID


@pytest.mark.parametrize(
    "u,k,message",
    [
        ("1,x", "1,1", "--u must be comma-separated integers"),
        ("2,1", "1,1", "u must be strictly increasing, got (2, 1)"),
        ("1", "1,2", "k has 2 entries for 1 coordinates"),
    ],
)
def test_integrate_haar_rejects_a_bad_u_or_k(u, k, message, shiftnet_file, capsys):
    code = main(["--seed", "5", "integrate", "--raw", shiftnet_file, "--integrand", "haar",
                 "--u", u, "--k", k])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--u", "1,x", "--k", "1,1"], "--u must be comma-separated integers"),
        (["--u", "2,1", "--k", "1,1"], "u must be strictly increasing, got (2, 1)"),
        (["--u", "1", "--k", "1,2"], "k has 2 entries for 1 coordinates"),
        (["--k", "1"], "haar integrand needs --u"),
    ],
)
def test_integrate_refuses_a_bad_haar_index_before_the_input(flags, message, monkeypatch, capsys):
    from netgains import cli, netgen

    def no_work(*args):
        raise AssertionError("work started before the haar index was checked")

    for module, name in ((cli, "_load"), (cli, "_seed_of"), (netgen, "generate_points")):
        monkeypatch.setattr(module, name, no_work)
    # the input file need not exist: the index is refused first
    code = main(["integrate", "--raw", "no-such-file.txt", "--integrand", "haar", *flags])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flags,message,stubs",
    [
        (["--u", "8", "--k", "1"], "u must be nonempty coordinates in 1..7, increasing, got u=(8,) for s=7",
         ("_seed_of",)),
        (["--u", "1", "--k", "70"], "haar integrand at k=(70,) needs more than 64 digits", ("_seed_of", "_load")),
    ],
    ids=["u-past-s", "k-past-63"],
)
def test_integrate_refuses_a_haar_wave_past_the_net_before_any_point(flags, message, stubs, monkeypatch,
                                                                     joekuo_file, capsys):
    from netgains import cli, netgen

    def no_work(*args):
        raise AssertionError("work started before the haar wave was checked")

    monkeypatch.setattr(netgen, "generate_points", no_work)
    for name in stubs:
        monkeypatch.setattr(cli, name, no_work)
    code = main(["integrate", "--dirnum", joekuo_file, "--dims", "7", "--m", "4", "--integrand", "haar", *flags])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_integrate_haar(shiftnet_file, capsys):
    code = main(
        ["--json", "--seed", "5", "integrate", "--raw", shiftnet_file,
         "--integrand", "haar", "--u", "1,2", "--k", "0,0", "--reps", "16"]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean"] == 0.0  # depth-zero wave is integrated exactly


def test_integrate_haar_beyond_the_dimension_exits_invalid(joekuo_file, capsys):
    code = main(
        ["--seed", "5", "integrate", "--dirnum", joekuo_file, "--dims", "2", "--m", "4",
         "--integrand", "haar", "--u", "3", "--k", "1", "--reps", "2", "--kind", "rls"]
    )
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "u=(3,)" in err and "s=2" in err


def test_integrate_haar_past_the_reals_precision(shiftnet_file, capsys):
    def run(k):
        return main(["--json", "--seed", "3", "integrate", "--raw", shiftnet_file,
                     "--integrand", "haar", "--u", "1", "--k", k, "--reps", "8"])

    for k in ("62", "63"):
        assert run(k) == EXIT_OK
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["std_error"] > 0.0 and abs(payload["mean"]) < 1.0
        assert captured.err == ""
    assert run("64") == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "k=(64,)" in err


# --- verify ----------------------------------------------------------------------

def test_verify_sweep_suites_pass(capsys):
    code = main(
        ["--json", "--seed", "11", "verify", "--suite", "power-of-two",
         "--suite", "t-crossval", "--trials", "25", "--max-s", "3", "--max-m", "4"]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert {s["suite"] for s in payload["suites"]} == {"power-of-two", "t-crossval"}
    assert all(s["pass"] for s in payload["suites"])


def test_verify_net_preservation(capsys):
    code = main(["--json", "--seed", "2", "verify", "--suite", "net-preservation"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["suites"][0]["checked"] == 600


def test_verify_gain_identity_suite(capsys):
    code = main(
        ["--json", "--seed", "4", "verify", "--suite", "gain-identity", "--reps", "600"]
    )
    assert code == EXIT_OK


def test_verify_oversized_sweep_net_exits_invalid(capsys):
    # seed 0 draws s = 50 first; with m = 2 its table would have 5^50 cells
    code = main(
        ["--seed", "0", "verify", "--suite", "power-of-two", "--trials", "1",
         "--max-s", "64", "--max-m", "2"]
    )
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "pairwise table" in err


def test_verify_refuses_a_sweep_range_before_any_net(monkeypatch, capsys):
    # 3 coordinates fit the pairwise table, but (2^3 - 1) * 2^24 nullspace states do not
    from netgains import suites

    def no_net(gens):
        raise AssertionError("a net evaluated before the range check")

    monkeypatch.setattr(suites, "evaluate_net", no_net)
    code = main(
        ["--seed", "0", "verify", "--suite", "power-of-two", "--trials", "200",
         "--max-s", "3", "--max-m", "24"]
    )
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the k = 0 triples of max_s=3, max_m=24 ")
    # 5^(10^9) cells is refused without computing the power
    start = time.perf_counter()
    code = main(
        ["--seed", "0", "verify", "--suite", "power-of-two", "--max-s", "1000000000", "--max-m", "2"]
    )
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: pairwise table of max_s=1000000000, max_m=2 ")


def test_verify_sweep_net_with_too_many_points_exits_invalid(monkeypatch, capsys):
    # the range is refused before any net is drawn: its largest net, s = 1 and
    # m = 32, has a small pairwise table, but 2^32 points, the nullspace states
    # of its k = 0 triple
    from netgains import suites

    def no_points(gens):
        raise AssertionError("points generated before the ceiling check")

    monkeypatch.setattr(suites, "generate_points", no_points)
    code = main(
        ["--seed", "0", "verify", "--suite", "power-of-two", "--trials", "1",
         "--max-s", "1", "--max-m", "32"]
    )
    assert code == EXIT_INVALID
    assert "nullspace states" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,name", [("--max-s", "0", "max_s"), ("--max-m", "1", "max_m")])
def test_verify_rejects_empty_sweep_ranges(flag, value, name, capsys):
    code = main(["--seed", "1", "verify", "--suite", "power-of-two", "--trials", "1", flag, value])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_trials_below_one(trials, capsys):
    code = main(["--json", "--seed", "1", "verify", "--suite", "power-of-two", "--trials", trials])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and "--trials must be >= 1" in captured.err


def test_verify_reads_trials_only_for_the_sweep_suites(monkeypatch, capsys):
    from netgains import suites

    monkeypatch.setattr(suites, "net_preservation_suite",
                        lambda **kw: suites.SuiteResult("net-preservation", 600))
    for trials in ("0", "1000000000"):
        code = main(["--json", "--seed", "1", "verify", "--suite", "net-preservation", "--trials", trials])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["pass"] is True
    code = main(["--json", "--seed", "1", "verify", "--suite", "power-of-two", "--trials", "0"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and "error: --trials must be >= 1, got 0" in captured.err


@pytest.mark.parametrize("reps", ["1", "0"])
def test_verify_rejects_gain_identity_reps_below_two_up_front(reps, monkeypatch, capsys):
    from netgains import suites

    def no_sweep(*args, **kwargs):
        raise AssertionError("a suite ran before the --reps check")

    monkeypatch.setattr(suites, "sweep_records", no_sweep)
    monkeypatch.setattr(suites, "net_preservation_suite", no_sweep)
    for chosen in (["--suite", "power-of-two", "--suite", "gain-identity"], ["--suite", "all"], []):
        code = main(["--json", "--seed", "1", "verify", *chosen, "--reps", reps])
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and f"--reps must be >= 2 for gain-identity, got {reps}" in captured.err
    # without gain-identity, --reps is not read
    monkeypatch.undo()
    code = main(["--json", "--seed", "1", "verify", "--suite", "t-crossval", "--trials", "2", "--reps", reps])
    assert code == EXIT_OK


def test_reps_and_trials_past_their_ceilings_refused_up_front(monkeypatch, shiftnet_file, capsys):
    from netgains import cli, suites

    monkeypatch.setattr(cli, "REPS_LIMIT", 4)
    monkeypatch.setattr(cli, "TRIALS_LIMIT", 3)
    # at the ceilings the counts pass
    assert main(["--json", "--seed", "1", "integrate", "--raw", shiftnet_file, "--reps", "4"]) == EXIT_OK
    code = main(["--json", "--seed", "1", "verify", "--suite", "power-of-two", "--trials", "3",
                 "--max-s", "2", "--max-m", "3"])
    assert code == EXIT_OK
    capsys.readouterr()

    def nothing(*args, **kwargs):
        raise AssertionError("work started before the ceiling check")

    monkeypatch.setattr(cli, "_load", nothing)
    for name in ("sweep_records", "net_preservation_suite", "gain_identity_suite"):
        monkeypatch.setattr(suites, name, nothing)
    identity_message = "--reps must be <= 4 for gain-identity, got 5"
    cases = [
        (["integrate", "--raw", shiftnet_file, "--reps", "5"], "--reps must be <= 4, got 5"),
        (["verify", "--suite", "gain-identity", "--reps", "5", "--trials", "3"], identity_message),
        (["verify", "--reps", "5", "--trials", "3"], identity_message),
        (["verify", "--suite", "power-of-two", "--trials", "4"], "--trials must be <= 3, got 4"),
        (["verify", "--trials", "4"], "--trials must be <= 3, got 4"),
    ]
    for argv, message in cases:
        assert main(["--json", "--seed", "1", *argv]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {message}" in captured.err


def test_scramble_rejects_reps_below_one(shiftnet_file, capsys):
    code = main(["--seed", "1", "scramble", "--raw", shiftnet_file, "--reps", "0"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and "--reps must be >= 1" in captured.err


@pytest.mark.parametrize("bits", ["3", "65"])
def test_scramble_refuses_output_bits_before_the_points(bits, monkeypatch, shiftnet_file, capsys):
    from netgains import cli, netgen

    def no_work(*args):
        raise AssertionError("work started before --output-bits was checked")

    monkeypatch.setattr(cli, "_seed_of", no_work)
    monkeypatch.setattr(netgen, "generate_points", no_work)
    code = main(["scramble", "--raw", shiftnet_file, "--output-bits", bits])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: output_bits must be in [4, 64], got {bits}\n"


def test_gains_rejects_negative_max_visits(shiftnet_file, capsys):
    code = main(["gains", "--raw", shiftnet_file, "--depth", "3", "--max-visits", "-2"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and "max_visits must be >= 0" in captured.err


def test_gains_refuses_an_unbounded_depth(joekuo_file, capsys):
    code = main(["gains", "--dirnum", joekuo_file, "--dims", "7", "--m", "10", "--depth", "1000"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: max_depth=1000 ")


@pytest.mark.parametrize("command", [["analyze"], ["gains", "--depth", "1"]])
def test_t_search_past_its_ceiling_exits_invalid(command, monkeypatch, joekuo_file, capsys):
    from netgains import quality

    need = 868 if command[0] == "analyze" else 733  # sobol_net(5, 10)'s t search, and its depth-1 table's walk
    monkeypatch.setattr(quality, "T_SEARCH_LIMIT", need - 1)
    code = main([command[0], "--dirnum", joekuo_file, "--dims", "5", "--m", "10", *command[1:]])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: t search over s=5 coordinates at m=10 made more than {need - 1} ")


def test_t_star_search_past_its_ceiling_exits_invalid(monkeypatch, joekuo_file, capsys):
    from netgains import quality

    monkeypatch.setattr(quality, "T_SEARCH_LIMIT", 846)  # sobol_net(7, 16) needs 847
    code = main(["analyze", "--dirnum", joekuo_file, "--dims", "7", "--m", "16"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: t* search over s=7 coordinates at m=16 made more than 846 ")


def test_witness_scan_past_its_ceiling_exits_invalid(monkeypatch, joekuo_file, capsys):
    from netgains import quality

    # sobol_net(7, 16)'s witness scan walks 55 stacks; the t* search is stubbed to its total, 12
    monkeypatch.setattr(quality, "_least_gain_total", lambda gens, u, floor=0: 12)
    monkeypatch.setattr(quality, "T_SEARCH_LIMIT", 54)
    code = main(["analyze", "--dirnum", joekuo_file, "--dims", "7", "--m", "16"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: witness scan at total 12 over s=7 coordinates at m=16 walked more than 54 ")


@pytest.mark.parametrize("command", [["gen"], ["scramble"], ["integrate"]])
def test_points_past_the_limit_exit_invalid(command, joekuo_file, capsys):
    code = main([command[0], "--dirnum", joekuo_file, "--dims", "7", "--m", "32", *command[1:]])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: the points of a net with m=32, s=7 ")


def test_out_of_memory_exits_invalid(monkeypatch, capsys):
    from netgains import suites

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(suites, "sweep_records", exhausted)
    code = main(["--seed", "0", "verify", "--suite", "power-of-two", "--trials", "1"])
    assert code == EXIT_INVALID
    assert capsys.readouterr().err == "error: out of memory\n"


def test_exit_code_constants_are_distinct():
    assert len({EXIT_OK, EXIT_IO, EXIT_INVALID, EXIT_SUITE}) == 4


# --- flag placement and JSON everywhere ------------------------------------------

def test_global_flags_accepted_after_subcommand(shiftnet_file, tmp_path):
    out = tmp_path / "points.csv"
    assert main(["gen", "--raw", shiftnet_file, "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 16


def test_gen_supports_json(shiftnet_file, capsys):
    assert main(["gen", "--raw", shiftnet_file, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["s"] == 4 and payload["m"] == 4
    assert len(payload["numerators"]) == 16
    assert payload["numerators"][0] == [0, 0, 0, 0]


@pytest.mark.parametrize("command, fmt", [("gen", "bin"), ("gen", "csv"), ("scramble", "csv"),
                                         ("scramble", "bin"), ("gains", "csv")])
def test_json_with_another_format_is_refused_up_front(command, fmt, monkeypatch, shiftnet_file, capsys):
    from netgains import cli

    def no_load(args):
        raise AssertionError("input read before the --json/--format check")

    monkeypatch.setattr(cli, "_load", no_load)
    extra = ["--depth", "2"] if command == "gains" else []
    for args in (["--json", command, "--raw", shiftnet_file, "--format", fmt, *extra],
                 [command, "--raw", shiftnet_file, "--format", fmt, "--json", *extra]):
        assert main(args) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: --json conflicts with --format {fmt}\n"


def test_gains_json_with_format_json_is_json(shiftnet_file, capsys):
    outs = []
    for flags in (["--json"], ["--format", "json"], ["--json", "--format", "json"]):
        assert main(["gains", "--raw", shiftnet_file, "--depth", "4", *flags]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert json.loads(outs[0]) == json.loads(outs[1]) == json.loads(outs[2])
    assert outs[0] == outs[2]


def test_scramble_replicates_of_nearby_seeds_differ(shiftnet_file, capsys):
    reps = []
    for seed in ("0", "1"):
        code = main(["--json", "--seed", seed, "scramble", "--raw", shiftnet_file, "--reps", "2"])
        assert code == EXIT_OK
        reps.append(json.loads(capsys.readouterr().out)["numerators"])
    assert all(a != b for a in reps[0] for b in reps[1])


def test_scramble_supports_json(shiftnet_file, capsys):
    code = main(["scramble", "--raw", shiftnet_file, "--json", "--seed", "9", "--reps", "2"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 9
    assert len(payload["numerators"]) == 2
    assert len(payload["numerators"][0]) == 16


@pytest.mark.parametrize("kind", ["rls", "nested", "shift"])
def test_scramble_json_streams_the_text_of_one_payload(joekuo_file, kind, capsys):
    # written 2^14 rows at a time, the text is that of json.dumps of the whole payload
    from netgains.cli import _KINDS
    from netgains.netgen import generate_points
    from netgains.samples import sobol_net
    from netgains.scramble import ScrambleSpec, _ReplicateSeeds, _scrambles

    points = generate_points(sobol_net(3, 6))
    for bits, reps in ((6, 1), (64, 3)):
        code = main(["--json", "--seed", "8", "scramble", "--dirnum", joekuo_file, "--dims", "3", "--m", "6",
                     "--kind", kind, "--reps", str(reps), "--output-bits", str(bits)])
        assert code == EXIT_OK
        scrambles = _scrambles(points, ScrambleSpec(_KINDS[kind], bits), _ReplicateSeeds(8, reps))
        numerators = [[[int(v) for v in row] for row in sp.numerators] for sp in scrambles]
        payload = {"kind": _KINDS[kind].value, "output_bits": bits, "seed": 8, "numerators": numerators}
        assert capsys.readouterr().out == json.dumps(payload) + "\n"


def test_scramble_json_holds_no_replicate_as_python_ints(joekuo_file, tmp_path):
    # 2^18 rows, sixteen of the blocks that --json writes at a time.  The replicate's
    # numpy arrays take 2 MiB each; its tolist() alone, a list of one-int rows of
    # distinct values, takes more than the 23 MiB of its row lists and ints.
    n = 1 << 18
    as_ints = n * (sys.getsizeof([0]) + sys.getsizeof(n - 1))
    out = tmp_path / "reps.json"
    args = ["--json", "--seed", "2", "--out", str(out), "scramble", "--dirnum", joekuo_file, "--dims", "1",
            "--m", "18", "--kind", "shift"]
    tracemalloc.start()
    try:
        assert main(args) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(row for (row,) in json.loads(out.read_text())["numerators"][0]) == list(range(n))
    assert peak < as_ints / 2


def test_scramble_csv_holds_no_replicate_as_reals(joekuo_file, tmp_path):
    # 2^18 rows of one coordinate, sixteen CSV blocks.  The points and the replicate's
    # numerators take 2 MiB each and are held whole; the replicate's reals would take
    # 2 MiB more, and hashing their offsets all at once as much again
    n = 1 << 18
    out = tmp_path / "reps.csv"
    args = ["--seed", "2", "--out", str(out), "scramble", "--dirnum", joekuo_file, "--dims", "1",
            "--m", "18", "--kind", "shift"]
    tracemalloc.start()
    try:
        assert main(args) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(out) as fh:
        assert sum(1 for _ in fh) == n
    assert peak < 4 * n * 8


# --- point writers ----------------------------------------------------------------

def test_csv_export_fractions(identity_net):
    pts = generate_points(identity_net(3))
    buf = io.StringIO()
    _write_csv_rows(buf, pts.coords, pts.m)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 8
    assert lines[0] == "0.0"
    assert lines[1] == "0.5"


def test_binary_export_u32_roundtrip(shift_points):
    buf = io.BytesIO()
    _write_binary_rows(buf, shift_points.coords, shift_points.m)
    back = np.frombuffer(buf.getvalue(), dtype="<u4").reshape(16, 4)
    assert np.array_equal(back, shift_points.coords.astype("<u4"))


@pytest.mark.parametrize("writer, bits", [("bin", 20), ("bin", 40), ("csv", 20), ("csv", 0), ("json", None)],
                         ids=["bin-20", "bin-40", "csv-20", "csv-0", "json"])
def test_point_writers_hold_no_copy_of_the_points(writer, bits):
    # 2^18 rows, sixteen of the blocks each writer converts at a time: 8 values a row
    # (16 MiB) for bin, one for the text writers, since tracemalloc slows each of their
    # allocations.  rows.tolist() would take a list per row and a Python object per
    # value.  CSV at 0 bits writes reals, as scramble does.
    class Sink:
        size = lines = 0

        def write(self, data):
            self.size += len(data)
            self.lines += data.count("\n" if isinstance(data, str) else b"\n")
            return len(data)

    cols = 8 if writer == "bin" else 1
    numerators = np.arange((1 << 18) * cols, dtype=np.uint64).reshape(-1, cols)
    rows = numerators * 2.0**-20 if bits == 0 else numerators
    as_list = len(rows) * sys.getsizeof(rows[-1].tolist()) + rows.size * sys.getsizeof(rows[-1, -1].item())
    sink = Sink()
    tracemalloc.start()
    try:
        if writer == "json":
            _write_json_rows(sink, rows)
        else:
            (_write_csv_rows if writer == "csv" else _write_binary_rows)(sink, rows, bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < as_list / 4
    if writer == "bin":
        assert sink.size == numerators.size * (4 if bits <= 32 else 8)
        assert peak < numerators.nbytes // 8
    elif writer == "csv":
        assert sink.lines == len(rows)
