"""Command-line behavior: outputs, exit codes, determinism."""

import json
import time

import pytest

from netgains.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, EXIT_SUITE, main

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


def test_analyze_full_refuses_an_unbounded_a_k_table(shiftnet_file, capsys):
    start = time.perf_counter()
    code = main(["analyze", "--raw", shiftnet_file, "--full", "--a-k-max", "1000000000"])
    assert time.perf_counter() - start < 1.0  # refused before any box is counted
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: a_k_max=1000000000 ")


def test_analyze_full_refuses_a_deep_net_up_front(joekuo_file, capsys):
    # 2^20 points fit, but sorting them once per box of total <= 20 does not
    code = main(["analyze", "--dirnum", joekuo_file, "--dims", "7", "--m", "20", "--full"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: a_k_max=20 over m=20, s=7 ")


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


def test_integrate_haar_needs_u_and_k(shiftnet_file, capsys):
    code = main(["--seed", "5", "integrate", "--raw", shiftnet_file, "--integrand", "haar"])
    assert code == EXIT_INVALID


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


def test_verify_sweep_net_with_too_many_points_exits_invalid(monkeypatch, capsys):
    # seed 0 draws m = 26 for the one coordinate: a small table, but its
    # k = 0 triple alone would walk 2^26 nullspace states
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


def test_scramble_rejects_reps_below_one(shiftnet_file, capsys):
    code = main(["--seed", "1", "scramble", "--raw", shiftnet_file, "--reps", "0"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and "--reps must be >= 1" in captured.err


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


@pytest.mark.parametrize("command", [["gen"], ["scramble"], ["integrate"], ["analyze", "--full"]])
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
