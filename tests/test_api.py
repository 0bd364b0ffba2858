"""The public names, and the few names the benchmark reaches outside them."""

import dataclasses
import importlib
import inspect

import pytest

import netgains

MODULES = ("gf2", "netgen", "quality", "gains", "scramble", "suites", "samples")


def test_package_exports_resolve():
    missing = [name for name in netgains.__all__ if not hasattr(netgains, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    # import_module, since the package attribute ``scramble`` is the function
    mod = importlib.import_module(f"netgains.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def test_names_the_benchmark_reaches_outside_all():
    from netgains import cli, suites
    from netgains.netgen import GeneratorSet

    assert callable(GeneratorSet.row)  # wrapped to count row reads
    assert "min_m" in inspect.signature(suites.sweep_records).parameters
    assert set(cli._COMMANDS) == {"gen", "analyze", "gains", "scramble", "integrate", "verify"}
    assert callable(cli.main)


def test_from_scratch_references_live_in_the_tests():
    import gf2_reference

    moved = {"RowReduction", "row_reduce", "nullspace_of_rows", "nullspace_basis", "assemble_cuk"}
    for mod in (netgains, *(importlib.import_module(f"netgains.{name}") for name in MODULES)):
        assert not moved & set(vars(mod)), mod.__name__
    assert all(callable(getattr(gf2_reference, name)) for name in moved)


def test_test_only_oracles_live_in_the_tests():
    import oracles
    from netgains import quality

    moved = {"minimal_counting_t", "microstructure_A", "microstructure_AK", "_ceil_log2", "t_d", "gain_bounds"}
    for mod in (netgains, *(importlib.import_module(f"netgains.{name}") for name in MODULES)):
        assert not moved & set(vars(mod)), mod.__name__
        assert not moved & set(getattr(mod, "__all__", ())), mod.__name__
    assert all(callable(getattr(oracles, name)) for name in moved | {"haar_at_reals", "_cell_counts"})
    assert not callable(netgains.HaarIntegrand((1,), (0,)))
    assert not {"lo", "hi"} & set(inspect.signature(quality.compositions).parameters)
    assert "_PACK_LIMIT" not in vars(quality)


def test_names_nothing_calls_are_deleted():
    from netgains.gains import GainValue
    from netgains.gf2 import BitMatrix, PivotTable
    from netgains.netgen import NetPoints, SubsetIndex
    from netgains.scramble import HaarIntegrand
    from netgains.suites import NetRecord, SuiteResult

    # the point writers live in cli, its only caller, beside one rows-per-block constant;
    # _ReplicateSeeds hashes every replicate seed, and _match_depth gives identical values m + 2
    # the sweep walks all coordinates at once and cuts all-coordinate slabs (_slab_cells)
    gone = {"BitVector", "rank", "rank_of_rows", "bounded_vectors", "_bounds", "write_points_csv",
            "write_points_binary", "_JSON_ROWS", "replicate_seed", "DEPTH_INF", "_slab"}
    for mod in (netgains, *(importlib.import_module(f"netgains.{name}") for name in (*MODULES, "cli"))):
        assert not gone & set(vars(mod)), mod.__name__
        assert not gone & set(getattr(mod, "__all__", ())), mod.__name__
    assert not {"from_strings", "empty", "entry"} & set(vars(BitMatrix))
    assert "fractions" not in vars(NetPoints)
    assert inspect.signature(PivotTable).parameters["ncols"].default is inspect.Parameter.empty
    # a gain is zero iff its log2 is None; the oracles agree iff the power-of-two suite passes;
    # a suite passes iff it has no failures
    assert "is_zero" not in vars(GainValue)
    assert "oracles_agree" not in vars(NetRecord)
    assert isinstance(vars(SuiteResult)["passed"], property)
    assert "passed" not in {f.name for f in dataclasses.fields(SuiteResult)}
    # main maps ValueError and OSError to exits 2 and 1; nothing orders gains; every
    # Haar wave has amplitude 1
    assert "CliError" not in vars(importlib.import_module("netgains.cli"))
    assert "_as_lines" not in vars(importlib.import_module("netgains.netgen"))
    assert not {"__lt__", "_key"} & set(vars(GainValue))
    assert "amplitude" not in {f.name for f in dataclasses.fields(HaarIntegrand)}
    # gains reads quality's one T_SEARCH_LIMIT; cli opens files, not a generator of them;
    # a Haar wave is indexed, and checked, as a gain is
    assert "T_SEARCH_LIMIT" not in vars(importlib.import_module("netgains.gains"))
    assert "contextmanager" not in vars(importlib.import_module("netgains.cli"))
    assert issubclass(HaarIntegrand, SubsetIndex)


def test_both_walks_share_one_box_and_one_check():
    # the rank and nullspace routes are one StackWalk, on a PivotTable or a NullTable
    from netgains import gains, netgen, quality

    assert not {"_check_walk", "_cut_level", "_Box"} & set(vars(netgen))
    assert not {"KernelWalk", "_restrict"} & (set(vars(gains)) | set(gains.__all__))
    assert "_checked_subset" not in vars(quality)
    assert not hasattr(netgen.GeneratorSet, "validate_index")
    params = inspect.signature(netgen.StackWalk).parameters
    assert "cap" not in params and params["table"].default is None
    assert netgen.StackWalk.__bases__ == (object,) and "cut" in vars(netgen.StackWalk)
    shift = netgains.shift_net()
    assert isinstance(netgen.StackWalk(shift, (1,), (0,), 1).table, netgains.gf2.PivotTable)
    assert isinstance(netgen.StackWalk(shift, (1,), (0,), 1, gains.NullTable(4)).table, gains.NullTable)
