"""The public names, and the few names the benchmark reaches outside them."""

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


def test_names_nothing_calls_are_deleted():
    from netgains.gf2 import BitMatrix, PivotTable
    from netgains.netgen import NetPoints

    gone = {"BitVector", "rank", "rank_of_rows", "bounded_vectors"}
    for mod in (netgains, *(importlib.import_module(f"netgains.{name}") for name in MODULES)):
        assert not gone & set(vars(mod)), mod.__name__
        assert not gone & set(getattr(mod, "__all__", ())), mod.__name__
    assert not {"from_strings", "empty", "entry"} & set(vars(BitMatrix))
    assert "fractions" not in vars(NetPoints)
    assert inspect.signature(PivotTable).parameters["ncols"].default is inspect.Parameter.empty
