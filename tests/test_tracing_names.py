"""The benchmark tracer patches library functions by name; every name it
lists must exist, so that a rename fails here rather than in a benchmark run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, attr",
                         [entry[:2] for entry in tracing.SPANNED + tracing.COUNTED])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"permlat.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_moebius_names_are_the_defining_objects():
    # the tracer patches permlat.moebius's objects wherever they are held;
    # a wrapper there would leave the calls that lattice and bounds make to
    # the defining objects untraced
    import permlat.bounds
    import permlat.lattice
    import permlat.moebius

    assert permlat.moebius.moebius_table is permlat.lattice.moebius_table
    assert permlat.moebius.MoebiusTable is permlat.lattice.MoebiusTable
    assert (permlat.moebius.mu_matching_bound_check
            is permlat.bounds.mu_matching_bound_check)
