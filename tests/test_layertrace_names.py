"""The benchmark's traced passes count calls by name: every name that
``perfbench/layertrace.py`` counts must stay a public hermlp callable, or
``Tracer.install`` raises and only the traced benchmark breaks.  The module
is loaded from its path and only read: nothing is installed or wrapped."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("_layertrace_names",
                                                  LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LT = _layertrace()


@pytest.mark.parametrize("key", sorted(LT.COUNTERS))
def test_counted_name_is_a_public_hermlp_callable(key):
    layer, *path = key.split(".")
    assert layer in LT.LAYERS
    module = importlib.import_module(f"hermlp.{layer}")
    owner = getattr(module, path[0])
    assert not path[0].startswith("_")
    # install() wraps only what the layer module itself defines
    assert owner.__module__ == module.__name__
    if len(path) == 1:
        assert inspect.isfunction(owner)
    else:
        (method,) = path[1:]
        assert inspect.isclass(owner)
        assert method == "__call__" or not method.startswith("_")
        assert inspect.isfunction(vars(owner)[method])
