"""Every function the benchmark's layer tracer times must exist in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


NAMES = _tracing().NAMES


def test_layers_are_listed():
    assert len(NAMES) > 20


@pytest.mark.parametrize("name", NAMES)
def test_layer_name_resolves(name):
    """``layer.fn`` is a module function, ``layer.Class.attr`` a class attribute."""
    layer, _, qual = name.partition(".")
    owner = importlib.import_module(f"twomode.{layer}")
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert attr in vars(owner), name
    assert callable(vars(owner)[attr]), name
