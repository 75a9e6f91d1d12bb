"""The names the benchmark's per-layer tracer wraps exist in the package.

bench/layers.py replaces module attributes of vczsim by name, and its
`Tracer.install` fails on the first name that no longer exists, so a rename
under src/ would break `bench/run.py --trace 1` without any test noticing.
The benchmark's file is read from disk, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CALL_SITES = _load_layers().CALL_SITES


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for module, attr, _ in CALL_SITES], ids=lambda v: v
)
def test_call_site_resolves(module, attr):
    mod = importlib.import_module(f"vczsim.{module}")
    assert callable(getattr(mod, attr, None)), f"vczsim.{module}.{attr} is gone"


def test_recorder_add_resolves():
    from vczsim import simulator

    assert callable(getattr(simulator._Recorder, "add", None))
