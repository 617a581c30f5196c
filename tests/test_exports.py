"""Every name the package and its modules export resolves.

The benchmark tracer (``bench/tracing.py``) looks up each name in the
``__all__`` of every module in its ``LAYERS`` with ``getattr``, so a name
left behind after its function is deleted would crash a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def tracer_layers():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


@pytest.mark.parametrize("name", ["umebkit", *(f"umebkit.{layer}" for layer in tracer_layers())])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
