"""The benchmark tracer (bench/tracer.py) replaces byzfed module globals
by name; if one of them disappears, every traced benchmark call fails.
This guard reads the tracer's target lists without installing it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
TARGETS = sorted({(m, attr) for m, attr, *_ in _tracer.SPANNED + _tracer.COUNTED})


@pytest.mark.parametrize("module_name, attr", TARGETS)
def test_tracer_target_exists_and_is_callable(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"
