"""The traced benchmark (bench/tracing.py) wraps layer functions at the
module attributes their callers look them up by, and silently skips a
name that no longer resolves. These tests keep every such name alive, so
a rename cannot drop per-layer metrics unnoticed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
WRAPPED = sorted({(module, attr) for module, attr, _ in _tracing.SPANS + _tracing.CALLS}
                 | {("lamping.terms", "beta_step")})


@pytest.mark.parametrize("module,attr", WRAPPED)
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
