"""The benchmark's traced run looks up layer functions by name; every name it
wraps must stay a public attribute of its `asphere` module."""

import importlib
import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    missing = [
        f"asphere.{module}.{func}"
        for module, func, _, _ in trace.WRAPPED
        if not callable(getattr(importlib.import_module(f"asphere.{module}"), func, None))
    ]
    assert trace.WRAPPED and not missing, missing
