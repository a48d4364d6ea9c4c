"""The traced benchmark rebinds functions by name; every name must exist."""
import importlib.util
from pathlib import Path

import hyperdecide as hd

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{name}: {module}.{attr}"
               for name, bindings in tracing.BINDINGS.items()
               for module, attr in bindings
               if not callable(getattr(getattr(hd, module, None), attr, None))]
    assert not missing
