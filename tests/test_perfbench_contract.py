"""The benchmark's traced mode wraps package functions by name; a renamed
or deleted one would only show when the benchmark runs with tracing."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_package_callable():
    tracing = _load_tracing()
    missing = [
        f"{module}.{function}"
        for module, function, _ in tracing.LAYERS
        if not callable(getattr(importlib.import_module(f"ckngb.{module}"), function, None))
    ]
    assert tracing.LAYERS and missing == []
