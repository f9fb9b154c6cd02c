"""The benchmark's tracer rebinds rotke functions by name, so every name it
traces must stay resolvable, also those the sweep no longer calls."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    assert tracing.TRACED
    for module_name, attr, _hook in tracing.TRACED:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"perfbench traces {module_name}.{attr}, which rotke no longer has"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"
