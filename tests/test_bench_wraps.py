"""The benchmark's tracer wraps names inside the package; a name that is
renamed or deleted would only show when the benchmark runs. This imports
``bench/layers.py`` without writing bytecode next to it and checks that every
wrapped name is still there and callable."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_wrapped_name_is_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        layers = importlib.import_module("layers")
        missing = [(module.__name__, attr) for module, attr, _ in layers.WRAPS
                   if not callable(getattr(module, attr, None))]
        assert layers.WRAPS and missing == []
    finally:
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)
