"""The names the benchmark's traced run patches must keep resolving.

perfbench/layers.py wraps package functions by module and attribute name;
a rename breaks only a traced benchmark run, so it is checked here too.
The benchmark files are imported, never modified.
"""
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_patched_name_resolves_to_a_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    entries = layers.SPANNED + layers.COUNTED
    assert entries
    for name, module, attr in entries:
        owner, leaf = layers._resolve(module, attr)
        assert callable(getattr(owner, leaf, None)), f"{name}: {module}.{attr} is not callable"
