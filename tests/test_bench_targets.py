"""The benchmark's per-layer metrics wrap the program functions listed in
``bench/traced.py``; a refactor that removes one silently zeroes a metric."""

import importlib
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_traced_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    traced = importlib.import_module("traced")
    missing = []
    for modname, path in traced.TARGETS:
        owner = importlib.import_module("wignerlab." + modname)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{modname}.{path}")
    assert not missing
