"""The benchmark's tracer wraps package functions by name; check that every
name it wraps still exists, without importing the benchmark as a package."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attribute, *_ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"qkd_mismatch.{module}"), attribute)), (module, attribute)
