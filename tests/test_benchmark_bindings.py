"""The traced benchmark run can bind every library name it wraps.

``perfbench/layers.py`` wraps jointmotion callables by module and name.
A library change that drops or moves one of them would fail the whole
traced run, so install and remove the wrappers here.
"""

import sys
from pathlib import Path

import jointmotion.fit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrapped_name_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing under perfbench/
    before = set(sys.modules)
    original = jointmotion.fit.relevance_forward_cached
    try:
        import layers
        import tracer

        spans = tracer.Tracer()
        try:
            layers.install(spans)
            assert jointmotion.fit.relevance_forward_cached is not original
        finally:
            spans.unwrap_all()
        assert jointmotion.fit.relevance_forward_cached is original
    finally:
        # the benchmark's top-level modules (layers, spec, tracer, workloads)
        for name in set(sys.modules) - before:
            if (getattr(sys.modules[name], "__file__", None) or "").startswith(str(PERFBENCH)):
                del sys.modules[name]
