"""Test-session setup shared by every test module."""

import os
import sys
from pathlib import Path

import pytest

# One BLAS thread: unpinned OpenBLAS stalls on small matrices whenever
# another process keeps a core busy, and the acceptance tests have
# wall-clock bounds. Set before any test module imports numpy or scipy;
# the golden digests are the same pinned and unpinned.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's ``perfbench/workloads.py``, imported for one test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing under perfbench/
    before = set(sys.modules)
    try:
        import workloads

        yield workloads
    finally:
        for name in set(sys.modules) - before:
            if (getattr(sys.modules[name], "__file__", None) or "").startswith(str(PERFBENCH)):
                del sys.modules[name]
