"""The benchmark's large-scene pass at a scenario seed whose fit used to fail.

With the tanh pair map the direct-rho fit at scenario seed 303000 turned
the correlation matrix indefinite at iteration 183 and failed after delta
escalation, so a benchmark run reaching that seed reported
``correct: false``. The pass runs here at its full size (about 1.5 s).
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
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


def test_large_scene_pass_at_seed_303000_succeeds(workloads, tmp_path):
    ops = workloads.Ops()
    result = workloads.large_scene(workloads.SIZES["full"]["large-scene"], 303000, ops, tmp_path)
    assert ops.failed == 0, ops.failures
    assert ops.attempted == 2
    assert result["fit_s"] > 0.0
