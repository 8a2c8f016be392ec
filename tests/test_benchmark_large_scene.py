"""The benchmark's large-scene pass at a scenario seed whose fit used to fail.

With the tanh pair map the direct-rho fit at scenario seed 303000 turned
the correlation matrix indefinite at iteration 183 and failed after delta
escalation, so a benchmark run reaching that seed reported
``correct: false``. The pass runs here at its full size (about 1.5 s).
"""


def test_large_scene_pass_at_seed_303000_succeeds(workloads, tmp_path):
    ops = workloads.Ops()
    result = workloads.large_scene(workloads.SIZES["full"]["large-scene"], 303000, ops, tmp_path)
    assert ops.failed == 0, ops.failures
    assert ops.attempted == 2
    assert result["fit_s"] > 0.0
