"""The benchmark's cli-pipeline pass at its smoke size.

The pass runs ``generate``, ``fit`` and ``eval`` through
``jointmotion.cli.main`` and reads the files they write the way the
benchmark does (``SceneTruth.from_dict``, ``load_scene``,
``save_modes``), so a change to the JSON files or their decoders that
would fail a benchmark run fails here first.
"""


def test_cli_pipeline_smoke_pass_succeeds(workloads, tmp_path):
    ops = workloads.Ops()
    result = workloads.cli_pipeline(workloads.SIZES["smoke"]["cli-pipeline"], 0, ops, tmp_path / "w")
    assert ops.failed == 0, ops.failures
    assert ops.attempted > 0
    assert result["joint_ade_m"] > 0.0
