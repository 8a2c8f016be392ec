"""Command-line interface: exit codes, artifacts, determinism."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jointmotion.cli
import jointmotion.fit
from jointmotion import (
    ModeSet,
    ScenarioConfig,
    generate_scenes,
    load_scene,
    min_joint_ade,
    min_joint_fde,
    save_modes,
    save_scene,
)
from jointmotion.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2))


def scenario_payload(**overrides):
    payload = {
        "pattern": "independent",
        "n_agents": 2,
        "t_obs": 2,
        "t_fut": 4,
        "target_rho": 0.0,
        "noise_sigma": 0.5,
        "seed": 3,
    }
    payload.update(overrides)
    return payload


def edit_entry(truth, field, value):
    """``truth`` with the first entry of its ``field`` table set to ``value``."""
    truth[field][0][0] = value
    return truth


def read_bytes_map(directory, skip=("run_manifest.json",)):
    return {
        p.name: p.read_bytes()
        for p in sorted(directory.iterdir())
        if p.name not in skip
    }


class TestGenerate:
    def test_writes_scene_sidecar_and_manifest(self, tmp_path):
        config = tmp_path / "config.json"
        write_json(config, scenario_payload())
        out = tmp_path / "out"
        assert main(["generate", str(config), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["run_manifest.json", "scene_000.json", "scene_000.truth.json"]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 3
        assert manifest["artifacts"] == ["scene_000.json", "scene_000.truth.json"]
        load_scene(out / "scene_000.json")  # parses and validates

    def test_non_psd_target_exits_one_with_message(self, tmp_path, capsys):
        bad = [[1.0, -0.8, 0.0], [-0.8, 1.0, 0.8], [0.0, 0.8, 1.0]]
        config = tmp_path / "config.json"
        write_json(config, scenario_payload(n_agents=3, target_rho=bad))
        assert main(["generate", str(config), "--out", str(tmp_path / "out")]) == 1
        assert "positive semidefinite" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["generate", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "override",
        [{"base_speed": True, "noise_sigma": False}, {"n_scenes": True},
         {"target_rho": [[1.0, True], [True, 1.0]]}],
    )
    def test_boolean_number_exits_one(self, tmp_path, capsys, override):
        config = tmp_path / "config.json"
        write_json(config, scenario_payload(**override))
        capsys.readouterr()
        assert main(["generate", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario config: "), err
        assert "boolean" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("t_fut", "2.5", "t_fut must be an integer"),
            ("seed", "-1", "seed must be nonnegative"),
            ("base_speed", "1e309", "base_speed must be finite"),  # parses to inf
            ("base_speed", '"2.5"', "base_speed: must be real number, not str"),
            ("curvature", "null", "curvature: must be real number, not NoneType"),
            pytest.param(
                "base_speed", "1" + "0" * 400, "base_speed: int too large to convert to float",
                id="base_speed-401-digits",
            ),
            ("target_rho", "null", "scalar target_rho must lie in [-1, 1]"),
            pytest.param(
                "target_rho", "1" + "0" * 400,
                "field 'target_rho' is not numeric: int too large to convert to float",
                id="target_rho-401-digits",
            ),
            ("target_rho", "2", "scalar target_rho must lie in [-1, 1]"),
            ("target_rho", "[[1.0]]", "target_rho matrix must be (2, 2), got (1, 1)"),
        ],
    )
    def test_bad_number_exits_one_naming_field_and_file(
        self, tmp_path, capsys, field, value, message
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(scenario_payload(**{field: "VALUE"})).replace('"VALUE"', value))
        capsys.readouterr()
        assert main(["generate", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: invalid scenario config: {config}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_malformed_config_exits_one(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{oops")
        assert main(["generate", str(config), "--out", str(tmp_path / "out")]) == 1

    def test_overflowing_simulation_prints_one_error_line(self, tmp_path):
        # run as a process: numpy's overflow warnings in the simulator
        # would reach stderr ahead of the error line
        config = tmp_path / "config.json"
        write_json(config, {"pattern": "follow", "n_agents": 2, "t_fut": 3, "base_speed": 1e308})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-m", "jointmotion.cli", "generate", str(config),
             "--out", str(tmp_path / "out")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("error: invalid scenario config")

    def test_rerun_is_byte_identical(self, tmp_path):
        config = tmp_path / "config.json"
        write_json(config, scenario_payload(n_scenes=3, pattern="mixed", n_agents=4, target_rho=0.6))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["generate", str(config), "--out", str(out_a)]) == 0
        assert main(["generate", str(config), "--out", str(out_b)]) == 0
        assert read_bytes_map(out_a) == read_bytes_map(out_b)

    def test_seed_override_changes_output(self, tmp_path):
        config = tmp_path / "config.json"
        write_json(config, scenario_payload())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["generate", str(config), "--out", str(out_a)]) == 0
        assert main(["generate", str(config), "--out", str(out_b), "--seed", "99"]) == 0
        assert read_bytes_map(out_a) != read_bytes_map(out_b)


def make_dataset_dir(tmp_path, n_scenes=400, target=0.8, seed=7):
    config = tmp_path / "scenario.json"
    write_json(
        config,
        {
            "pattern": "follow",
            "n_agents": 2,
            "t_obs": 2,
            "t_fut": 3,
            "target_rho": target,
            "noise_sigma": 0.5,
            "seed": seed,
            "n_scenes": n_scenes,
        },
    )
    dataset = tmp_path / "dataset"
    assert main(["generate", str(config), "--out", str(dataset)]) == 0
    return dataset


class TestFit:
    def test_recovers_follower_correlation(self, tmp_path):
        dataset = make_dataset_dir(tmp_path)
        fit_config = tmp_path / "fit.json"
        write_json(fit_config, {"max_iters": 400, "convergence_tol": 1e-10})
        out = tmp_path / "fit_out"
        assert main(["fit", str(dataset), str(fit_config), "--out", str(out)]) == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert not report["failure_flag"]
        rho = np.asarray(report["recovered_rho"])
        assert np.all(np.abs(rho[:, 0, 1] - 0.8) < 0.1)
        trace_rows = (out / "nll_trace.csv").read_text().splitlines()
        assert trace_rows[0] == "iteration,nll"
        assert len(trace_rows) == report["iterations_run"] + 1
        recovered = json.loads((out / "recovered_rho.json").read_text())
        np.testing.assert_allclose(recovered["rho"], report["recovered_rho"])

    @pytest.mark.parametrize(
        "fit_config, delta, code, stop_reason, line",
        [
            (
                {"max_iters": 20},
                "1e-4",
                0,
                "max_iters",
                "fit stopped at max_iters (20 iterations) without converging, final NLL ",
            ),
            (
                {"convergence_tol": 1e-3},
                "1e-4",
                0,
                "convergence_tol",
                "fit converged in 25 iterations (objective change below convergence_tol), "
                "final NLL ",
            ),
            ({"max_iters": 20}, "0", 3, "failure", ""),
        ],
        ids=["iteration-cap", "tolerance", "failure"],
    )
    def test_report_and_stdout_state_why_the_fit_stopped(
        self, tmp_path, capsys, fit_config, delta, code, stop_reason, line
    ):
        dataset = make_dataset_dir(tmp_path, n_scenes=5)
        config = tmp_path / "fit.json"
        write_json(config, fit_config)
        out = tmp_path / "fit_out"
        capsys.readouterr()
        assert main(["fit", str(dataset), str(config), "--out", str(out), "--delta-reg", delta]) == code
        assert json.loads((out / "fit_report.json").read_text())["stop_reason"] == stop_reason
        stdout = capsys.readouterr().out
        assert stdout.startswith(line) and len(stdout.splitlines()) == (1 if line else 0)

    def test_zero_delta_exits_three_with_report(self, tmp_path, capsys):
        dataset = make_dataset_dir(tmp_path, n_scenes=20)
        fit_config = tmp_path / "fit.json"
        write_json(fit_config, {"max_iters": 50})
        out = tmp_path / "fit_out"
        code = main(
            ["fit", str(dataset), str(fit_config), "--out", str(out), "--delta-reg", "0"]
        )
        assert code == 3
        report = json.loads((out / "fit_report.json").read_text())
        assert report["failure_flag"]
        assert "not positive definite" in report["failure_reason"]

    def test_overflowing_coordinate_exits_one_without_traceback(self, tmp_path, capsys):
        # 1e200 is finite, so the scene loads, but the residual scatter
        # overflows; the dataset must be rejected, not crash the fit
        dataset = make_dataset_dir(tmp_path, n_scenes=20)
        scene_path = dataset / "scene_000.json"
        scene = json.loads(scene_path.read_text())
        scene["future"][0][0][0] = 1e200
        write_json(scene_path, scene)
        fit_config = tmp_path / "fit.json"
        write_json(fit_config, {"max_iters": 5})
        out = tmp_path / "fit_out"
        capsys.readouterr()
        code = main(["fit", str(dataset), str(fit_config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid dataset")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override",
        [
            '"learning_rate": Infinity',
            '"convergence_tol": NaN',
            '"delta_reg": NaN',
            '"seed": -1, "parameterization": "relevance-head"',
            '"max_iters": NaN',
            '"feature_dim": 2.5, "parameterization": "relevance-head"',
            '"max_iters": true',
            '"delta_reg": false',
        ],
    )
    def test_invalid_config_value_exits_one(self, tmp_path, capsys, override):
        dataset = make_dataset_dir(tmp_path, n_scenes=20)
        fit_config = tmp_path / "fit.json"
        fit_config.write_text("{" + override + "}")
        out = tmp_path / "fit_out"
        capsys.readouterr()
        assert main(["fit", str(dataset), str(fit_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid fit config")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_non_finite_iterate_exits_three_with_report(self, tmp_path, capsys):
        # a huge step drives the head's weights to overflow at iteration 1
        config = tmp_path / "scenario.json"
        write_json(
            config,
            scenario_payload(pattern="follow", n_agents=3, t_fut=4, seed=1, n_scenes=20),
        )
        dataset = tmp_path / "dataset"
        assert main(["generate", str(config), "--out", str(dataset)]) == 0
        fit_config = tmp_path / "fit.json"
        write_json(
            fit_config,
            {"parameterization": "relevance-head", "learning_rate": 1e300, "max_iters": 50},
        )
        out = tmp_path / "fit_out"
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["fit", str(dataset), str(fit_config), "--out", str(out)])
        assert code == 3
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads(
            (out / "fit_report.json").read_text(), parse_constant=pytest.fail
        )
        assert report["failure_flag"]
        assert report["failure_reason"].startswith("non-finite objective at iteration 1")
        assert report["delta_reg_used"] == 1e-4  # not escalated
        assert report["iterations_run"] == len(report["nll_trace"]) == 1
        assert np.all(np.isfinite(report["recovered_rho"]))
        trace_rows = (out / "nll_trace.csv").read_text().splitlines()
        assert len(trace_rows) == 2

    def test_non_finite_iterate_prints_one_error_line(self, tmp_path):
        # run as a process: numpy's overflow warnings inside the objective
        # would reach stderr ahead of the error line
        config = tmp_path / "scenario.json"
        write_json(
            config,
            scenario_payload(pattern="follow", n_agents=3, t_fut=4, seed=1, n_scenes=20),
        )
        dataset = tmp_path / "dataset"
        assert main(["generate", str(config), "--out", str(dataset)]) == 0
        fit_config = tmp_path / "fit.json"
        write_json(
            fit_config,
            {"parameterization": "relevance-head", "learning_rate": 1e300, "max_iters": 50},
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-m", "jointmotion.cli", "fit", str(dataset), str(fit_config),
             "--out", str(tmp_path / "fit_out")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 3
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("fit failed: non-finite objective at iteration 1")

    def test_non_finite_gradient_exits_three_with_report(self, tmp_path, capsys):
        # the objective stays finite at these scales; its gradient overflows
        dataset = make_dataset_dir(tmp_path, n_scenes=20)
        for sidecar in dataset.glob("*.truth.json"):
            truth = json.loads(sidecar.read_text())
            truth["sigma_delta"] = [[1e-155] * len(row) for row in truth["sigma_delta"]]
            write_json(sidecar, truth)
        fit_config = tmp_path / "fit.json"
        write_json(fit_config, {"delta_reg": 1e-300, "max_iters": 3})
        out = tmp_path / "fit_out"
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["fit", str(dataset), str(fit_config), "--out", str(out)])
        assert code == 3
        reason = "non-finite objective at iteration 0: gradient at future step 0 is not finite"
        assert capsys.readouterr().err == f"fit failed: {reason}\n"
        report = json.loads((out / "fit_report.json").read_text())
        assert report["failure_reason"] == reason
        assert report["iterations_run"] == 0

    def test_gradient_overflowing_adam_exits_three_without_warning(self, tmp_path):
        # huge speeds leave the objective and its gradient finite, but the
        # gradient's square overflows Adam's second moment; run as a process
        # that turns any numpy warning into an error
        config = tmp_path / "scenario.json"
        write_json(config, {"pattern": "follow", "n_agents": 3, "target_rho": 0.5,
                            "n_scenes": 40, "base_speed": 1e150})
        dataset = tmp_path / "dataset"
        assert main(["generate", str(config), "--out", str(dataset)]) == 0
        fit_config = tmp_path / "fit.json"
        write_json(fit_config, {"max_iters": 60})
        out = tmp_path / "fit_out"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "jointmotion.cli", "fit",
             str(dataset), str(fit_config), "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        reason = "gradient too large for the optimizer at iteration 0"
        assert (result.returncode, result.stderr) == (3, f"fit failed: {reason}\n")
        report = json.loads((out / "fit_report.json").read_text())
        assert (report["failure_reason"], report["stop_reason"]) == (reason, "failure")
        assert report["iterations_run"] == 1

    @pytest.mark.parametrize(
        "scene, edit, message",
        [
            ("scene_001", lambda truth: [1, 2], "truth JSON must be an object"),
            (
                "scene_001",
                lambda truth: {k: v for k, v in truth.items() if k != "mu_delta"},
                "missing field 'mu_delta'",
            ),
            # the first sidecar is the reference the others are compared
            # with, so its own fault must be reported against it
            (
                "scene_000",
                lambda truth: edit_entry(truth, "sigma_delta", float("inf")),
                "sigma_delta contains non-finite values",
            ),
            (
                "scene_000",
                lambda truth: edit_entry(truth, "sigma_delta", -1.0),
                "sigma_delta must be nonnegative",
            ),
            (
                "scene_000",
                lambda truth: edit_entry(truth, "mu_delta", -3.0),
                "mu_delta must be nonnegative",
            ),
        ],
        ids=["list", "no-mu-delta", "first-sigma-overflows", "first-sigma-negative",
             "first-mu-negative"],
    )
    def test_malformed_truth_sidecar_exits_one(self, tmp_path, capsys, scene, edit, message):
        dataset = make_dataset_dir(tmp_path, n_scenes=3)
        sidecar = dataset / f"{scene}.truth.json"
        # an infinity is written as 1e400, a JSON number that parses to inf
        text = json.dumps(edit(json.loads(sidecar.read_text())), indent=2)
        sidecar.write_text(text.replace("Infinity", "1e400"))
        fit_config = tmp_path / "fit.json"
        write_json(fit_config, {"max_iters": 5})
        out = tmp_path / "fit_out"
        capsys.readouterr()
        assert main(["fit", str(dataset), str(fit_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: invalid dataset: {sidecar}: {message}\n"
        assert not out.exists()

    def test_disagreeing_truth_sidecar_exits_one_naming_it(self, tmp_path, capsys):
        dataset = make_dataset_dir(tmp_path, n_scenes=3)
        sidecar = dataset / "scene_001.truth.json"
        truth = json.loads(sidecar.read_text())
        truth["rho"][0][1] = truth["rho"][1][0] = 0.5  # valid, but not the first sidecar's 0.8
        write_json(sidecar, truth)
        fit_config = tmp_path / "fit.json"
        write_json(fit_config, {"max_iters": 5})
        out = tmp_path / "fit_out"
        capsys.readouterr()
        assert main(["fit", str(dataset), str(fit_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: invalid dataset: {sidecar} disagrees with earlier ground truth\n"
        assert not out.exists()

    def test_scenes_of_two_families_exit_one(self, tmp_path, capsys):
        dataset = make_dataset_dir(tmp_path, n_scenes=3, seed=7)
        (tmp_path / "other").mkdir()
        other = make_dataset_dir(tmp_path / "other", n_scenes=1, seed=8)
        # another seed's scene, under a copy of the first scene's sidecar
        shutil.copy(other / "scene_000.json", dataset / "scene_003.json")
        shutil.copy(dataset / "scene_000.truth.json", dataset / "scene_003.truth.json")
        fit_config = tmp_path / "fit.json"
        write_json(fit_config, {"max_iters": 5})
        out = tmp_path / "fit_out"
        capsys.readouterr()
        assert main(["fit", str(dataset), str(fit_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: invalid dataset: scenes do not share one past/yaw family\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "{oops",
            '{"learning_rate": 1' + "0" * 400 + "}",  # too large for a float
            "[" * 100_000 + "]" * 100_000,  # deeper than the decoder recurses
        ],
        ids=["list", "malformed", "huge-integer", "deep"],
    )
    def test_unusable_fit_config_exits_one(self, tmp_path, capsys, text):
        dataset = make_dataset_dir(tmp_path, n_scenes=3)
        fit_config = tmp_path / "fit.json"
        fit_config.write_text(text)
        out = tmp_path / "fit_out"
        capsys.readouterr()
        assert main(["fit", str(dataset), str(fit_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid fit config")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_non_number_exits_one_naming_field_and_file(self, tmp_path, capsys):
        dataset = make_dataset_dir(tmp_path, n_scenes=3)
        fit_config = tmp_path / "fit.json"
        fit_config.write_text('{"learning_rate": "0.1"}')
        out = tmp_path / "fit_out"
        capsys.readouterr()
        assert main(["fit", str(dataset), str(fit_config), "--out", str(out)]) == 1
        message = "learning_rate: must be real number, not str"
        assert capsys.readouterr().err == f"error: invalid fit config: {fit_config}: {message}\n"
        assert not out.exists()

    def test_missing_fit_config_exits_two(self, tmp_path, capsys):
        dataset = make_dataset_dir(tmp_path, n_scenes=3)
        capsys.readouterr()
        code = main(["fit", str(dataset), str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read fit config")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("delta", ["1e-100", "1e-320"])
    def test_unresolvable_delta_exits_three_with_report(self, tmp_path, capsys, delta):
        # the lateral term swamps the objective, whose first two values
        # are then equal although the parameters moved
        config = tmp_path / "scenario.json"
        write_json(
            config,
            scenario_payload(pattern="follow", n_agents=3, t_fut=4, seed=1, n_scenes=20),
        )
        dataset = tmp_path / "dataset"
        assert main(["generate", str(config), "--out", str(dataset)]) == 0
        fit_config = tmp_path / "fit.json"
        write_json(fit_config, {})
        out = tmp_path / "fit_out"
        capsys.readouterr()
        code = main(["fit", str(dataset), str(fit_config), "--out", str(out), "--delta-reg", delta])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("fit failed: the objective does not resolve the parameters")
        assert len(err.splitlines()) == 1
        report = json.loads((out / "fit_report.json").read_text())
        assert report["failure_flag"]
        assert report["iterations_run"] == 2

    def test_empty_dataset_dir_exits_one(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        fit_config = tmp_path / "fit.json"
        write_json(fit_config, {})
        assert main(["fit", str(empty), str(fit_config), "--out", str(tmp_path / "o")]) == 1

    def test_missing_dataset_dir_exits_two(self, tmp_path):
        fit_config = tmp_path / "fit.json"
        write_json(fit_config, {})
        assert (
            main(["fit", str(tmp_path / "absent"), str(fit_config), "--out", str(tmp_path / "o")])
            == 2
        )

    def test_rerun_is_byte_identical(self, tmp_path):
        dataset = make_dataset_dir(tmp_path, n_scenes=50)
        fit_config = tmp_path / "fit.json"
        write_json(fit_config, {"max_iters": 60})
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["fit", str(dataset), str(fit_config), "--out", str(out_a)]) == 0
        assert main(["fit", str(dataset), str(fit_config), "--out", str(out_b)]) == 0
        assert read_bytes_map(out_a) == read_bytes_map(out_b)


@pytest.mark.parametrize(
    "command, config",
    [
        ("generate", {"pattern": "follow", "n_agents": 10_000_000}),
        ("fit", {"parameterization": "relevance-head", "feature_dim": 10_000_000}),
    ],
)
def test_input_too_large_for_memory_exits_one(tmp_path, capsys, command, config):
    # each asks numpy for one 728 TiB array, a request that fails at once;
    # smaller sizes may be granted lazily and then filled
    path = tmp_path / "config.json"
    write_json(path, config)
    inputs = [str(path)]
    if command == "fit":
        inputs.insert(0, str(make_dataset_dir(tmp_path, n_scenes=3)))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, *inputs, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate "), err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "shape",
    [{"n_agents": 1}, {"t_fut": 1}, {"t_obs": 1}, {"n_agents": 1, "t_fut": 1, "t_obs": 1}],
    ids=["one-agent", "one-future-step", "one-past-step", "all-three"],
)
def test_generate_fit_eval_at_degenerate_shapes(tmp_path, shape):
    payload = scenario_payload(pattern="follow", target_rho=0.5, n_scenes=2, **shape)
    n, t_fut = payload["n_agents"], payload["t_fut"]
    write_json(tmp_path / "scenario.json", payload)
    data, fit_out = tmp_path / "data", tmp_path / "fit"
    assert main(["generate", str(tmp_path / "scenario.json"), "--out", str(data)]) == 0
    assert sorted(p.name for p in data.iterdir()) == [
        "run_manifest.json",
        "scene_000.json",
        "scene_000.truth.json",
        "scene_001.json",
        "scene_001.truth.json",
    ]
    assert load_scene(data / "scene_001.json").past.shape == (n, payload["t_obs"], 2)

    write_json(tmp_path / "fit.json", {"max_iters": 10})
    assert main(["fit", str(data), str(tmp_path / "fit.json"), "--out", str(fit_out)]) == 0
    assert sorted(p.name for p in fit_out.iterdir()) == [
        "fit_report.json", "nll_trace.csv", "recovered_rho.json", "run_manifest.json"
    ]
    report = json.loads((fit_out / "fit_report.json").read_text())
    assert not report["failure_flag"]
    assert np.asarray(report["recovered_rho"]).shape == (t_fut, n, n)

    # hand-written: the scene's own future, then the same shifted by 1 m
    future = np.asarray(json.loads((data / "scene_000.json").read_text())["future"])
    write_json(tmp_path / "pred.json", {"modes": [(future + 1.0).tolist(), future.tolist()]})
    out_csv = tmp_path / "metrics" / "metrics.csv"
    assert main(["eval", str(tmp_path / "pred.json"), str(data / "scene_000.json"),
                 "--out", str(out_csv)]) == 0
    assert out_csv.read_text().splitlines() == [
        "scene_id,metric,value,argmin_mode",
        "pred,minJointADE,0.0,1",
        "pred,minJointFDE,0.0,1",
        "mean,minJointADE,0.0,",
        "mean,minJointFDE,0.0,",
    ]
    assert (out_csv.parent / "run_manifest.json").exists()


# the scenario fields scaled, at their values before scaling
SCALED = {"base_speed": 2.5, "noise_sigma": 0.5, "curvature": 0.1}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@example(exponents={"base_speed": 150, "noise_sigma": 0, "curvature": 0})
@example(exponents={"base_speed": 0, "noise_sigma": -150, "curvature": 150})
@given(exponents=st.fixed_dictionaries({name: st.integers(-150, 150) for name in SCALED}))
def test_generate_fit_eval_at_any_scale_ends_in_an_exit_code(exponents):
    # each of the three fields scaled by 10**exponent; a numpy warning fails the test
    payload = scenario_payload(pattern="follow", n_agents=3, target_rho=0.5, n_scenes=8)
    payload.update({name: value * 10.0 ** exponents[name] for name, value in SCALED.items()})
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        write_json(root / "scenario.json", payload)
        write_json(root / "fit.json", {"max_iters": 20})

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            lines = err.getvalue().splitlines()
            if code == 0:
                assert lines == []
            else:
                assert code in (1, 2, 3) and len(lines) == 1, (code, lines)
                assert lines[0].startswith(("error:", "fit failed:")), lines
            return code

        data = root / "data"
        if run(["generate", str(root / "scenario.json"), "--out", str(data)]) != 0:
            return
        fit_out = root / "fit"
        if run(["fit", str(data), str(root / "fit.json"), "--out", str(fit_out)]) == 0:
            report = json.loads((fit_out / "fit_report.json").read_text())
            stayed = np.array_equal(report["recovered_rho"], np.tile(np.eye(3), (4, 1, 1)))
            if report["stop_reason"] == "convergence_tol" and stayed:
                # a fit may stop where it started (rho = I) only on a zero gradient
                scenes, truth = generate_scenes(ScenarioConfig.from_dict(payload), 8)
                dataset = jointmotion.fit.FitDataset.from_scenes(scenes, truth)
                params = jointmotion.fit.UnitRowRhoParams.zeros(dataset.t_fut, 3)
                assert not np.any(jointmotion.fit.grad_nll(params, dataset, 1e-4)), exponents
        # modes at the origin and on the future: distances as large as the coordinates
        future = np.asarray(json.loads((data / "scene_000.json").read_text())["future"])
        write_json(root / "pred.json", {"modes": [np.zeros_like(future).tolist(), future.tolist()]})
        run(["eval", str(root / "pred.json"), str(data / "scene_000.json"),
             "--out", str(root / "metrics.csv")])


class TestEval:
    def make_pair(self, tmp_path, rng):
        scene_path = tmp_path / "scene.json"
        from jointmotion import ScenarioConfig, generate_scene

        scene, _ = generate_scene(
            ScenarioConfig(pattern="independent", n_agents=2, t_obs=2, t_fut=4, seed=5)
        )
        save_scene(scene, scene_path)
        modes = ModeSet(modes=rng.normal(0.0, 5.0, (6, 2, 4, 2)))
        pred_path = tmp_path / "pred.json"
        save_modes(modes, pred_path)
        return pred_path, scene_path, modes, scene

    def test_perfect_prediction_scores_zero(self, tmp_path):
        from jointmotion import ScenarioConfig, generate_scene

        scene, _ = generate_scene(
            ScenarioConfig(pattern="independent", n_agents=2, t_obs=2, t_fut=4, seed=6)
        )
        scene_path = tmp_path / "scene.json"
        save_scene(scene, scene_path)
        pred_path = tmp_path / "pred.json"
        save_modes(ModeSet(modes=scene.future[None]), pred_path)
        out_csv = tmp_path / "metrics.csv"
        assert main(["eval", str(pred_path), str(scene_path), "--out", str(out_csv)]) == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        values = {row["metric"]: float(row["value"]) for row in rows if row["scene_id"] == "pred"}
        assert values == {"minJointADE": 0.0, "minJointFDE": 0.0}

    def test_csv_matches_library_calls_exactly(self, tmp_path):
        rng = np.random.default_rng(9)
        pred_path, scene_path, modes, scene = self.make_pair(tmp_path, rng)
        out_csv = tmp_path / "metrics.csv"
        assert main(["eval", str(pred_path), str(scene_path), "--out", str(out_csv)]) == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        by_metric = {row["metric"]: row for row in rows if row["scene_id"] == "pred"}
        ade = min_joint_ade(modes, scene.future)
        fde = min_joint_fde(modes, scene.future)
        assert float(by_metric["minJointADE"]["value"]) == ade.value
        assert int(by_metric["minJointADE"]["argmin_mode"]) == ade.argmin_mode
        assert float(by_metric["minJointFDE"]["value"]) == fde.value
        assert int(by_metric["minJointFDE"]["argmin_mode"]) == fde.argmin_mode

    def test_directory_mode_aggregates(self, tmp_path):
        rng = np.random.default_rng(10)
        pred_dir = tmp_path / "preds"
        gt_dir = tmp_path / "gts"
        pred_dir.mkdir()
        gt_dir.mkdir()
        from jointmotion import ScenarioConfig, generate_scene

        for index in range(3):
            scene, _ = generate_scene(
                ScenarioConfig(pattern="independent", n_agents=2, t_obs=2, t_fut=3, seed=index)
            )
            save_scene(scene, gt_dir / f"scene_{index}.json")
            save_modes(
                ModeSet(modes=rng.normal(0.0, 5.0, (4, 2, 3, 2))),
                pred_dir / f"scene_{index}.json",
            )
        out_csv = tmp_path / "metrics.csv"
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out_csv)]) == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        scene_rows = [r for r in rows if r["scene_id"] != "mean"]
        mean_rows = [r for r in rows if r["scene_id"] == "mean"]
        assert len(scene_rows) == 6 and len(mean_rows) == 2
        ade_values = [float(r["value"]) for r in scene_rows if r["metric"] == "minJointADE"]
        mean_ade = next(float(r["value"]) for r in mean_rows if r["metric"] == "minJointADE")
        assert mean_ade == float(np.mean(ade_values))

    def test_missing_file_exits_two(self, tmp_path):
        assert (
            main(
                ["eval", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--out", str(tmp_path / "c.csv")]
            )
            == 2
        )

    def test_missing_ground_truth_in_directory_exits_two(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        pred_dir = tmp_path / "preds"
        gt_dir = tmp_path / "gts"
        pred_dir.mkdir()
        gt_dir.mkdir()
        save_modes(ModeSet(modes=rng.normal(0.0, 5.0, (2, 2, 3, 2))), pred_dir / "scene_0.json")
        capsys.readouterr()
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(tmp_path / "m.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read evaluation input")
        assert len(err.splitlines()) == 1

    def test_directory_mode_names_the_mismatched_pair(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        pred_dir = tmp_path / "preds"
        gt_dir = tmp_path / "gts"
        pred_dir.mkdir()
        gt_dir.mkdir()
        from jointmotion import ScenarioConfig, generate_scene

        for index in range(3):
            scene, _ = generate_scene(
                ScenarioConfig(pattern="independent", n_agents=2, t_obs=2, t_fut=3, seed=index)
            )
            save_scene(scene, gt_dir / f"scene_{index}.json")
            n_agents = 3 if index == 1 else 2
            save_modes(
                ModeSet(modes=rng.normal(0.0, 5.0, (4, n_agents, 3, 2))),
                pred_dir / f"scene_{index}.json",
            )
        out_csv = tmp_path / "metrics.csv"
        capsys.readouterr()
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out_csv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid evaluation input: scene_1.json: ground truth shape")
        assert len(err.splitlines()) == 1
        assert not out_csv.exists()

    def test_shape_mismatch_exits_one(self, tmp_path):
        rng = np.random.default_rng(11)
        pred_path, scene_path, _, _ = self.make_pair(tmp_path, rng)
        bad_pred = tmp_path / "bad.json"
        save_modes(ModeSet(modes=rng.normal(0.0, 5.0, (2, 3, 4, 2))), bad_pred)
        assert main(["eval", str(bad_pred), str(scene_path), "--out", str(tmp_path / "m.csv")]) == 1

    def test_overflowing_mode_exits_one_without_csv(self, tmp_path):
        # run as a process: numpy's overflow warnings would reach stderr
        config = tmp_path / "config.json"
        write_json(config, scenario_payload(n_agents=3, t_fut=3))
        gen = tmp_path / "gen"
        assert main(["generate", str(config), "--out", str(gen)]) == 0
        pred = tmp_path / "pred.json"
        huge = np.stack([np.full((3, 3, 2), 1e308), np.full((3, 3, 2), -1e308)])
        save_modes(ModeSet(modes=huge), pred)
        out_csv = tmp_path / "eval" / "metrics.csv"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-m", "jointmotion.cli", "eval", str(pred),
             str(gen / "scene_000.json"), "--out", str(out_csv)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("error: invalid evaluation input: ")
        assert not out_csv.exists()

    def test_csv_uses_lf_line_endings(self, tmp_path):
        rng = np.random.default_rng(12)
        pred_path, scene_path, _, _ = self.make_pair(tmp_path, rng)
        out_csv = tmp_path / "metrics.csv"
        assert main(["eval", str(pred_path), str(scene_path), "--out", str(out_csv)]) == 0
        raw = out_csv.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"scene_id,metric,value,argmin_mode\n")

    @pytest.mark.parametrize("directory", ["pred", "gt"])
    def test_file_against_directory_exits_one(self, tmp_path, capsys, directory):
        pred_path, scene_path, _, _ = self.make_pair(tmp_path, np.random.default_rng(15))
        paths = {"pred": pred_path, "gt": scene_path}
        paths[directory] = tmp_path / "dir"
        paths[directory].mkdir()
        out_csv = tmp_path / "m.csv"
        capsys.readouterr()
        assert main(["eval", str(paths["pred"]), str(paths["gt"]), "--out", str(out_csv)]) == 1
        assert capsys.readouterr().err == (
            "error: invalid evaluation input: "
            "prediction and ground-truth paths must both be files or both dirs\n"
        )
        assert not out_csv.exists()

    def test_empty_prediction_directory_exits_one(self, tmp_path, capsys):
        pred_dir, gt_dir = tmp_path / "preds", tmp_path / "gts"
        pred_dir.mkdir()
        gt_dir.mkdir()
        (pred_dir / "notes.txt").write_text("not a prediction")
        out_csv = tmp_path / "m.csv"
        capsys.readouterr()
        assert main(["eval", str(pred_dir), str(gt_dir), "--out", str(out_csv)]) == 1
        assert capsys.readouterr().err == (
            f"error: invalid evaluation input: no prediction files in {pred_dir}\n"
        )
        assert not out_csv.exists()


class TestUnwritableOutput:
    """An ``--out`` below a regular file cannot be created: each command
    that writes exits 2 with one ``error: cannot write ...`` line."""

    def argv(self, tmp_path, command, out):
        if command == "generate":
            config = tmp_path / "scenario.json"
            write_json(config, scenario_payload())
            return ["generate", str(config), "--out", str(out)]
        if command == "fit":
            fit_config = tmp_path / "fit.json"
            write_json(fit_config, {"max_iters": 3})
            return ["fit", str(make_dataset_dir(tmp_path, n_scenes=5)), str(fit_config), "--out", str(out)]
        pred_path, scene_path, _, _ = TestEval().make_pair(tmp_path, np.random.default_rng(16))
        return ["eval", str(pred_path), str(scene_path), "--out", str(out)]

    @pytest.mark.parametrize(
        "command, what, out",
        [
            ("generate", "outputs", "gen"),
            ("fit", "outputs", "fit_out"),
            ("eval", "CSV", "metrics.csv"),
            ("eval", "CSV", "sub/metrics.csv"),
        ],
    )
    def test_out_below_a_regular_file_exits_two(self, tmp_path, capsys, command, what, out):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file")
        argv = self.argv(tmp_path, command, blocker / out)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {what}: ")
        assert str(blocker) in err
        assert len(err.splitlines()) == 1
        assert blocker.read_text() == "a regular file"


def drop(field):
    return lambda path: write_json(
        path, {k: v for k, v in json.loads(path.read_text()).items() if k != field}
    )


class TestDecodeErrorsNameTheirFile:
    """Each bad input file is named once in the one error line, and the
    exit code is unchanged: 1 for a malformed file, 2 for a missing one."""

    @pytest.mark.parametrize(
        "target, edit, code",
        [
            ("scene_001.json", drop("yaw"), 1),
            ("scene_001.json", lambda path: path.write_text("{oops"), 1),
            ("scene_001.json", lambda path: path.write_text(
                json.dumps({**json.loads(path.read_text()), "n": float("nan")})), 1),
            ("scene_001.truth.json", drop("rho"), 1),
            ("scene_001.truth.json", lambda path: path.unlink(), 2),
            ("fit.json", lambda path: write_json(path, {"moomentum": 0.9}), 1),
            ("fit.json", lambda path: write_json(path, [1]), 1),
            ("pred.json", drop("modes"), 1),
            ("pred.json", lambda path: write_json(path, {"modes": [[["x"]]]}), 1),
            ("pred.json", lambda path: write_json(path, {"modes": [[[["0.5", True]]]]}), 1),
            # as a number, true would be the diagonal's 1.0
            ("scene_001.truth.json", lambda path: write_json(
                path, edit_entry(json.loads(path.read_text()), "rho", True)), 1),
            ("gt.json", lambda path: write_json(path, []), 1),
        ],
        ids=[
            "scene-field", "scene-syntax", "scene-nan", "truth-field", "truth-missing",
            "fit-config-unknown", "fit-config-list", "modes-field", "modes-text",
            "modes-string-entry", "truth-boolean-entry", "gt-list",
        ],
    )
    def test_fit_and_eval(self, tmp_path, capsys, target, edit, code):
        dataset = make_dataset_dir(tmp_path, n_scenes=3)
        write_json(tmp_path / "fit.json", {"max_iters": 5})
        save_modes(ModeSet(modes=np.zeros((2, 2, 3, 2))), tmp_path / "pred.json")
        shutil.copy(dataset / "scene_000.json", tmp_path / "gt.json")
        path = (dataset if target.startswith("scene") else tmp_path) / target
        edit(path)
        if target in ("pred.json", "gt.json"):
            argv = ["eval", str(tmp_path / "pred.json"), str(tmp_path / "gt.json")]
        else:
            argv = ["fit", str(dataset), str(tmp_path / "fit.json")]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: ")
        assert err.count(str(path)) == 1, err

    @pytest.mark.parametrize(
        "target, what",
        [
            ("scenario.json", "scenario config"),
            ("scene_001.json", "dataset"),
            ("scene_001.truth.json", "dataset"),
            ("fit.json", "fit config"),
            ("pred.json", "evaluation input"),
            ("gt.json", "evaluation input"),
        ],
    )
    def test_non_utf8_file(self, tmp_path, capsys, target, what):
        dataset = make_dataset_dir(tmp_path, n_scenes=3)
        write_json(tmp_path / "scenario.json", scenario_payload())
        write_json(tmp_path / "fit.json", {"max_iters": 5})
        save_modes(ModeSet(modes=np.zeros((2, 2, 3, 2))), tmp_path / "pred.json")
        shutil.copy(dataset / "scene_000.json", tmp_path / "gt.json")
        path = (dataset if target.startswith("scene_") else tmp_path) / target
        path.write_bytes(b"\xff" + path.read_bytes())
        out = ["--out", str(tmp_path / "out")]
        if target == "scenario.json":
            argv = ["generate", str(path)] + out
        elif target in ("pred.json", "gt.json"):
            argv = ["eval", str(tmp_path / "pred.json"), str(tmp_path / "gt.json")] + out
        else:
            argv = ["fit", str(dataset), str(tmp_path / "fit.json")] + out
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: invalid {what}: {path}: 'utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte\n"
        )

    @pytest.mark.parametrize(
        "payload", [{"n_agents": 2}, {"pattern": "follow", "n_agents": 2, "colour": 1}, "x"]
    )
    def test_generate(self, tmp_path, capsys, payload):
        config = tmp_path / "config.json"
        write_json(config, payload)
        capsys.readouterr()
        assert main(["generate", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario config: ")
        assert err.count(str(config)) == 1, err


class TestGradcheck:
    def test_default_sizes_pass(self, tmp_path, capsys):
        assert main(["gradcheck", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "max relative gradient error" in out
        assert (tmp_path / "run_manifest.json").exists()

    def test_injected_bug_detected(self, tmp_path, monkeypatch):
        exact = jointmotion.fit.grad_nll

        def buggy(params, dataset, delta_reg):
            grad = exact(params, dataset, delta_reg)
            grad[:1] += 1e-3 * (1.0 + np.abs(grad[:1]))
            return grad

        monkeypatch.setattr(jointmotion.fit, "grad_nll", buggy)
        assert main(["gradcheck", "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize(
        "args",
        [
            "--n-agents 0",
            "--t-fut 0",
            "--n-futures 0",
            "--step 0",
            "--step nan",
            "--delta-reg 0",
            "--delta-reg nan",
            "--seed -1",
        ],
    )
    def test_invalid_input_exits_one(self, tmp_path, capsys, args):
        capsys.readouterr()
        assert main(["gradcheck", "--out", str(tmp_path)] + args.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "run_manifest.json").exists()

    @pytest.mark.parametrize(
        "args",
        [
            "--delta-reg 1e-300 --step 1000",  # a probe is not positive definite
            "--step 1.7e308",  # a probe overflows the head
        ],
    )
    def test_undefined_objective_at_probe_exits_four(self, tmp_path, capsys, args):
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["gradcheck", "--out", str(tmp_path)] + args.split()) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "error, code",
        [
            (1e-5, 4),  # the threshold itself fails
            (np.nextafter(1e-5, 0.0), 0),  # the float below it passes
        ],
        ids=["at-threshold", "just-below"],
    )
    def test_threshold_boundary(self, tmp_path, monkeypatch, error, code):
        monkeypatch.setattr(jointmotion.cli, "gradient_check", lambda *args: error)
        assert main(["gradcheck", "--out", str(tmp_path)]) == code

    def test_single_agent_degenerate_path(self, tmp_path):
        assert main(["gradcheck", "--out", str(tmp_path), "--n-agents", "1"]) == 0


def _node_paths(payload, path=()):
    """Key paths to every node of a JSON document, the root first."""
    yield path
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from _node_paths(value, path + (key,))
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            yield from _node_paths(value, path + (index,))


def _replaced(payload, path, value):
    if not path:
        return value
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return payload


@pytest.fixture(scope="module")
def small_family(tmp_path_factory):
    """Three 2-agent, 2-step scenes with sidecars, a fit config and a mode file."""
    root = tmp_path_factory.mktemp("family")
    scenario = root / "scenario.json"
    write_json(scenario, scenario_payload(pattern="follow", target_rho=0.5, t_fut=2, n_scenes=3))
    assert main(["generate", str(scenario), "--out", str(root / "dataset")]) == 0
    write_json(root / "fit.json", {"max_iters": 5, "learning_rate": 0.05, "delta_reg": 1e-4})
    save_modes(ModeSet(modes=np.zeros((2, 2, 2, 2))), root / "pred.json")
    return root


class TestInputBoundary:
    """Any node of an input file replaced by any JSON value ends in an exit
    code and at most one error line; a number replaced by a string or a
    boolean is an invalid input for every command that reads the file."""

    # the commands that read each target
    READERS = {
        "dataset/scene_000.json": ("fit", "eval"),
        "dataset/scene_001.truth.json": ("fit",),
        "fit.json": ("fit",),
        "pred.json": ("eval",),
    }

    # eval reports a mode too large to subtract as an inf distance
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @example(target="dataset/scene_001.truth.json", node=0, value=[1, 2])
    # a scene's agent count, a truth diagonal entry, a fit config number, a mode entry
    @example(target="dataset/scene_000.json", node=1, value=True)
    @example(target="dataset/scene_001.truth.json", node=3, value=True)
    @example(target="fit.json", node=1, value=True)
    @example(target="pred.json", node=5, value="0.5")
    @given(
        target=st.sampled_from(sorted(READERS)),
        node=st.integers(0, 2**16),
        value=st.sampled_from(
            [None, "", "x", "0.5", [], [1, 2], {}, {"a": 1}, True, False,
             1e308, -1e308, -1, -0.5, 10**400]
        ),
    )
    def test_any_replaced_node_ends_in_an_exit_code(self, small_family, target, node, value):
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch) / "family"
            shutil.copytree(small_family, root)
            path = root / target
            payload = json.loads(path.read_text())
            paths = list(_node_paths(payload))
            node_path = paths[node % len(paths)]
            original = payload
            for key in node_path:
                original = original[key]
            invalid = type(original) in (int, float) and type(value) in (str, bool)
            path.write_text(json.dumps(_replaced(payload, node_path, value)))
            commands = {
                "fit": ["fit", str(root / "dataset"), str(root / "fit.json"),
                        "--out", str(root / "fit")],
                "eval": ["eval", str(root / "pred.json"), str(root / "dataset" / "scene_000.json"),
                         "--out", str(root / "metrics.csv")],
            }
            for command, argv in commands.items():
                err = io.StringIO()
                with redirect_stderr(err), redirect_stdout(io.StringIO()):
                    code = main(argv)
                assert code in (0, 1, 2, 3)
                if invalid and command in self.READERS[target]:
                    assert code == 1, err.getvalue()
                lines = err.getvalue().splitlines()
                assert len(lines) <= 1, lines
                assert all(line.startswith(("error:", "fit failed:")) for line in lines)


class TestDegenerateDirectories:
    """Scene, sidecar and prediction directories with files missing or
    unmatched end in the documented exit code with one ``error:`` line:
    1 for a directory with no scene or prediction files, 2 for a scene
    without its truth sidecar or a prediction without its scene."""

    @settings(max_examples=60, deadline=None)
    @example(scenes=set(), sidecars={0, 1, 2}, predictions=set())
    @example(scenes={0, 1, 2}, sidecars={0, 2}, predictions={0, 1, 2, 3})
    @given(
        scenes=st.sets(st.integers(0, 2)),
        sidecars=st.sets(st.integers(0, 2)),
        predictions=st.sets(st.integers(0, 4)),
    )
    def test_missing_and_unmatched_files(self, small_family, scenes, sidecars, predictions):
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch) / "family"
            shutil.copytree(small_family, root)
            dataset, preds = root / "dataset", root / "preds"
            for index in range(3):
                if index not in scenes:
                    (dataset / f"scene_{index:03d}.json").unlink()
                if index not in sidecars:
                    (dataset / f"scene_{index:03d}.truth.json").unlink()
            preds.mkdir()
            for index in predictions:
                shutil.copy(root / "pred.json", preds / f"scene_{index:03d}.json")

            unpaired = sorted(scenes - sidecars)
            if not scenes:
                expected_fit = (1, f"error: invalid dataset: no scene files in {dataset}")
            elif unpaired:
                expected_fit = (2, "error: cannot read dataset: ")
            else:
                expected_fit = (0, None)
            unmatched = sorted(predictions - scenes)
            if not predictions:
                expected_eval = (1, f"error: invalid evaluation input: no prediction files in {preds}")
            elif unmatched:
                expected_eval = (2, "error: cannot read evaluation input: ")
            else:
                expected_eval = (0, None)
            missing = {
                "fit": f"scene_{unpaired[0]:03d}.truth.json" if unpaired else None,
                "eval": f"scene_{unmatched[0]:03d}.json" if unmatched else None,
            }
            runs = {
                "fit": (["fit", str(dataset), str(root / "fit.json"), "--out", str(root / "fit")],
                        root / "fit", expected_fit),
                "eval": (["eval", str(preds), str(dataset), "--out", str(root / "m" / "m.csv")],
                         root / "m", expected_eval),
            }
            for command, (argv, out, (code, line)) in runs.items():
                err = io.StringIO()
                with redirect_stderr(err), redirect_stdout(io.StringIO()):
                    assert main(argv) == code, (command, err.getvalue())
                lines = err.getvalue().splitlines()
                if code == 0:
                    assert lines == []
                    continue
                assert len(lines) == 1 and lines[0].startswith(line), (command, lines)
                if code == 2:
                    assert missing[command] in lines[0]
                assert not out.exists()
