"""Scene and prediction domain types plus JSON persistence."""

import json

import numpy as np
import pytest

from jointmotion import (
    ModeSet,
    NonFiniteError,
    Scene,
    SceneFormatError,
    SceneShapeError,
    load_modes,
    load_scene,
    save_modes,
    save_scene,
)


def minimal_scene() -> Scene:
    return Scene(
        past=[[[0.0, 0.0], [1.0, 0.0]]],
        future=[[[2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]],
        yaw=[[0.0, 0.0, 0.0]],
    )


def random_scene(rng: np.random.Generator) -> Scene:
    n = int(rng.integers(1, 5))
    t_obs = int(rng.integers(1, 4))
    t_fut = int(rng.integers(1, 6))
    return Scene(
        past=rng.normal(0.0, 50.0, (n, t_obs, 2)),
        future=rng.normal(0.0, 50.0, (n, t_fut, 2)),
        yaw=rng.uniform(-np.pi + 1e-9, np.pi, (n, t_fut)),
    )


class TestSceneValidation:
    def test_minimal_scene(self):
        scene = minimal_scene()
        assert scene.n_agents == 1
        assert scene.t_obs == 2
        assert scene.t_fut == 3
        np.testing.assert_array_equal(scene.current, [[1.0, 0.0]])

    def test_nan_coordinate_rejected(self):
        with pytest.raises(NonFiniteError):
            Scene(
                past=[[[0.0, np.nan], [1.0, 0.0]]],
                future=[[[2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]],
                yaw=[[0.0, 0.0, 0.0]],
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SceneShapeError):
            Scene(
                past=[[[0.0, 0.0]]],
                future=[[[1.0, 0.0]]],
                yaw=[[0.0, 0.0]],
            )

    def test_yaw_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Scene(
                past=[[[0.0, 0.0], [1.0, 0.0]]],
                future=[[[2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]],
                yaw=[[4.0, 0.0, 0.0]],
            )

    def test_future_with_three_coordinates_rejected(self):
        with pytest.raises(SceneShapeError, match="future"):
            Scene(
                past=[[[0.0, 0.0], [1.0, 0.0]]],
                future=[[[2.0, 0.0, 0.0]]],
                yaw=[[0.0]],
            )

    def test_arrays_read_only(self):
        scene = minimal_scene()
        with pytest.raises(ValueError):
            scene.past[0, 0, 0] = 7.0


class TestSceneRoundTrip:
    def test_minimal_round_trip(self, tmp_path):
        scene = minimal_scene()
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        loaded = load_scene(path)
        assert np.array_equal(scene.past, loaded.past)
        assert np.array_equal(scene.future, loaded.future)
        assert np.array_equal(scene.yaw, loaded.yaw)

    def test_random_scenes_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        for index in range(100):
            scene = random_scene(rng)
            path = tmp_path / f"scene_{index}.json"
            save_scene(scene, path)
            loaded = load_scene(path)
            assert np.array_equal(scene.past, loaded.past)
            assert np.array_equal(scene.future, loaded.future)
            assert np.array_equal(scene.yaw, loaded.yaw)

    def test_save_to_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            save_scene(minimal_scene(), tmp_path)  # directory, not a file

    def test_loaded_scene_passes_constructor_validation(self, tmp_path):
        # strict JSON has no NaN token, but 1e400 parses to infinity
        path = tmp_path / "bad.json"
        path.write_text(
            '{"n": 1, "t_obs": 2, "t_fut": 1, "past": [[[0.0, 0.0], [1.0, 0.0]]],'
            ' "future": [[[1e400, 0.0]]], "yaw": [[0.0]]}'
        )
        with pytest.raises(NonFiniteError):
            load_scene(path)


class TestSceneFormatErrors:
    def test_unparseable_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(SceneFormatError):
            load_scene(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"n": 1, "t_obs": 2, "t_fut": 3}))
        with pytest.raises(SceneFormatError):
            load_scene(path)

    def test_declared_sizes_win_over_arrays(self, tmp_path):
        path = tmp_path / "mismatch.json"
        payload = {
            "n": 2,
            "t_obs": 2,
            "t_fut": 3,
            "past": [[[0.0, 0.0], [1.0, 0.0]]],
            "future": [[[2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]],
            "yaw": [[0.0, 0.0, 0.0]],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(SceneShapeError):
            load_scene(path)

    def test_non_integer_count(self, tmp_path):
        path = tmp_path / "badn.json"
        payload = {
            "n": 1.5,
            "t_obs": 2,
            "t_fut": 3,
            "past": [],
            "future": [],
            "yaw": [],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(SceneFormatError):
            load_scene(path)


class TestModeSet:
    def test_round_trip_with_scores(self, tmp_path):
        rng = np.random.default_rng(7)
        modes = ModeSet(modes=rng.normal(0, 10, (4, 2, 5, 2)), scores=rng.normal(0, 1, 4))
        path = tmp_path / "modes.json"
        save_modes(modes, path)
        loaded = load_modes(path)
        assert np.array_equal(modes.modes, loaded.modes)
        assert np.array_equal(modes.scores, loaded.scores)

    def test_round_trip_without_scores(self, tmp_path):
        modes = ModeSet(modes=np.zeros((1, 1, 1, 2)))
        path = tmp_path / "modes.json"
        save_modes(modes, path)
        assert load_modes(path).scores is None

    def test_score_shape_mismatch(self):
        with pytest.raises(SceneShapeError):
            ModeSet(modes=np.zeros((2, 1, 1, 2)), scores=np.zeros(3))

    def test_needs_at_least_one_mode(self):
        with pytest.raises(SceneShapeError):
            ModeSet(modes=np.zeros((0, 1, 1, 2)))
