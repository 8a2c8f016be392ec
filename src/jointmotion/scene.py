"""Domain types for multi-agent scenes and their JSON persistence.

A scene holds the observed past and ground-truth future positions of N
agents together with the actual heading of every agent at each future
step. Positions are metric x-y coordinates; one time step corresponds
to 0.5 s (2 Hz sampling). Instances are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

PathLike = Union[str, Path]


class SceneFormatError(ValueError):
    """The file is not valid scene/prediction JSON (bad syntax, missing or
    mistyped field)."""


class SceneShapeError(ValueError):
    """An array field disagrees with the declared agent count or horizons."""


class NonFiniteError(ValueError):
    """A numeric entry is NaN or infinite."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite values")


@dataclass(frozen=True, eq=False)
class Scene:
    """Ground-truth agent states over past and future steps.

    Attributes:
        past: (N, t_obs, 2) positions; ``past[:, -1]`` is the current position.
        future: (N, t_fut, 2) positions.
        yaw: (N, t_fut) actual heading per agent per future step, radians
            in (-pi, pi].
    """

    past: np.ndarray
    future: np.ndarray
    yaw: np.ndarray

    def __post_init__(self):
        past = np.asarray(self.past, dtype=np.float64)
        future = np.asarray(self.future, dtype=np.float64)
        yaw = np.asarray(self.yaw, dtype=np.float64)
        if past.ndim != 3 or past.shape[2] != 2 or past.shape[1] < 1:
            raise SceneShapeError(f"past: expected (N, t_obs, 2), got {past.shape}")
        n = past.shape[0]
        if n < 1:
            raise SceneShapeError("scene needs at least one agent")
        if future.ndim != 3 or future.shape != (n, future.shape[1], 2) or future.shape[1] < 1:
            raise SceneShapeError(f"future: expected ({n}, t_fut, 2), got {future.shape}")
        if yaw.shape != (n, future.shape[1]):
            raise SceneShapeError(
                f"yaw: expected ({n}, {future.shape[1]}), got {yaw.shape}"
            )
        _require_finite(past, "past")
        _require_finite(future, "future")
        _require_finite(yaw, "yaw")
        if np.any(yaw <= -np.pi) or np.any(yaw > np.pi):
            raise ValueError("yaw entries must lie in (-pi, pi]")
        object.__setattr__(self, "past", _freeze(past))
        object.__setattr__(self, "future", _freeze(future))
        object.__setattr__(self, "yaw", _freeze(yaw))

    @property
    def n_agents(self) -> int:
        return self.past.shape[0]

    @property
    def t_obs(self) -> int:
        return self.past.shape[1]

    @property
    def t_fut(self) -> int:
        return self.future.shape[1]

    @property
    def current(self) -> np.ndarray:
        """(N, 2) positions at the last observed step."""
        return self.past[:, -1, :]


@dataclass(frozen=True, eq=False)
class ModeSet:
    """M alternative predicted futures for a whole scene.

    Attributes:
        modes: (M, N, T, 2) predicted positions.
        scores: optional (M,) unnormalized per-mode scores.
    """

    modes: np.ndarray
    scores: Optional[np.ndarray] = None

    def __post_init__(self):
        modes = np.asarray(self.modes, dtype=np.float64)
        if modes.ndim != 4 or modes.shape[3] != 2 or modes.shape[0] < 1:
            raise SceneShapeError(f"modes: expected (M, N, T, 2), got {modes.shape}")
        _require_finite(modes, "modes")
        object.__setattr__(self, "modes", _freeze(modes))
        if self.scores is not None:
            scores = np.asarray(self.scores, dtype=np.float64)
            if scores.shape != (modes.shape[0],):
                raise SceneShapeError(
                    f"scores: expected ({modes.shape[0]},), got {scores.shape}"
                )
            _require_finite(scores, "scores")
            object.__setattr__(self, "scores", _freeze(scores))

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]


def scenes_equal(a: Scene, b: Scene) -> bool:
    """Exact (bitwise) equality of all numeric fields."""
    return (
        np.array_equal(a.past, b.past)
        and np.array_equal(a.future, b.future)
        and np.array_equal(a.yaw, b.yaw)
    )


def _field(payload: dict, key: str):
    try:
        return payload[key]
    except KeyError:
        raise SceneFormatError(f"missing field '{key}'") from None


def _shaped(value, name: str, shape: tuple) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SceneFormatError(f"field '{name}' is not numeric: {exc}") from None
    if arr.shape != shape:
        raise SceneShapeError(f"{name}: expected shape {shape}, got {arr.shape}")
    return arr


def scene_to_dict(scene: Scene) -> dict:
    return {
        "n": scene.n_agents,
        "t_obs": scene.t_obs,
        "t_fut": scene.t_fut,
        "past": scene.past.tolist(),
        "future": scene.future.tolist(),
        "yaw": scene.yaw.tolist(),
    }


def scene_from_dict(payload: dict) -> Scene:
    if not isinstance(payload, dict):
        raise SceneFormatError("scene JSON must be an object")
    n = _field(payload, "n")
    t_obs = _field(payload, "t_obs")
    t_fut = _field(payload, "t_fut")
    for name, value in (("n", n), ("t_obs", t_obs), ("t_fut", t_fut)):
        if not isinstance(value, int) or value < 1:
            raise SceneFormatError(f"field '{name}' must be a positive integer")
    past = _shaped(_field(payload, "past"), "past", (n, t_obs, 2))
    future = _shaped(_field(payload, "future"), "future", (n, t_fut, 2))
    yaw = _shaped(_field(payload, "yaw"), "yaw", (n, t_fut))
    return Scene(past=past, future=future, yaw=yaw)


def read_json(path: PathLike):
    """Parse a JSON file.

    Raises:
        SceneFormatError: the file is not valid JSON, or nests deeper
            than the decoder's recursion limit.
        OSError: the file cannot be read.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SceneFormatError(f"{path}: {exc}") from None


def write_json(payload, path: PathLike) -> None:
    """Write strict JSON (no NaN or infinity), indented, with a final
    newline; floats keep full round-trip precision."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, allow_nan=False)
        handle.write("\n")


def load_scene(path: PathLike) -> Scene:
    """Load a scene from JSON, running the same validation as the constructor.

    Raises:
        SceneFormatError: unparseable JSON or missing/mistyped fields.
        SceneShapeError: arrays disagree with the declared sizes.
        NonFiniteError: NaN or infinite entries.
        OSError: the file cannot be read.
    """
    return scene_from_dict(read_json(path))


def save_scene(scene: Scene, path: PathLike) -> None:
    """Write a scene as JSON with full round-trip float precision."""
    write_json(scene_to_dict(scene), path)


def modes_to_dict(modes: ModeSet) -> dict:
    payload = {"modes": modes.modes.tolist()}
    if modes.scores is not None:
        payload["scores"] = modes.scores.tolist()
    return payload


def modes_from_dict(payload: dict) -> ModeSet:
    if not isinstance(payload, dict):
        raise SceneFormatError("prediction JSON must be an object")
    modes = _field(payload, "modes")
    try:
        arr = np.asarray(modes, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SceneFormatError(f"field 'modes' is not numeric: {exc}") from None
    if arr.ndim != 4 or arr.shape[3] != 2:
        raise SceneShapeError(f"modes: expected (M, N, T, 2), got {arr.shape}")
    scores = payload.get("scores")
    return ModeSet(modes=arr, scores=None if scores is None else np.asarray(scores))


def load_modes(path: PathLike) -> ModeSet:
    """Load a multi-mode prediction from JSON."""
    return modes_from_dict(read_json(path))


def save_modes(modes: ModeSet, path: PathLike) -> None:
    """Write a multi-mode prediction as JSON."""
    write_json(modes_to_dict(modes), path)
