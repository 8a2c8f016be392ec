"""Domain types for multi-agent scenes and their JSON persistence.

A scene holds the observed past and ground-truth future positions of N
agents together with the actual heading of every agent at each future
step. Positions are metric x-y coordinates; one time step corresponds
to 0.5 s (2 Hz sampling). Instances are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

import numpy as np

PathLike = Union[str, Path]


class SceneFormatError(ValueError):
    """The file is not valid JSON for what it should hold (bad syntax, not
    an object, missing, unknown or mistyped field)."""


class SceneShapeError(ValueError):
    """An array field disagrees with the declared agent count or horizons."""


class NonFiniteError(ValueError):
    """A numeric entry is NaN or infinite."""


class SceneArrayError(SceneShapeError, NonFiniteError):
    """A scene or prediction array has a wrong shape or a NaN or infinite
    entry. It is both a :class:`SceneShapeError` and a
    :class:`NonFiniteError`, so :func:`checked_array` can raise one class
    for both faults and callers may catch either."""


def real_array(value, name: str, error: type = ValueError) -> np.ndarray:
    """``value`` as a float64 array, checked to hold entries that convert to
    float64 as numbers: the one intake for every array argument the library
    takes. A float64 array is returned as itself, not copied.

    Raises:
        error: ``value`` holds complex, datetime, timedelta or string
            entries (a float64 cast would drop the imaginary part, count
            days or parse text).
    """
    arr = np.asarray(value)
    if arr.dtype.kind in "cmMSU":
        raise error(f"{name} must hold real numbers, not {arr.dtype}")
    return np.asarray(arr, dtype=np.float64)


def checked_array(value, name: str, shape: tuple, error: type = ValueError) -> np.ndarray:
    """A read-only float64 copy of what :func:`real_array` takes in: how every
    value type stores its arrays. The caller's array stays writable, unchanged.

    ``shape`` gives each dimension's length, or None where any length is
    allowed.

    Raises:
        error: ``value`` fails :func:`real_array`'s dtype rule, the shape
            differs, or an entry is NaN or infinite.
    """
    arr = np.array(real_array(value, name, error))
    if arr.shape != shape and (
        arr.ndim != len(shape)
        or any(want is not None and got != want for got, want in zip(arr.shape, shape))
    ):
        raise error(f"{name}: expected shape {str(shape).replace('None', '*')}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise error(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


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
        past = checked_array(self.past, "past", (None, None, 2), SceneArrayError)
        n, t_obs = past.shape[:2]
        if n < 1 or t_obs < 1:
            raise SceneShapeError(f"past: expected (N >= 1, t_obs >= 1, 2), got {past.shape}")
        future = checked_array(self.future, "future", (n, None, 2), SceneArrayError)
        if future.shape[1] < 1:
            raise SceneShapeError(f"future: expected ({n}, t_fut >= 1, 2), got {future.shape}")
        yaw = checked_array(self.yaw, "yaw", future.shape[:2], SceneArrayError)
        if np.any(yaw <= -np.pi) or np.any(yaw > np.pi):
            raise ValueError("yaw entries must lie in (-pi, pi]")
        object.__setattr__(self, "past", past)
        object.__setattr__(self, "future", future)
        object.__setattr__(self, "yaw", yaw)

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
        modes = checked_array(self.modes, "modes", (None, None, None, 2), SceneArrayError)
        if modes.shape[0] < 1:
            raise SceneShapeError(f"modes: expected (M >= 1, N, T, 2), got {modes.shape}")
        object.__setattr__(self, "modes", modes)
        if self.scores is not None:
            scores = checked_array(self.scores, "scores", modes.shape[:1], SceneArrayError)
            object.__setattr__(self, "scores", scores)


def json_fields(
    payload, what: str, required: Iterable[str] = (), allowed: Optional[Iterable[str]] = None
) -> dict:
    """Return a decoded JSON value after checking that it is an object
    with every ``required`` field and, when ``allowed`` is given, no other;
    raises :class:`SceneFormatError` naming what is wrong."""
    if not isinstance(payload, dict):
        raise SceneFormatError(f"{what} JSON must be an object")
    if allowed is not None:
        unknown = sorted(set(payload) - set(allowed))
        if unknown:
            raise SceneFormatError(f"unknown {what} fields: {unknown}")
    for key in required:
        if key not in payload:
            raise SceneFormatError(f"missing field '{key}'")
    return payload


def check_numbers(config, integers: Iterable[str], floats: Iterable[str]) -> None:
    """Check a config's number fields, raising ValueError naming the field:
    no field holds a boolean (``numbers.Integral`` and numpy take ``True``
    as 1), each of ``integers`` holds an integer and each of ``floats`` a
    real number that is finite as a float."""
    for name, value in vars(config).items():
        if isinstance(value, bool):
            raise ValueError(f"{name} must be a number, not a boolean")
    for name in integers:
        if not isinstance(getattr(config, name), numbers.Integral):
            raise ValueError(f"{name} must be an integer")
    for name in floats:
        try:
            finite = math.isfinite(getattr(config, name))
        except (TypeError, OverflowError) as exc:  # not a number, or an int beyond a float
            raise ValueError(f"{name}: {exc}") from None
        if not finite:
            raise ValueError(f"{name} must be finite")


def json_array(value, name: str, shape: Optional[tuple] = None) -> np.ndarray:
    """A decoded JSON array field (or number) as float64. Raises SceneFormatError
    if it is not a regular nest of numbers or holds a string or boolean (numpy
    reads ``"0.5"`` and ``true`` as numbers), SceneShapeError if ``shape`` differs."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SceneFormatError(f"field '{name}' is not numeric: {exc}") from None
    entries = [value]
    for _ in range(arr.ndim):
        entries = chain.from_iterable(entries)
    if {str, bool}.intersection(map(type, entries)):
        raise SceneFormatError(f"field '{name}' holds a string or boolean, not a number")
    if shape is not None and arr.shape != shape:
        raise SceneShapeError(f"{name}: expected shape {shape}, got {arr.shape}")
    return arr


def scene_to_dict(scene: Scene) -> dict:
    """The scene's JSON payload for :func:`write_json`. Its array fields are
    the scene's read-only arrays, not lists, so ``json.dumps`` rejects it."""
    return {
        "n": scene.n_agents,
        "t_obs": scene.t_obs,
        "t_fut": scene.t_fut,
        "past": scene.past,
        "future": scene.future,
        "yaw": scene.yaw,
    }


def scene_from_dict(payload: dict) -> Scene:
    payload = json_fields(payload, "scene", ("n", "t_obs", "t_fut", "past", "future", "yaw"))
    n, t_obs, t_fut = payload["n"], payload["t_obs"], payload["t_fut"]
    for name, value in (("n", n), ("t_obs", t_obs), ("t_fut", t_fut)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise SceneFormatError(f"field '{name}' must be a positive integer")
    past = json_array(payload["past"], "past", (n, t_obs, 2))
    future = json_array(payload["future"], "future", (n, t_fut, 2))
    yaw = json_array(payload["yaw"], "yaw", (n, t_fut))
    return Scene(past=past, future=future, yaw=yaw)


def _key_text(key) -> str:
    if not isinstance(key, str):
        if not isinstance(key, (int, float)) and key is not None:
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        key = _json_text(key, "")
    return json.dumps(key)


def _array_template(shape: tuple, indent: str) -> str:
    """The text ``json.dumps(arr.tolist(), indent=2)`` gives for a float
    array of ``shape`` at ``indent``, with ``%r`` where each entry goes in
    C order."""
    if not shape:
        return "%r"
    if not shape[0]:
        return "[]"
    inner = indent + "  "
    item = _array_template(shape[1:], inner)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + indent + "]"


# what _json_text walks into rather than hand to json.dumps
_NESTED = (list, tuple, dict, np.ndarray)


def _json_text(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, allow_nan=False)`` writes
    it at the nesting level whose line break and indent is ``indent``; a
    float64 ndarray as its ``tolist()`` would be.

    Only float64 arrays, and the lists, tuples and dicts that hold an array
    or another container, are written here; ``json.dumps`` writes every
    other value, so its bytes and errors are the stdlib's own.
    """
    if isinstance(value, np.ndarray) and value.dtype == np.float64:
        # Python floats only: '%r' of an np.float64 is "np.float64(...)"
        text = _array_template(value.shape, indent) % tuple(value.ravel().tolist())
        # no finite float's repr holds an "n"; json.dumps rejects nan and inf
        return _json_text(value.tolist(), indent) if "n" in text else text
    inner = indent + "  "
    if isinstance(value, dict) and any(isinstance(v, _NESTED) for v in value.values()):
        items = [_key_text(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)) and any(isinstance(v, _NESTED) for v in value):
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", indent)


def write_json(payload, path: PathLike) -> None:
    """Write strict JSON (no NaN or infinity), indented, with a final
    newline; floats keep full round-trip precision.

    The bytes are those of ``json.dumps(payload, indent=2,
    allow_nan=False)`` plus the newline, written in one call; a float64
    ndarray anywhere in the payload is written as its ``tolist()``. The text is
    built before the file is opened, so a payload that cannot be encoded
    (``ValueError`` for a NaN or infinity, ``TypeError`` for another
    type) leaves no file, or the existing one unchanged.
    """
    text = _json_text(payload, "\n") + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load_json(path: PathLike, decode: Callable):
    """Parse a strict JSON file, as :func:`write_json` writes them, and
    decode it with ``decode``: the one JSON reader. The value errors, type
    errors and arithmetic errors that ``decode`` raises keep their class and
    gain the file name, so a bad file among many can be found.

    Raises:
        SceneFormatError: the file is not UTF-8 or not valid JSON, holds a
            ``NaN``, ``Infinity`` or ``-Infinity`` token, or nests deeper
            than the decoder's recursion limit.
        OSError: the file cannot be read.
    """

    def reject(token):
        raise SceneFormatError(f"{path}: {token} is not a JSON number")

    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle, parse_constant=reject)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise SceneFormatError(f"{path}: {exc}") from None
    try:
        return decode(payload)
    except (ValueError, TypeError, ArithmeticError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def load_scene(path: PathLike) -> Scene:
    """Load a scene from JSON, running the same validation as the constructor.

    Raises:
        SceneFormatError: unparseable JSON or missing/mistyped fields.
        SceneShapeError: arrays disagree with the declared sizes.
        NonFiniteError: NaN or infinite entries.
        OSError: the file cannot be read.
    """
    return load_json(path, scene_from_dict)


def save_scene(scene: Scene, path: PathLike) -> None:
    """Write a scene as JSON with full round-trip float precision."""
    write_json(scene_to_dict(scene), path)


def modes_to_dict(modes: ModeSet) -> dict:
    """The prediction's JSON payload for :func:`write_json`, holding the
    mode set's read-only arrays as :func:`scene_to_dict` does."""
    payload = {"modes": modes.modes}
    if modes.scores is not None:
        payload["scores"] = modes.scores
    return payload


def modes_from_dict(payload: dict) -> ModeSet:
    payload = json_fields(payload, "prediction", ("modes",))
    scores = payload.get("scores")
    scores = None if scores is None else json_array(scores, "scores")
    return ModeSet(json_array(payload["modes"], "modes"), scores)


def load_modes(path: PathLike) -> ModeSet:
    """Load a multi-mode prediction from JSON."""
    return load_json(path, modes_from_dict)


def save_modes(modes: ModeSet, path: PathLike) -> None:
    """Write a multi-mode prediction as JSON."""
    write_json(modes_to_dict(modes), path)
