"""One JSON codec for every file: scenes, modes, truth sidecars and both
configs round-trip bit for bit, and a file that lacks a required field or
holds no object fails naming the field and the file."""

import json
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jointmotion import (
    CorrelationMatrix,
    FitConfig,
    ModeSet,
    ScenarioConfig,
    Scene,
    SceneFormatError,
    SceneTruth,
    load_modes,
    load_scene,
    save_modes,
    save_scene,
)
from jointmotion.scene import load_json, write_json

# every finite double, -0.0, subnormals and the extremes included
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SIZE = st.integers(1, 3)


def arrays(shape, elements=FINITE):
    return hnp.arrays(np.float64, shape, elements=elements)


@st.composite
def scenes(draw):
    n, t_obs, t_fut = draw(SIZE), draw(SIZE), draw(SIZE)
    return Scene(
        past=draw(arrays((n, t_obs, 2))),
        future=draw(arrays((n, t_fut, 2))),
        yaw=draw(arrays((n, t_fut), st.floats(-np.pi, np.pi, exclude_min=True))),
    )


@st.composite
def mode_sets(draw, with_scores):
    m = draw(SIZE)
    modes = draw(arrays((m, draw(SIZE), draw(SIZE), 2)))
    return ModeSet(modes, draw(arrays((m,))) if with_scores else None)


def unit_diagonal(draw, n):
    """A symmetric (n, n) matrix with entries in [-1, 1] and a unit diagonal."""
    upper = draw(arrays((n, n), st.floats(-1.0, 1.0)))
    rho = np.where(np.triu(np.ones((n, n), dtype=bool)), upper, upper.T)
    np.fill_diagonal(rho, 1.0)
    return rho


@st.composite
def truths(draw):
    n, t_fut = draw(SIZE), draw(SIZE)
    rho = unit_diagonal(draw, n)
    # the tables hold magnitudes and spreads: finite and not negative
    nonnegative = st.just(-0.0) | st.floats(min_value=0.0, allow_infinity=False)
    return SceneTruth(
        rho=CorrelationMatrix(rho),
        mu_delta=draw(arrays((t_fut, n), nonnegative)),
        sigma_delta=draw(arrays((t_fut, n), nonnegative)),
    )


@st.composite
def scenario_configs(draw, matrix):
    n = draw(SIZE)
    nonnegative = st.floats(0.0, 1e308)
    if matrix:
        target = unit_diagonal(draw, n)
        # the constructor also asks for a positive semidefinite matrix
        assume(CorrelationMatrix(target).is_positive_semidefinite())
        target = target.tolist()
    else:
        target = draw(st.floats(-1.0, 1.0))
    return ScenarioConfig(
        pattern=draw(st.sampled_from(["follow", "yield", "independent", "mixed"])),
        n_agents=n,
        t_obs=draw(SIZE),
        t_fut=draw(SIZE),
        target_rho=target,
        base_speed=draw(st.floats(5e-324, 1e308)),
        noise_sigma=draw(nonnegative),
        seed=draw(st.integers(0, 2**63)),
        curvature=draw(FINITE),
        heading_noise=draw(nonnegative),
        n_scenes=draw(SIZE),
    )


@st.composite
def fit_configs(draw):
    nonnegative = st.floats(0.0, 1e308)
    return FitConfig(
        learning_rate=draw(st.floats(5e-324, 1e308)),
        max_iters=draw(st.integers(1, 10**6)),
        delta_reg=draw(nonnegative),
        parameterization=draw(st.sampled_from(["direct-rho", "relevance-head"])),
        seed=draw(st.integers(0, 2**63)),
        convergence_tol=draw(nonnegative),
        feature_dim=draw(SIZE),
    )


@dataclass
class Codec:
    values: st.SearchStrategy
    save: Callable
    load: Callable
    arrays: Callable  # every float the value holds, as arrays
    required: Optional[str]  # a field the decoder cannot do without


def save_dict(value, path):
    write_json(value.to_dict(), path)


def scenario_floats(config):
    names = ("base_speed", "noise_sigma", "curvature", "heading_noise")
    return [np.array([getattr(config, name) for name in names]), np.array(config.target_rho)]


def fit_floats(config):
    names = ("learning_rate", "delta_reg", "convergence_tol")
    return [np.array([getattr(config, name) for name in names])]


CODECS = {
    "scene": Codec(scenes(), save_scene, load_scene, lambda s: [s.past, s.future, s.yaw], "yaw"),
    "modes": Codec(
        mode_sets(with_scores=False), save_modes, load_modes, lambda m: [m.modes], "modes"
    ),
    "modes-scores": Codec(
        mode_sets(with_scores=True),
        save_modes,
        load_modes,
        lambda m: [m.modes, m.scores],
        "modes",
    ),
    "truth": Codec(
        truths(),
        save_dict,
        lambda path: load_json(path, SceneTruth.from_dict),
        lambda t: [t.rho.rho, t.mu_delta, t.sigma_delta],
        "mu_delta",
    ),
    "scenario-scalar-rho": Codec(
        scenario_configs(matrix=False),
        save_dict,
        lambda path: load_json(path, ScenarioConfig.from_dict),
        scenario_floats,
        "n_agents",
    ),
    "scenario-matrix-rho": Codec(
        scenario_configs(matrix=True),
        save_dict,
        lambda path: load_json(path, ScenarioConfig.from_dict),
        scenario_floats,
        "pattern",
    ),
    "fit-config": Codec(
        fit_configs(),
        save_dict,
        lambda path: load_json(path, FitConfig.from_dict),
        fit_floats,
        None,  # every field has a default
    ),
}


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(CODECS))
@settings(
    max_examples=40,
    deadline=None,
    # each example overwrites the same two files
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_round_trip_is_bit_exact_and_bad_payloads_name_field_and_file(tmp_path, name, data):
    codec = CODECS[name]
    value = data.draw(codec.values)
    path = tmp_path / f"{name}.json"
    codec.save(value, path)
    loaded = codec.load(path)
    assert type(loaded) is type(value)
    for before, after in zip(codec.arrays(value), codec.arrays(loaded), strict=True):
        assert same_bits(before, after)
    again = tmp_path / f"{name}.again.json"
    codec.save(loaded, again)  # the other fields too
    assert again.read_bytes() == path.read_bytes()

    bad = tmp_path / "bad.json"
    if codec.required is not None:
        payload = json.loads(path.read_text())
        del payload[codec.required]
        bad.write_text(json.dumps(payload))
        message = re.escape(f"{bad}: missing field '{codec.required}'")
        with pytest.raises(SceneFormatError, match=message):
            codec.load(bad)
    bad.write_text(json.dumps(data.draw(st.sampled_from([[], [1, 2], "x", 1.5, None]))))
    with pytest.raises(SceneFormatError, match=re.escape(f"{bad}: ") + ".*must be an object"):
        codec.load(bad)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_tokens_are_rejected_naming_the_file(tmp_path, value):
    # json.dumps writes these as NaN, Infinity and -Infinity, which
    # write_json never does
    path = tmp_path / "scene.json"
    payload = {"n": 1, "t_obs": 1, "t_fut": 1, "past": [[[0.0, 0.0]]],
               "future": [[[value, 0.0]]], "yaw": [[0.0]]}
    path.write_text(json.dumps(payload))
    token = json.dumps(value)
    with pytest.raises(SceneFormatError, match=re.escape(f"{path}: {token} is not a JSON number")):
        load_scene(path)


def stdlib_text(payload):
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


# every value json.dumps takes, plus what it rejects: NaN, infinities and
# objects of another type
ANY_FLOAT = st.floats() | st.floats().map(np.float64)
KEYS = st.text(max_size=4) | st.integers() | ANY_FLOAT | st.booleans() | st.none()
LEAVES = (
    st.none() | st.booleans() | st.integers() | ANY_FLOAT | st.text(max_size=8)
    | st.lists(FINITE, max_size=4)
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=24,
)


# float64 arrays of rank 0 to 3, zero-length dimensions included, over the
# edges of float repr and the values JSON has no number for
EDGE_ENTRIES = [-0.0, 5e-324, 1e16, 1.7976931348623157e308, -1.7976931348623157e308]
ARRAYS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
    elements=FINITE | st.sampled_from(EDGE_ENTRIES + [float("nan"), float("inf"), float("-inf")]),
) | hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
    elements=FINITE | st.sampled_from(EDGE_ENTRIES),
)


class TestWriterMatchesTheStdlib:
    """``write_json`` writes ``json.dumps(payload, indent=2,
    allow_nan=False)`` and a newline, raises what it raises, and leaves no
    trace on disk when it raises; a float64 array is written as its
    ``tolist()``."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(value=ARRAYS, nesting=st.sampled_from(["bare", "list", "dict"]))
    def test_array_leaves_write_as_their_tolist(self, tmp_path, value, nesting):
        def nest(leaf):
            return {"bare": leaf, "list": [leaf, 1.5, [leaf]], "dict": {"a": {"b": leaf}, "c": []}}[nesting]

        path = tmp_path / "array.json"
        path.unlink(missing_ok=True)
        try:
            expected = stdlib_text(nest(value.tolist()))
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                write_json(nest(value), path)
            assert str(raised.value) == str(exc)
            assert not path.exists()
        else:
            write_json(nest(value), path)
            assert path.read_bytes() == expected.encode("ascii")

    def test_an_array_of_another_dtype_is_rejected_as_the_stdlib_rejects_it(self, tmp_path):
        path = tmp_path / "ints.json"
        message = "Object of type ndarray is not JSON serializable"
        for encode in (stdlib_text, lambda p: write_json(p, path)):
            with pytest.raises(TypeError, match=f"^{message}$"):
                encode({"a": np.arange(3)})
        assert not path.exists()

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(payload=PAYLOADS | st.lists(PAYLOADS | st.just(object()), max_size=3))
    def test_bytes_or_error_equal_the_stdlib(self, tmp_path, payload):
        path = tmp_path / "payload.json"
        path.unlink(missing_ok=True)
        try:
            expected = stdlib_text(payload)
        except (ValueError, TypeError) as exc:
            with pytest.raises(type(exc)) as raised:
                write_json(payload, path)
            assert str(raised.value) == str(exc)
            assert not path.exists()
        else:
            write_json(payload, path)
            assert path.read_bytes() == expected.encode("ascii")

    @pytest.mark.parametrize(
        "payload, error, message",
        [
            ({"a": [1.0, float("nan")]}, ValueError, "nan"),
            ([[0.5, 2.0], [float("inf")]], ValueError, "inf"),
            ({"a": {"b": (1, np.float64("-inf"))}}, ValueError, "np.float64(-inf)"),
            ({float("nan"): 1.0}, ValueError, "nan"),
            (float("-inf"), ValueError, "-inf"),
            ([1.0, {1, 2}], TypeError, "Object of type set is not JSON serializable"),
            ({"a": np.int64(3)}, TypeError, "Object of type int64 is not JSON serializable"),
            ({(1, 2): 0.5}, TypeError, "keys must be str, int, float, bool or None, not tuple"),
        ],
    )
    def test_unencodable_payload_raises_the_stdlib_error(self, tmp_path, payload, error, message):
        if error is ValueError:
            message = f"Out of range float values are not JSON compliant: {message}"
        for encode in (stdlib_text, lambda p: write_json(p, tmp_path / "out.json")):
            with pytest.raises(error, match=re.escape(message) + "$"):
                encode(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {1.5: [0.5], None: {"a": []}, False: [[]], -7: (), "\u00e9": np.zeros(2)},
        {(1, 2): [0.5]},
        {float("nan"): [0.5]},
    ],
    ids=["converted", "tuple-key", "nan-key"],
)
def test_keys_of_a_dict_holding_a_container_are_the_stdlib_keys(tmp_path, payload):
    # such a dict is written key by key, not by json.dumps
    path = tmp_path / "keys.json"
    try:
        expected = stdlib_text({k: v.tolist() if isinstance(v, np.ndarray) else v
                                for k, v in payload.items()})
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc)) + "$"):
            write_json(payload, path)
        assert not path.exists()
    else:
        write_json(payload, path)
        assert path.read_bytes() == expected.encode("ascii")


class TestFailedWriteLeavesNoTrace:
    """A payload that cannot be encoded writes nothing at all."""

    BAD = [
        ({"a": [1.0, float("nan")]}, ValueError),
        ({"a": [1.0, object()]}, TypeError),
        ({"a": np.array([[1.0], [float("nan")]])}, ValueError),
    ]

    @pytest.mark.parametrize("payload, error", BAD)
    def test_no_file_is_created(self, tmp_path, payload, error):
        path = tmp_path / "out.json"
        with pytest.raises(error):
            write_json(payload, path)
        assert not path.exists()

    @pytest.mark.parametrize("payload, error", BAD)
    def test_existing_file_is_unchanged(self, tmp_path, payload, error):
        path = tmp_path / "out.json"
        write_json({"a": [1.0, 2.0]}, path)
        before = path.read_bytes()
        with pytest.raises(error):
            write_json(payload, path)
        assert path.read_bytes() == before
