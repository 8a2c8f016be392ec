"""The array contract every value type keeps: it stores read-only float64
copies, so the caller's arrays stay its own, and it rejects a NaN entry or
a wrong shape with its own exception class."""

from dataclasses import fields

import numpy as np
import pytest

from jointmotion import (
    CorrelationMatrix,
    IncrementParams,
    InvalidCorrelationError,
    JointGaussian,
    Marginals,
    ModeSet,
    NonFiniteError,
    Scene,
    SceneShapeError,
    SceneTruth,
)


def scene_truth(rho, mu_delta, sigma_delta):
    return SceneTruth(CorrelationMatrix(rho), mu_delta, sigma_delta)


def marginal_arrays():
    names = ("mu_x", "mu_y", "sigma_x", "sigma_y", "rho_xy")
    return {name: np.array([0.5, 0.25]) for name in names}


# name: (constructor, fresh valid arrays, the field made NaN,
#        class for a NaN entry, class for a wrong shape)
CONTRACTS = {
    "Scene": (
        Scene,
        lambda: {
            "past": np.array([[[0.0, 0.0], [1.0, 0.0]]]),
            "future": np.array([[[2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]]),
            "yaw": np.array([[0.0, 0.1, 0.2]]),
        },
        "future",
        NonFiniteError,
        SceneShapeError,
    ),
    "ModeSet": (
        ModeSet,
        lambda: {"modes": np.zeros((2, 1, 3, 2)), "scores": np.array([0.5, 1.5])},
        "scores",
        NonFiniteError,
        SceneShapeError,
    ),
    "CorrelationMatrix": (
        CorrelationMatrix,
        lambda: {"rho": np.array([[1.0, 0.5], [0.5, 1.0]])},
        "rho",
        InvalidCorrelationError,
        InvalidCorrelationError,
    ),
    "IncrementParams": (
        IncrementParams,
        lambda: {"mu": np.array([1.0, 2.0]), "sigma": np.array([0.5, 0.25])},
        "sigma",
        ValueError,
        ValueError,
    ),
    "Marginals": (Marginals, marginal_arrays, "rho_xy", ValueError, ValueError),
    "JointGaussian": (
        JointGaussian,
        lambda: {"mean": np.array([1.0, 2.0]), "cov": np.array([[2.0, 0.5], [0.5, 1.0]])},
        "cov",
        ValueError,
        ValueError,
    ),
    "SceneTruth": (
        scene_truth,
        lambda: {
            "rho": np.array([[1.0, 0.5], [0.5, 1.0]]),
            "mu_delta": np.array([[2.5, 2.5], [5.0, 5.0]]),
            "sigma_delta": np.array([[0.5, 0.5], [0.75, 0.75]]),
        },
        "mu_delta",
        ValueError,
        ValueError,
    ),
}


def stored_arrays(value):
    """Every array a value holds, including those of the values it holds."""
    for field in fields(value):
        held = getattr(value, field.name)
        if isinstance(held, np.ndarray):
            yield field.name, held
        elif held is not None:
            yield from stored_arrays(held)


@pytest.mark.parametrize("name", list(CONTRACTS))
def test_value_type_array_contract(name):
    build, arrays, nan_field, nan_error, shape_error = CONTRACTS[name]

    given = arrays()
    before = {key: arr.copy() for key, arr in given.items()}
    value = build(**given)
    stored = dict(stored_arrays(value))
    assert stored
    for key, arr in given.items():
        assert arr.flags.writeable, key
        np.testing.assert_array_equal(arr, before[key])
        arr[...] = 0.75  # the value holds a copy, not the caller's array
    for key, arr in stored.items():
        assert arr.dtype == np.float64, key
        assert not arr.flags.writeable, key
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    for key in stored.keys() & before.keys():
        np.testing.assert_array_equal(stored[key], before[key])

    bad = arrays()
    bad[nan_field][(0,) * bad[nan_field].ndim] = np.nan
    with pytest.raises(nan_error):
        build(**bad)

    for key in arrays():
        bad = arrays()
        bad[key] = np.stack([bad[key], bad[key]])
        with pytest.raises(shape_error):
            build(**bad)
