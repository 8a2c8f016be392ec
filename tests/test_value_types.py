"""The array contract every value type keeps: it stores read-only float64
copies, so the caller's arrays stay its own, and it rejects a NaN entry, a
wrong shape or a complex entry with its own exception class."""

import re
import sys
import threading
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
from jointmotion.scene import SceneArrayError


def scene_truth(rho, mu_delta, sigma_delta):
    return SceneTruth(CorrelationMatrix(rho), mu_delta, sigma_delta)


def marginal_arrays():
    names = ("mu_x", "mu_y", "sigma_x", "sigma_y", "rho_xy")
    return {name: np.array([0.5, 0.25]) for name in names}


# name: (constructor, fresh valid arrays, the field made NaN,
#        class for a NaN entry, class for a wrong shape, class for a complex entry)
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
        SceneArrayError,
    ),
    "ModeSet": (
        ModeSet,
        lambda: {"modes": np.zeros((2, 1, 3, 2)), "scores": np.array([0.5, 1.5])},
        "scores",
        NonFiniteError,
        SceneShapeError,
        SceneArrayError,
    ),
    "CorrelationMatrix": (
        CorrelationMatrix,
        lambda: {"rho": np.array([[1.0, 0.5], [0.5, 1.0]])},
        "rho",
        InvalidCorrelationError,
        InvalidCorrelationError,
        InvalidCorrelationError,
    ),
    "IncrementParams": (
        IncrementParams,
        lambda: {"mu": np.array([1.0, 2.0]), "sigma": np.array([0.5, 0.25])},
        "sigma",
        ValueError,
        ValueError,
        ValueError,
    ),
    "Marginals": (Marginals, marginal_arrays, "rho_xy", ValueError, ValueError, ValueError),
    "JointGaussian": (
        JointGaussian,
        lambda: {"mean": np.array([1.0, 2.0]), "cov": np.array([[2.0, 0.5], [0.5, 1.0]])},
        "cov",
        ValueError,
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
    build, arrays, nan_field, nan_error, shape_error, dtype_error = CONTRACTS[name]

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

    for key in arrays():
        bad = arrays()
        bad[key] = bad[key] + 0j
        bad[key][(0,) * bad[key].ndim] += 0.5j
        with pytest.raises(dtype_error, match=f"^{key} must hold real numbers, not complex128$"):
            build(**bad)


MARGINAL_FIELDS = ("mu_x", "mu_y", "sigma_x", "sigma_y", "rho_xy")


@pytest.mark.parametrize("field", MARGINAL_FIELDS)
@pytest.mark.parametrize("fault", ["nan", "longer", "shorter"])
def test_marginals_name_the_one_bad_field(field, fault):
    given = marginal_arrays()
    if fault == "nan":
        given[field][1] = np.nan
        message = f"{field} contains non-finite values"
    else:
        given[field] = np.full(3 if fault == "longer" else 1, 0.5)
        message = f"{field}: expected shape (2,), got ({given[field].size},)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Marginals(**given)


def truth_with_zero_sigma_step(zero_step):
    sigma_delta = np.array([[0.5, 0.25], [0.75, 0.5], [1.0, 0.75]])
    sigma_delta[zero_step, 1] = 0.0
    return scene_truth(
        np.array([[1.0, -0.3], [-0.3, 1.0]]), np.array([[2.5, 2.0], [5.0, 4.0], [7.5, 0.0]]), sigma_delta
    )


def test_truth_increment_params_are_built_once_and_equal_a_fresh_build():
    rng = np.random.default_rng(4)
    truth = scene_truth(np.eye(3), rng.uniform(0.0, 9.0, (5, 3)), rng.uniform(0.1, 2.0, (5, 3)))
    for step in range(5):
        params = truth.increment_params(step)
        fresh = IncrementParams(truth.mu_delta[step], truth.sigma_delta[step])
        assert params.mu.tobytes() == fresh.mu.tobytes()
        assert params.sigma.tobytes() == fresh.sigma.tobytes()
        assert truth.increment_params(step) is params
        assert truth.increment_params(step - 5) is params


@pytest.mark.parametrize("zero_step", [0, 1, 2])
def test_truth_with_a_zero_sigma_step_raises_for_that_step_only(zero_step):
    truth = truth_with_zero_sigma_step(zero_step)
    for _ in range(2):  # and on every request, not only the first
        for step in range(3):
            if step == zero_step:
                with pytest.raises(ValueError, match="displacement sigmas must be positive"):
                    truth.increment_params(step)
            else:
                assert truth.increment_params(step).n_agents == 2


def test_concurrent_first_requests_give_equal_params():
    rng = np.random.default_rng(5)
    truths = [
        scene_truth(np.eye(4), rng.uniform(0.0, 9.0, (12, 4)), rng.uniform(0.1, 2.0, (12, 4)))
        for _ in range(20)
    ]
    results = {}

    def fill(worker):
        order = np.random.default_rng(worker).permutation(12)
        results[worker] = [
            [(int(t), truth.increment_params(int(t))) for t in order] for truth in truths
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=fill, args=(w,)) for w in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert sorted(results) == list(range(8))
    for per_worker in results.values():
        for truth, pairs in zip(truths, per_worker):
            for step, params in pairs:
                cached = truth.increment_params(step)
                assert params.mu.tobytes() == cached.mu.tobytes() == truth.mu_delta[step].tobytes()
                assert params.sigma.tobytes() == cached.sigma.tobytes()
