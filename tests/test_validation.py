"""Every documented input check raises its own error with its own message.

One row per check: the call that breaks the rule, the exception class and
a fragment of the message. A row fails if its check is removed, since the
call then either succeeds or fails somewhere else with another message.
"""

import re

import numpy as np
import pytest

from jointmotion import (
    CorrelationMatrix,
    IncrementParams,
    InvalidCorrelationError,
    JointGaussian,
    Marginals,
    ScenarioConfig,
    Scene,
    SceneFormatError,
    SceneShapeError,
    assemble_joint,
    cholesky_factor,
    correlation_for,
    empirical_increment_pcc,
    heading_vectors,
    increments_from_positions,
    min_eigenvalue,
    min_joint_ade,
    min_joint_fde,
    projected_marginals,
    project_increments,
    sample_joint,
    scene_nll,
    tikhonov_regularize,
    trajectory_nll,
    wrap_angle,
)
from jointmotion.fit import (
    DirectRhoParams,
    FitConfig,
    FitDataset,
    UnitRowRhoParams,
    finite_difference_gradient,
    relative_gradient_errors,
)
from jointmotion.gaussian import symmetric_matrix
from jointmotion.relevance import (
    RelevanceHead,
    cosine_gram,
    cosine_gram_backward,
    relevance_forward_cached,
)
from jointmotion.scene import checked_array, json_array, scene_from_dict

EYE2 = np.eye(2)
EYE3 = np.eye(3)
THETA2 = np.array([0.3, -1.2])
CURRENT2 = np.array([[0.0, 1.0], [2.0, -1.0]])
# arrays of each dtype kind that real_array rejects
STRING_EYE2 = np.array([["1", "0"], ["0", "1"]])
DATES2 = np.array(["2020-01-02", "2020-01-03"], dtype="datetime64[D]")
SECONDS_EYE2 = np.array([[1, 0], [0, 1]], dtype="timedelta64[s]")


def increments2():
    return IncrementParams(mu=np.array([1.0, 2.0]), sigma=np.array([0.5, 0.25]))


def marginals2():
    return Marginals(*(np.array([0.5, 0.25]) for _ in range(5)))


def joint2():
    return JointGaussian(mean=np.zeros(2), cov=EYE2)


def dataset(n_agents=2, futures_shape=None, t_fut=1, first=None, dtype=np.float64):
    """A family of two futures, or one with the given futures shape, as
    ``dtype``; ``first``, if given, replaces every coordinate of the first
    future."""
    shape = futures_shape or (2, n_agents, t_fut, 2)
    futures = np.arange(np.prod(shape), dtype=np.float64).reshape(shape).astype(dtype)
    if first is not None:
        futures[0] = first
    return FitDataset(
        current=np.zeros((n_agents, 2)),
        theta=np.zeros((t_fut, n_agents)),
        mu_delta=np.ones((t_fut, n_agents)),
        sigma_delta=np.ones((t_fut, n_agents)),
        futures=futures,
    )


# id: (call, exception class, message fragment)
CHECKS = {
    "FitConfig-finite": (
        lambda: FitConfig(learning_rate=float("nan")), ValueError, "learning_rate must be finite"
    ),
    "FitConfig-convergence_tol": (
        lambda: FitConfig(convergence_tol=-1.0), ValueError, "convergence_tol must be nonnegative"
    ),
    "FitConfig-feature_dim": (
        lambda: FitConfig(feature_dim=0), ValueError, "feature_dim must be >= 1"
    ),
    "FitConfig-max_iters": (
        lambda: FitConfig(max_iters=0), ValueError, "max_iters must be >= 1"
    ),
    "FitConfig-boolean": (
        lambda: FitConfig(max_iters=True), ValueError, "max_iters must be a number, not a boolean"
    ),
    "FitDataset-agents": (
        lambda: dataset(n_agents=0), ValueError, "dataset needs at least one agent"
    ),
    "FitDataset-futures": (
        lambda: dataset(futures_shape=(2, 2, 2, 2)),
        ValueError,
        "futures: expected (K, 2, 1, 2), got (2, 2, 2, 2)",
    ),
    "FitDataset-no-futures": (
        lambda: dataset(futures_shape=(0, 2, 1, 2)), ValueError, "dataset needs at least one future"
    ),
    "FitDataset-complex-futures": (
        lambda: dataset(dtype=np.complex128),
        ValueError,
        "futures must hold real numbers, not complex128",
    ),
    "FitDataset-string-futures": (
        lambda: dataset(dtype="U4"), ValueError, "futures must hold real numbers, not <U4"
    ),
    "FitDataset-non-finite-futures": (
        lambda: dataset(first=np.nan), ValueError, "futures contain non-finite values"
    ),
    # finite, but its squared offset overflows; einsum reduces it without a warning
    "FitDataset-overflow": (
        lambda: dataset(t_fut=2, first=1e200),
        ValueError,
        "residual statistics are not finite: a future overflows its offset from the mean",
    ),
    "FitDataset-scenes": (
        lambda: FitDataset.from_scenes([], None), ValueError, "dataset needs at least one scene"
    ),
    "rho_stack-t_fut": (
        lambda: DirectRhoParams.from_rho(EYE2),
        ValueError,
        "t_fut required for a single shared matrix",
    ),
    "DirectRhoParams-raw": (
        lambda: DirectRhoParams(np.zeros((2, 3)), 2),
        ValueError,
        "raw: expected (T, 1), got (2, 3)",
    ),
    "DirectRhoParams-tanh": (
        lambda: DirectRhoParams.from_rho(np.ones((2, 2)), t_fut=1),
        ValueError,
        "tanh parameterization needs |rho| < 1",
    ),
    "finite_difference_gradient-step": (
        lambda: finite_difference_gradient(np.sum, np.zeros(2), 0.0),
        ValueError,
        "step must be positive",
    ),
    "trajectory_nll-shape": (
        lambda: trajectory_nll([joint2()], np.zeros((2, 2))),
        ValueError,
        "observations shape (2, 2) does not match 1 steps",
    ),
    "tikhonov_regularize-nan-delta": (
        lambda: tikhonov_regularize(EYE2, float("nan")),
        ValueError,
        "delta must be finite, got nan",
    ),
    # inf * 0 would turn every off-diagonal entry into NaN, with a warning
    "tikhonov_regularize-inf-delta": (
        lambda: tikhonov_regularize(EYE2, float("inf")),
        ValueError,
        "delta must be finite, got inf",
    ),
    "Marginals-block-negative": (
        lambda: marginals2().block(-1),
        IndexError,
        "agent index -1 out of range for 2 agents",
    ),
    "Marginals-block-past-end": (
        lambda: marginals2().block(2),
        IndexError,
        "agent index 2 out of range for 2 agents",
    ),
    "sample_joint-count": (
        lambda: sample_joint(joint2(), 0, 0), ValueError, "count must be positive"
    ),
    "CorrelationMatrix-agents": (
        lambda: CorrelationMatrix(np.zeros((0, 0))),
        InvalidCorrelationError,
        "correlation matrix needs at least one agent",
    ),
    "IncrementParams-agents": (
        lambda: IncrementParams(mu=np.zeros(0), sigma=np.zeros(0)),
        ValueError,
        "increment parameters need at least one agent",
    ),
    "IncrementParams-mu": (
        lambda: IncrementParams(mu=np.array([-1.0]), sigma=np.array([1.0])),
        ValueError,
        "mean displacements are magnitudes and must be >= 0",
    ),
    "Marginals-agents": (
        lambda: Marginals(*(np.zeros(0) for _ in range(5))),
        ValueError,
        "marginals need at least one agent",
    ),
    "project_increments-current": (
        lambda: project_increments(increments2(), EYE2, THETA2, np.zeros(2)),
        ValueError,
        "current: expected (2, 2), got (2,)",
    ),
    "project_increments-correlation": (
        lambda: project_increments(increments2(), EYE3, THETA2, CURRENT2),
        ValueError,
        "correlation matrix is 3x3, expected 2x2",
    ),
    "assemble_joint-theta": (
        lambda: assemble_joint(marginals2(), EYE2, np.zeros(3)),
        ValueError,
        "theta: expected (2,), got (3,)",
    ),
    "assemble_joint-correlation": (
        lambda: assemble_joint(marginals2(), EYE3, THETA2),
        ValueError,
        "correlation matrix is 3x3, expected 2x2",
    ),
    "projected_marginals-theta": (
        lambda: projected_marginals(increments2(), np.zeros(3), CURRENT2),
        ValueError,
        "theta: expected (2,), got (3,)",
    ),
    "projected_marginals-current": (
        lambda: projected_marginals(increments2(), THETA2, np.zeros((3, 2))),
        ValueError,
        "current: expected (2, 2), got (3, 2)",
    ),
    "RelevanceHead-unpack": (
        lambda: RelevanceHead.unpack(np.zeros(3), 2),
        ValueError,
        "parameter vector has wrong length (3,)",
    ),
    "relevance-features": (
        lambda: relevance_forward_cached(np.full((2, 2), np.nan), RelevanceHead.initialize(2, 0)),
        ValueError,
        "features contain non-finite values",
    ),
    "Scene-past": (
        lambda: Scene(past=np.zeros((0, 1, 2)), future=np.zeros((0, 1, 2)), yaw=np.zeros((0, 1))),
        SceneShapeError,
        "past: expected (N >= 1, t_obs >= 1, 2), got (0, 1, 2)",
    ),
    "Scene-future": (
        lambda: Scene(past=np.zeros((1, 1, 2)), future=np.zeros((1, 0, 2)), yaw=np.zeros((1, 0))),
        SceneShapeError,
        "future: expected (1, t_fut >= 1, 2), got (1, 0, 2)",
    ),
    "ScenarioConfig-noise_sigma": (
        lambda: ScenarioConfig("follow", 2, noise_sigma=-1.0),
        ValueError,
        "noise_sigma must be nonnegative",
    ),
    "ScenarioConfig-heading_noise": (
        lambda: ScenarioConfig("follow", 2, heading_noise=-1.0),
        ValueError,
        "heading_noise must be nonnegative",
    ),
    "ScenarioConfig-boolean": (
        lambda: ScenarioConfig("follow", 2, base_speed=True),
        ValueError,
        "base_speed must be a number, not a boolean",
    ),
    "ScenarioConfig-target_rho-entries": (
        lambda: ScenarioConfig("follow", 2, target_rho=[[1.0, False], [False, 1.0]]),
        SceneFormatError,
        "field 'target_rho' holds a string or boolean, not a number",
    ),
    "json_array-entries": (
        lambda: json_array([[1.0, "0.5"]], "future"),
        SceneFormatError,
        "field 'future' holds a string or boolean, not a number",
    ),
    "scene_from_dict-header": (
        lambda: scene_from_dict(
            {"n": True, "t_obs": 1, "t_fut": 1, "past": [[[0, 0]]], "future": [[[0, 0]]],
             "yaw": [[0]]}
        ),
        SceneFormatError,
        "field 'n' must be a positive integer",
    ),
    "ScenarioConfig-integer": (
        lambda: ScenarioConfig("follow", 2, t_fut=2.5), ValueError, "t_fut must be an integer"
    ),
    "ScenarioConfig-finite": (
        lambda: ScenarioConfig("follow", 2, base_speed=float("inf")),
        ValueError,
        "base_speed must be finite",
    ),
    "ScenarioConfig-seed": (
        lambda: ScenarioConfig("follow", 2, seed=-1), ValueError, "seed must be nonnegative"
    ),
    "checked_array-complex": (
        lambda: checked_array(np.array([1.0 + 0.5j]), "mean", (None,)),
        ValueError,
        "mean must hold real numbers, not complex128",
    ),
    "checked_array-datetime64": (
        lambda: checked_array(np.array(["2020-01-02"], dtype="datetime64[D]"), "mean", (None,)),
        ValueError,
        "mean must hold real numbers, not datetime64[D]",
    ),
    "checked_array-timedelta64": (
        lambda: checked_array(np.array([3], dtype="timedelta64[s]"), "mean", (None,)),
        ValueError,
        "mean must hold real numbers, not timedelta64[s]",
    ),
    "checked_array-string": (
        lambda: Scene(past=[[["0.5", "1"]]], future=np.zeros((1, 1, 2)), yaw=np.zeros((1, 1))),
        SceneShapeError,
        "past must hold real numbers, not <U3",
    ),
    "ScenarioConfig-n_scenes": (
        lambda: ScenarioConfig("follow", 2, n_scenes=0), ValueError, "n_scenes must be >= 1"
    ),
    "correlation_for-scalar": (
        lambda: correlation_for(ScenarioConfig("follow", 2, target_rho=1.5)),
        InvalidCorrelationError,
        "scalar target_rho must lie in [-1, 1]",
    ),
    "correlation_for-matrix": (
        lambda: correlation_for(ScenarioConfig("follow", 2, target_rho=EYE3)),
        InvalidCorrelationError,
        "target_rho matrix must be (2, 2), got (3, 3)",
    ),
    "JointGaussian-asymmetric-cov": (
        lambda: JointGaussian(mean=np.zeros(2), cov=[[1.0, 0.5], [0.0, 1.0]]),
        ValueError,
        "cov is not symmetric (max asymmetry 5.000e-01)",
    ),
    "cholesky_factor-non-finite": (
        lambda: cholesky_factor(np.full((2, 2), np.inf)),
        ValueError,
        "cov contains non-finite values",
    ),
    # every array argument goes through real_array, which names it
    "JointGaussian-complex-cov": (
        lambda: JointGaussian(mean=np.zeros(2), cov=EYE2 + 0.5j),
        ValueError,
        "cov must hold real numbers, not complex128",
    ),
    "CorrelationMatrix-string": (
        lambda: CorrelationMatrix(STRING_EYE2),
        InvalidCorrelationError,
        "rho must hold real numbers, not <U1",
    ),
    "symmetric_matrix-datetime64": (
        lambda: symmetric_matrix(np.zeros((2, 2), dtype="datetime64[D]")),
        ValueError,
        "matrix must hold real numbers, not datetime64[D]",
    ),
    "cholesky_factor-timedelta64": (
        lambda: cholesky_factor(SECONDS_EYE2),
        ValueError,
        "cov must hold real numbers, not timedelta64[s]",
    ),
    "tikhonov_regularize-complex": (
        lambda: tikhonov_regularize(EYE2 + 0.5j, 0.1),
        ValueError,
        "cov must hold real numbers, not complex128",
    ),
    "min_eigenvalue-string": (
        lambda: min_eigenvalue(STRING_EYE2), ValueError, "cov must hold real numbers, not <U1"
    ),
    "scene_nll-complex": (
        lambda: scene_nll(joint2(), np.array([0.0, 1.0j])),
        ValueError,
        "observation must hold real numbers, not complex128",
    ),
    "trajectory_nll-string": (
        lambda: trajectory_nll([joint2()], np.array([["0", "1"]])),
        ValueError,
        "observations must hold real numbers, not <U1",
    ),
    "project_increments-complex-theta": (
        lambda: project_increments(increments2(), EYE2, THETA2 + 0.5j, CURRENT2),
        ValueError,
        "theta must hold real numbers, not complex128",
    ),
    "projected_marginals-timedelta64-current": (
        lambda: projected_marginals(increments2(), THETA2, SECONDS_EYE2),
        ValueError,
        "current must hold real numbers, not timedelta64[s]",
    ),
    "assemble_joint-datetime64-theta": (
        lambda: assemble_joint(marginals2(), EYE2, DATES2),
        ValueError,
        "theta must hold real numbers, not datetime64[D]",
    ),
    "heading_vectors-string": (
        lambda: heading_vectors(np.array(["0.5", "1"])),
        ValueError,
        "theta must hold real numbers, not <U3",
    ),
    "wrap_angle-timedelta64": (
        lambda: wrap_angle(np.array([3, 4], dtype="timedelta64[s]")),
        ValueError,
        "angle must hold real numbers, not timedelta64[s]",
    ),
    "min_joint_ade-complex-modes": (
        lambda: min_joint_ade(np.zeros((1, 1, 1, 2)) + 0.5j, np.zeros((1, 1, 2))),
        ValueError,
        "modes must hold real numbers, not complex128",
    ),
    "min_joint_fde-string-ground-truth": (
        lambda: min_joint_fde(np.zeros((1, 1, 1, 2)), np.array([[["0", "1"]]])),
        ValueError,
        "ground truth must hold real numbers, not <U1",
    ),
    "increments_from_positions-datetime64": (
        lambda: increments_from_positions(np.zeros((2, 2), dtype="datetime64[D]"), CURRENT2, THETA2),
        ValueError,
        "positions must hold real numbers, not datetime64[D]",
    ),
    "empirical_increment_pcc-complex": (
        lambda: empirical_increment_pcc(np.array([[0.0, 1.0], [1.0, 0.5j]])),
        ValueError,
        "samples must hold real numbers, not complex128",
    ),
    "DirectRhoParams-string-raw": (
        lambda: DirectRhoParams(np.array([["0.5"]]), 2),
        ValueError,
        "raw must hold real numbers, not <U3",
    ),
    "DirectRhoParams-from_rho-complex": (
        lambda: DirectRhoParams.from_rho(EYE2 + 0.5j, t_fut=1),
        ValueError,
        "rho must hold real numbers, not complex128",
    ),
    "UnitRowRhoParams-from_rho-timedelta64": (
        lambda: UnitRowRhoParams.from_rho(SECONDS_EYE2, t_fut=1),
        ValueError,
        "rho must hold real numbers, not timedelta64[s]",
    ),
    "DirectRhoParams-with_vector-string": (
        lambda: DirectRhoParams.zeros(1, 2).with_vector(np.array(["0.5"])),
        ValueError,
        "vector must hold real numbers, not <U3",
    ),
    "finite_difference_gradient-complex": (
        lambda: finite_difference_gradient(np.sum, np.array([0.0, 0.5j]), 1e-6),
        ValueError,
        "x must hold real numbers, not complex128",
    ),
    "relative_gradient_errors-datetime64": (
        lambda: relative_gradient_errors(np.zeros(2), DATES2),
        ValueError,
        "numeric must hold real numbers, not datetime64[D]",
    ),
    "RelevanceHead-timedelta64": (
        lambda: RelevanceHead(
            **{**vars(RelevanceHead.initialize(2, 0)), "w_key": SECONDS_EYE2}
        ),
        ValueError,
        "w_key must hold real numbers, not timedelta64[s]",
    ),
    "RelevanceHead-unpack-complex": (
        lambda: RelevanceHead.unpack(np.zeros(24) + 0.5j, 2),
        ValueError,
        "vector must hold real numbers, not complex128",
    ),
    "relevance_forward_cached-string": (
        lambda: relevance_forward_cached(STRING_EYE2, RelevanceHead.initialize(2, 0)),
        ValueError,
        "features must hold real numbers, not <U1",
    ),
    "cosine_gram-complex": (
        lambda: cosine_gram(EYE2 + 0.5j), ValueError, "features must hold real numbers, not complex128"
    ),
    "cosine_gram_backward-datetime64": (
        lambda: cosine_gram_backward(np.zeros((2, 2), dtype="datetime64[D]"), EYE2, np.ones(2)),
        ValueError,
        "d_rho must hold real numbers, not datetime64[D]",
    ),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(CHECKS))
def test_check_raises_its_error_and_message(name):
    call, error, fragment = CHECKS[name]
    with pytest.raises(error, match=re.escape(fragment)):
        call()

