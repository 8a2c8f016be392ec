"""Joint Gaussian modeling of multi-agent motion.

Builds scene-level joint Gaussian distributions over agent positions
from per-agent marginals plus one increment correlation per agent pair,
evaluates and optimizes the scene-level negative log-likelihood, and
scores multi-mode predictions with joint displacement metrics.
"""

from .fit import (
    FitConfig,
    FitDataset,
    FitReport,
    DirectRhoParams,
    RelevanceParams,
    StepFactorizationError,
    UnitRowRhoParams,
    fit_parameters,
    finite_difference_gradient,
    grad_nll,
    gradient_check,
    nll_objective,
)
from .gaussian import (
    CholeskyFactor,
    JointGaussian,
    NotPositiveDefiniteError,
    cholesky_factor,
    marginalize_agent,
    min_eigenvalue,
    sample_joint,
    scene_nll,
    tikhonov_regularize,
    trajectory_nll,
)
from .increments import (
    CorrelationMatrix,
    IncrementParams,
    InvalidCorrelationError,
    Marginals,
    assemble_joint,
    equivalence_check,
    heading_vectors,
    pair_count,
    planar_pair_count,
    project_increments,
    projected_marginals,
    reconstruct_cross_correlations,
    wrap_angle,
)
from .metrics import MetricResult, min_joint_ade, min_joint_fde
from .relevance import DegenerateFeatureError, RelevanceHead
from .scene import (
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
from .synthetic import (
    ScenarioConfig,
    SceneTruth,
    YawErrorStats,
    correlation_for,
    empirical_increment_pcc,
    generate_scene,
    generate_scenes,
    increments_from_positions,
    sample_future_positions,
    yaw_error_distribution,
)

__version__ = "0.1.0"
