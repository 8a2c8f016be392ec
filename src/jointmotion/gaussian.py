"""Joint Gaussian numerics: regularization, Cholesky factorization,
scene-level negative log-likelihood, sampling, and marginalization.

The joint distribution over one time step is a 2N-dimensional Gaussian
whose coordinate layout interleaves agents as [x1, y1, x2, y2, ...].
All heavy math runs in 64-bit floats; the log-likelihood goes through a
Cholesky factor (triangular solves), never an explicit inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from .scene import checked_array, real_array

LOG_TWO_PI = float(np.log(2.0 * np.pi))

# Construction-time symmetry tolerance; reconstruction formulas produce
# asymmetries no larger than a few ulps.
SYMMETRY_ATOL = 1e-12

# Entries up to this size add to a finite sum.
_HALF_MAX = float(np.finfo(np.float64).max) / 2.0


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Cholesky factorization failed.

    ``pivot`` is the 0-based index of the first failing pivot.
    """

    def __init__(self, pivot: int):
        self.pivot = int(pivot)
        super().__init__(
            f"matrix is not positive definite (failing pivot index {self.pivot})"
        )


def _square(arr: np.ndarray, error: type) -> np.ndarray:
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise error(f"expected a square matrix, got shape {arr.shape}")
    return arr


def symmetric_matrix(value, name: str = "matrix", error: type = ValueError) -> np.ndarray:
    """``value`` as a read-only symmetric float64 matrix, (S + S^T) / 2.

    S must be square, finite and symmetric to ``SYMMETRY_ATOL``; ``error``
    is raised when it is not. The result is a new array, so the caller's
    stays writable and unchanged. Where S + S^T overflows, the two entries
    passed the symmetry check and so are equal: the entry is kept as given.
    """
    arr = _square(real_array(value, name, error), error)
    peak = np.abs(arr).max(initial=0.0)  # NaN if any entry is NaN
    if not math.isfinite(peak):
        raise error(f"{name} contains non-finite values")
    with np.errstate(over="ignore"):  # S - S^T and S + S^T overflow only above _HALF_MAX
        diff = arr - arr.T
        asym = np.abs(diff, out=diff).max(initial=0.0)
        if asym > SYMMETRY_ATOL:
            raise error(f"{name} is not symmetric (max asymmetry {asym:.3e})")
        sym = arr + arr.T
    sym /= 2.0
    if peak > _HALF_MAX:
        np.copyto(sym, arr, where=np.isinf(sym))
    sym.setflags(write=False)
    return sym


@dataclass(frozen=True, eq=False)
class JointGaussian:
    """Joint distribution over all agent positions at one time step.

    The covariance is symmetrized ((S + S^T)/2) on construction. Positive
    semidefiniteness is not enforced here: assembled covariances may be
    singular or slightly indefinite by design and are regularized by the
    consumer before any factorization.

    Attributes:
        mean: (2N,) positions, interleaved [x1, y1, ..., xN, yN].
        cov: (2N, 2N) covariance.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = checked_array(self.mean, "mean", (None,))
        if mean.size < 2 or mean.size % 2 != 0:
            raise ValueError(f"mean must have even length >= 2, got shape {mean.shape}")
        cov = symmetric_matrix(self.cov, "cov")
        if cov.shape[0] != mean.size:
            raise ValueError(
                f"cov shape {cov.shape} does not match mean length {mean.size}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def n_agents(self) -> int:
        return self.mean.size // 2

    @cached_property
    def factor(self) -> CholeskyFactor:
        """The covariance's Cholesky factor, computed on first use; the
        covariance is read-only, so it never goes stale. A covariance that
        is not positive definite raises on every access."""
        return cholesky_factor(self.cov)


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """Lower-triangular factor L with L L^T equal to the factored matrix."""

    lower: np.ndarray
    log_det: float


def tikhonov_regularize(cov: np.ndarray, delta: float) -> np.ndarray:
    """Return ``cov + delta * I``; off-diagonal entries are untouched.

    A NaN or infinite ``delta`` raises ``ValueError``: it would reach the
    off-diagonal entries through ``delta * 0``.
    """
    cov = _square(real_array(cov, "cov"), ValueError)
    if not np.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    return cov + delta * np.eye(cov.shape[0])


def cholesky_factor(cov: np.ndarray) -> CholeskyFactor:
    """Factor a symmetric positive definite matrix as L L^T.

    Raises:
        NotPositiveDefiniteError: with the index of the failing pivot.
        ValueError: input that :func:`symmetric_matrix` rejects; what it
            accepts is factored as (S + S^T) / 2.
    """
    cov = symmetric_matrix(cov, "cov")
    lower, info = dpotrf(cov, lower=1, clean=1)
    if info:  # the fixed arguments rule out info < 0 (an illegal argument)
        raise NotPositiveDefiniteError(info - 1)
    log_det = 2.0 * float(np.log(lower.diagonal()).sum())
    return CholeskyFactor(lower=lower, log_det=log_det)


def solve_triangular(lower: np.ndarray, rhs: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve L x = rhs (``trans`` 0) or L^T x = rhs (``trans`` 1) for a
    lower-triangular ``dpotrf`` factor L.

    LAPACK ``dtrtrs`` is called as ``scipy.linalg.solve_triangular(L,
    rhs, lower=True, trans=trans)`` calls it for a Fortran-ordered L, so
    the result is bit-identical, but without that wrapper's per-call input
    checks: callers check finiteness themselves.

    Raises:
        numpy.linalg.LinAlgError: L has a zero diagonal entry.
    """
    x, info = dtrtrs(lower, rhs, lower=1, trans=trans)
    if info != 0:
        # the fixed arguments rule out info < 0 (an illegal argument)
        raise np.linalg.LinAlgError(
            f"singular triangular factor: zero diagonal at index {info - 1}"
        )
    return x


def scene_nll(dist: JointGaussian, observation: np.ndarray) -> float:
    """Negative log-likelihood of one observed step under the joint Gaussian.

    Returns 0.5 * [ln|S| + (f - m)^T S^-1 (f - m) + 2N ln(2 pi)] for a
    single step. The covariance must be positive definite; regularize
    first if it is not.

    Raises:
        NotPositiveDefiniteError: the covariance cannot be factored.
        ValueError: the observation has the wrong shape, or it or its
            residual from the mean is not finite.
    """
    observation = real_array(observation, "observation")
    if observation.shape != (dist.dim,):
        raise ValueError(
            f"observation shape {observation.shape} does not match dimension {dist.dim}"
        )
    factor = dist.factor
    residual = observation - dist.mean
    if not np.all(np.isfinite(residual)):
        raise ValueError("observation minus mean is not finite")
    white = solve_triangular(factor.lower, residual)
    quad = float(white @ white)
    return 0.5 * (factor.log_det + quad + dist.dim * LOG_TWO_PI)


def trajectory_nll(
    dists: Sequence[JointGaussian], observations: np.ndarray
) -> float:
    """Sum of per-step NLL values over a trajectory.

    ``observations`` has shape (T, 2N). Terms are accumulated in step
    order so the result is reproducible bit-for-bit.
    """
    observations = real_array(observations, "observations")
    if observations.ndim != 2 or observations.shape[0] != len(dists):
        raise ValueError(
            f"observations shape {observations.shape} does not match {len(dists)} steps"
        )
    total = 0.0
    for dist, row in zip(dists, observations):
        total += scene_nll(dist, row)
    return total


def sample_joint(dist: JointGaussian, seed: int, count: int) -> np.ndarray:
    """Draw ``count`` samples as mean + L z with z standard normal.

    The generator is numpy's PCG64 seeded with ``seed``; identical seeds
    give identical output. Returns an array of shape (count, 2N).
    """
    if count < 1:
        raise ValueError("count must be positive")
    factor = dist.factor
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, dist.dim))
    return dist.mean + z @ factor.lower.T


def marginalize_agent(dist: JointGaussian, agent_index: int) -> JointGaussian:
    """Extract one agent's 2-D marginal (mean slice and diagonal block)."""
    n = dist.n_agents
    if not 0 <= agent_index < n:
        raise IndexError(f"agent index {agent_index} out of range for {n} agents")
    sl = slice(2 * agent_index, 2 * agent_index + 2)
    return JointGaussian(mean=dist.mean[sl], cov=dist.cov[sl, sl])


def min_eigenvalue(cov: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (diagnostic helper)."""
    return float(np.linalg.eigvalsh(real_array(cov, "cov"))[0])
