"""Increment-correlation core.

Cross-agent interaction is parameterized by a single correlation per
agent pair, measured between the agents' one-dimensional displacement
increments from the current position. This module turns that compact
parameterization back into full planar joint Gaussians along given
headings: projection of increment distributions onto the x-y plane,
reconstruction of the four planar correlation signs per pair, and
assembly of the 2N x 2N covariance from per-agent marginals. Every
heading's cos/sin comes from :func:`heading_vectors`.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .gaussian import JointGaussian, min_eigenvalue, symmetric_matrix
from .scene import checked_array


class InvalidCorrelationError(ValueError):
    """A matrix violates the correlation-matrix invariants."""


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Symmetric N x N correlation matrix with unit diagonal, entries in [-1, 1].

    Holds one scalar per agent pair: the correlation between the two
    agents' 1-D displacement increments at a given future step.
    """

    rho: np.ndarray

    def __post_init__(self):
        rho = symmetric_matrix(self.rho, "correlation matrix", InvalidCorrelationError)
        if not rho.size:
            raise InvalidCorrelationError("correlation matrix needs at least one agent")
        if np.abs(rho.diagonal() - 1.0).max() > 1e-12:
            raise InvalidCorrelationError("correlation matrix diagonal must be 1")
        # the entries as given: symmetrizing can pull one that lies within
        # 1e-12 of +-1 back into range
        if np.abs(np.asarray(self.rho, dtype=np.float64)).max() > 1.0:
            raise InvalidCorrelationError("correlation entries must lie in [-1, 1]")
        object.__setattr__(self, "rho", rho)

    @property
    def n_agents(self) -> int:
        return self.rho.shape[0]

    def min_eigenvalue(self) -> float:
        return min_eigenvalue(self.rho)

    def is_positive_semidefinite(self, tol: float = 1e-9) -> bool:
        return self.min_eigenvalue() >= -tol


@dataclass(frozen=True, eq=False)
class IncrementParams:
    """Per-agent 1-D displacement distribution at one future step.

    ``mu`` are displacement magnitudes (nonnegative), ``sigma`` their
    standard deviations (positive), both in meters.
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = checked_array(self.mu, "mu", (None,))
        sigma = checked_array(self.sigma, "sigma", mu.shape)
        if mu.size < 1:
            raise ValueError("increment parameters need at least one agent")
        if np.any(mu < 0.0):
            raise ValueError("mean displacements are magnitudes and must be >= 0")
        if np.any(sigma <= 0.0):
            raise ValueError("displacement sigmas must be positive")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_agents(self) -> int:
        return self.mu.size


@dataclass(frozen=True, eq=False)
class Marginals:
    """Per-agent planar Gaussian parameters at one future step.

    Each agent's 2x2 block is [[sx^2, r sx sy], [r sx sy, sy^2]]. Blocks
    may be singular: marginals obtained by projecting 1-D increments have
    |r| = 1 (or a zero sigma for axis-aligned motion), which is exactly
    the rank deficiency the regularization step exists to absorb.
    """

    mu_x: np.ndarray
    mu_y: np.ndarray
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    rho_xy: np.ndarray

    def __post_init__(self):
        names = ("mu_x", "mu_y", "sigma_x", "sigma_y", "rho_xy")
        given = [getattr(self, name) for name in names]
        try:
            # one copy, one finiteness pass, one read-only flag; the fields
            # are the rows of this block
            block = checked_array(given, "marginals", (5, None))
        except (ValueError, TypeError):
            # field by field, to name the bad one: first any field that is
            # not a finite vector, then any whose length most fields lack
            rows = [checked_array(value, name, (None,)) for name, value in zip(names, given)]
            sizes = [row.size for row in rows]
            length = max(sizes, key=sizes.count)
            for name, row in zip(names, rows):
                checked_array(row, name, (length,))
            raise
        if block.shape[1] < 1:
            raise ValueError("marginals need at least one agent")
        if block[2:4].min() < 0.0:
            raise ValueError("sigmas must be nonnegative")
        if np.abs(block[4]).max() > 1.0:
            raise ValueError("rho_xy entries must lie in [-1, 1]")
        for name, row in zip(names, block):
            object.__setattr__(self, name, row)

    @property
    def n_agents(self) -> int:
        return self.mu_x.size

    def mean_vector(self) -> np.ndarray:
        """(2N,) mean in the interleaved [x1, y1, ...] layout."""
        out = np.empty(2 * self.n_agents)
        out[0::2] = self.mu_x
        out[1::2] = self.mu_y
        return out

    def block(self, i: int) -> np.ndarray:
        """The 2x2 covariance block of agent ``i``."""
        sx = self.sigma_x[i]
        sy = self.sigma_y[i]
        cross = self.rho_xy[i] * sx * sy
        return np.array([[sx * sx, cross], [cross, sy * sy]])


def wrap_angle(angle):
    """Wrap angles to (-pi, pi]."""
    wrapped = np.remainder(np.asarray(angle, dtype=np.float64) + np.pi, 2.0 * np.pi) - np.pi
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    return float(wrapped) if np.ndim(angle) == 0 else wrapped


def _as_correlation(corr: Union[CorrelationMatrix, np.ndarray]) -> CorrelationMatrix:
    if isinstance(corr, CorrelationMatrix):
        return corr
    return CorrelationMatrix(np.asarray(corr))


def heading_vectors(theta) -> np.ndarray:
    """Unit heading vectors [cos t, sin t], shape ``theta.shape + (2,)``.

    For (N,) headings, ``.reshape(-1)`` is the planar joint's interleaved
    layout [cos t1, sin t1, cos t2, ...], and its sign the agents' sign
    pattern. Written into one buffer, which saves the copy a stack of two
    arrays makes on every per-step call.
    """
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty(theta.shape + (2,))
    np.cos(theta, out=out[..., 0])
    np.sin(theta, out=out[..., 1])
    return out


def project_increments(
    inc: IncrementParams,
    corr: Union[CorrelationMatrix, np.ndarray],
    theta: np.ndarray,
    current: np.ndarray,
) -> JointGaussian:
    """Project 1-D increment distributions onto the plane along headings.

    The mean is the current position plus the rotated mean displacement;
    the covariance is the congruence of the replicated increment
    covariance with the block-diagonal cos/sin rotation, equivalently

        cov[2i+a, 2j+b] = rho[i, j] * sigma_i * sigma_j * trig_a(i) * trig_b(j)

    with trig_0 = cos and trig_1 = sin. The result has rank at most N
    (each agent moves on a line), so callers must regularize before any
    factorization or sampling.
    """
    corr = _as_correlation(corr)
    theta = np.asarray(theta, dtype=np.float64)
    current = np.asarray(current, dtype=np.float64)
    n = inc.n_agents
    if theta.shape != (n,):
        raise ValueError(f"theta: expected ({n},), got {theta.shape}")
    if current.shape != (n, 2):
        raise ValueError(f"current: expected ({n}, 2), got {current.shape}")
    if corr.n_agents != n:
        raise ValueError(
            f"correlation matrix is {corr.n_agents}x{corr.n_agents}, expected {n}x{n}"
        )
    trig = heading_vectors(theta).reshape(-1)
    scaled = trig * np.repeat(inc.sigma, 2)
    cov = np.outer(scaled, scaled) * corr.rho.repeat(2, 0).repeat(2, 1)
    mean = current.reshape(-1) + trig * np.repeat(inc.mu, 2)
    return JointGaussian(mean=mean, cov=cov)


def reconstruct_cross_correlations(
    rho_delta: float, theta_i: float, theta_j: float
) -> np.ndarray:
    """Planar correlation signs for one agent pair.

    Returns the 2x2 matrix [[r_xx, r_xy], [r_yx, r_yy]] where each entry
    is ``rho_delta`` times the sign of the matching cos/sin product of
    the two headings. sgn(0) is taken as 0, so an axis-aligned agent
    contributes no correlation along its orthogonal axis. Each entry is
    the sign of a product: a product of signs gives -0.0 for 0.0 at
    headings (-0.0, pi).

    Raises:
        ValueError: ``rho_delta`` is outside [-1, 1] or a heading is not finite.
    """
    if not -1.0 <= rho_delta <= 1.0:
        raise ValueError("rho_delta must lie in [-1, 1]")
    if not (math.isfinite(theta_i) and math.isfinite(theta_j)):
        raise ValueError("headings must be finite")
    u_i, u_j = heading_vectors([theta_i, theta_j])
    return rho_delta * np.sign(np.outer(u_i, u_j))


def assemble_joint(
    marg: Marginals,
    corr: Union[CorrelationMatrix, np.ndarray],
    theta: np.ndarray,
) -> JointGaussian:
    """Extend per-agent marginals to a full joint Gaussian for one step.

    Diagonal 2x2 blocks are exactly the marginal blocks. The (i, j)
    off-diagonal block carries ``corr.rho[i, j]`` times the reconstructed
    sign pattern of the two headings, scaled by the marginal sigmas. The
    result is not regularized; consumers add delta * I before inverting.
    """
    corr = _as_correlation(corr)
    theta = np.asarray(theta, dtype=np.float64)
    n = marg.n_agents
    if theta.shape != (n,):
        raise ValueError(f"theta: expected ({n},), got {theta.shape}")
    if corr.n_agents != n:
        raise ValueError(
            f"correlation matrix is {corr.n_agents}x{corr.n_agents}, expected {n}x{n}"
        )
    sigma = np.empty(2 * n)
    sigma[0::2] = marg.sigma_x
    sigma[1::2] = marg.sigma_y
    signed_sigma = np.sign(heading_vectors(theta).reshape(-1)) * sigma
    cov = np.outer(signed_sigma, signed_sigma) * corr.rho.repeat(2, 0).repeat(2, 1)
    x, y = np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)
    cross = marg.rho_xy * marg.sigma_x * marg.sigma_y
    cov[x, x] = marg.sigma_x * marg.sigma_x
    cov[x, y] = cross
    cov[y, x] = cross
    cov[y, y] = marg.sigma_y * marg.sigma_y
    return JointGaussian(mean=marg.mean_vector(), cov=cov)


def projected_marginals(
    inc: IncrementParams, theta: np.ndarray, current: np.ndarray
) -> Marginals:
    """Per-agent marginals implied by projecting 1-D increments along headings.

    sx = |cos t| sigma, sy = |sin t| sigma, r_xy = sgn(cos t) sgn(sin t);
    the means are the current positions advanced by the rotated mean
    displacement. The implied blocks are rank one.
    """
    theta = np.asarray(theta, dtype=np.float64)
    current = np.asarray(current, dtype=np.float64)
    n = inc.n_agents
    if theta.shape != (n,):
        raise ValueError(f"theta: expected ({n},), got {theta.shape}")
    if current.shape != (n, 2):
        raise ValueError(f"current: expected ({n}, 2), got {current.shape}")
    c, s = heading_vectors(theta).T
    return Marginals(
        mu_x=current[:, 0] + c * inc.mu,
        mu_y=current[:, 1] + s * inc.mu,
        sigma_x=np.abs(c) * inc.sigma,
        sigma_y=np.abs(s) * inc.sigma,
        rho_xy=np.sign(c) * np.sign(s),
    )


def equivalence_check(
    inc: IncrementParams,
    corr: Union[CorrelationMatrix, np.ndarray],
    theta: np.ndarray,
    current: np.ndarray,
    approx_theta: Optional[np.ndarray] = None,
) -> float:
    """Max absolute covariance deviation between the two construction routes.

    Route one projects the increment distribution directly with the true
    headings ``theta``. Route two derives per-agent marginals from the
    increments and reassembles the joint through the sign-pattern
    reconstruction, using ``approx_theta`` (defaults to ``theta``). The
    routes agree to rounding when the approximate headings equal the
    true ones, and drift apart continuously as they are perturbed.
    """
    if approx_theta is None:
        approx_theta = theta
    approx_theta = np.asarray(approx_theta, dtype=np.float64)
    direct = project_increments(inc, corr, np.asarray(theta, dtype=np.float64), current)
    marg = projected_marginals(inc, approx_theta, current)
    assembled = assemble_joint(marg, corr, approx_theta)
    return float(np.max(np.abs(direct.cov - assembled.cov)))


def pair_count(n_agents: int) -> int:
    """Number of stored cross-agent parameters: one scalar per pair."""
    return n_agents * (n_agents - 1) // 2


def planar_pair_count(n_agents: int) -> int:
    """Cross-agent parameters a four-correlation planar parameterization stores."""
    return 4 * pair_count(n_agents)
