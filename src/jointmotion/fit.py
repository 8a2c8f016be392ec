"""Maximum-likelihood recovery of increment correlations.

The objective is the scene-level negative log-likelihood of observed
futures under per-step joint Gaussians assembled from fixed ground-truth
marginals and headings; only the cross-agent correlation parameters (or
the relevance head producing them) are free. Keeping the marginals
pinned isolates the cross-agent structure from regression quality.

Both fits take their correlations from one map, the cosine similarity
of rows (``relevance.cosine_gram``): the relevance head's output rows, or
for ``direct-rho`` the rows of a unit-diagonal lower-triangular matrix
whose strictly-lower entries are the parameters. Either way every
parameter vector gives a positive semidefinite correlation matrix.

The fit works in the N x N along-heading space. Projected marginals make
each regularized step covariance delta I + U R U^T with U = Q Sigma, Q the
agents' orthonormal heading vectors; in the basis [along, lateral] it is
block-diagonal, A = delta I + Sigma R Sigma on the along-heading
residuals and delta I on the lateral ones, whose term depends on delta
only. The dense 2N x 2N joint of ``assemble_joint`` is the reference.

Gradients are analytic: for each step, dNLL/dR = 0.5 Sigma (A^-1 -
A^-1 S A^-1) Sigma with S the mean along-heading residual outer product,
chained through cosine similarity (``relevance.cosine_gram_backward``)
and, for the relevance head, the feature transform and attention. The
optimizer is Adam (beta1 0.9, beta2 0.999, eps 1e-8), fully
deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.linalg.lapack import dpotrf

from .gaussian import LOG_TWO_PI, NotPositiveDefiniteError, solve_triangular
from .increments import IncrementParams, Marginals, heading_vectors, pair_count, projected_marginals
from .relevance import (
    DegenerateFeatureError,
    RelevanceHead,
    cosine_gram,
    cosine_gram_backward,
    relevance_backward,
    relevance_forward_cached,
)
from .scene import Scene, check_numbers, checked_array, json_fields
from .synthetic import SceneTruth, ScenarioConfig, sample_future_positions

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

PARAMETERIZATIONS = ("direct-rho", "relevance-head")

# bytes of offsets from the means that FitDataset forms at once: 85
# futures at N=64, T=12
_CHUNK_BYTES = 1 << 20


class StepFactorizationError(NotPositiveDefiniteError):
    """A per-step covariance could not be factored during fitting.

    ``pivot`` indexes the [along-heading, lateral] basis: agents' along
    components are 0..N-1 and their lateral components N..2N-1.
    """

    def __init__(self, step: int, pivot: int):
        NotPositiveDefiniteError.__init__(self, pivot)
        self.step = step
        self.args = (
            f"covariance at future step {step} is not positive definite "
            f"(failing pivot index {pivot}); increase delta_reg",
        )


@dataclass
class FitConfig:
    """Optimizer and model settings for a fit run."""

    learning_rate: float = 0.05
    max_iters: int = 500
    delta_reg: float = 1e-4
    parameterization: str = "direct-rho"
    seed: int = 0
    convergence_tol: float = 1e-9
    feature_dim: int = 8

    def __post_init__(self):
        check_numbers(
            self,
            ("max_iters", "seed", "feature_dim"),
            ("learning_rate", "delta_reg", "convergence_tol"),
        )
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.delta_reg < 0.0:
            raise ValueError("delta_reg must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.parameterization not in PARAMETERIZATIONS:
            raise ValueError(
                f"parameterization must be one of {PARAMETERIZATIONS}, "
                f"got {self.parameterization!r}"
            )
        if self.convergence_tol < 0.0:
            raise ValueError("convergence_tol must be nonnegative")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FitConfig":
        return cls(**json_fields(payload, "fit config", allowed=cls.__dataclass_fields__))


@dataclass
class FitReport:
    """Outcome of a fit: trace, recovered correlations, failure status.

    ``stop_reason`` says why the optimizer stopped: ``"convergence_tol"``
    (the objective changed by less than the tolerance), ``"max_iters"``
    (the iteration cap) or ``"failure"`` (see ``failure_reason``).
    """

    final_nll: float
    nll_trace: np.ndarray
    recovered_rho: np.ndarray
    iterations_run: int
    delta_reg_used: float
    parameterization: str
    stop_reason: str
    failure_flag: bool = False
    failure_reason: Optional[str] = None

    def to_dict(self) -> dict:
        """The report's JSON payload for :func:`write_json`: ``nll_trace`` and
        ``recovered_rho`` stay float64 arrays, so ``json.dumps`` rejects it."""
        final = self.final_nll
        # strict JSON: a failed fit has no final objective value
        return {**asdict(self), "final_nll": None if np.isnan(final) else float(final)}


class FitDataset:
    """Observed futures of one scene family, with its fixed ground truth.

    All futures share the current positions, per-step headings and
    increment parameters; only the realized futures differ. Sufficient
    statistics are precomputed so one objective evaluation costs
    O(T N^3) regardless of the number of futures: ``residuals`` (K, T, N)
    are the futures' offsets from the marginal means along each agent's
    heading, ``scatter`` (T, N, N) their mean outer product, and
    ``lateral_ss`` (T,) the mean sum of squared offsets across the
    headings. Each entry of ``scatter`` and ``lateral_ss`` is a sum in
    order over the futures, divided by K; the scatter's lower triangle is
    summed one agent's row at a time and mirrored into the upper one, so
    each pair is summed once and the result is bit-identical to the full
    product, except at T=1 beyond about 8,000 futures.

    The futures are reduced in consecutive chunks of about 1 MiB of
    offsets (85 futures at N=64, T=12), so the build holds no (K, T, N, 2)
    offsets or (K, T, N) lateral offsets: each chunk writes its rows of
    ``residuals`` and each future's per-step sum of squared lateral
    offsets, which are then summed over futures in order. Its peak is the
    arrays it keeps plus one chunk. At T=1, where einsum sums all K N
    squared lateral offsets in one pass, those offsets are kept whole.

    :meth:`latents` draws a relevance head's inputs at its width (``feature_dim``).
    """

    def __init__(
        self,
        current: np.ndarray,
        theta: np.ndarray,
        mu_delta: np.ndarray,
        sigma_delta: np.ndarray,
        futures: np.ndarray,
    ):
        self.current = checked_array(current, "current", (None, 2))
        n = self.current.shape[0]
        if n < 1:
            raise ValueError("dataset needs at least one agent")
        self.theta = checked_array(theta, "theta", (None, n))
        t_fut = self.theta.shape[0]
        self.mu_delta = checked_array(mu_delta, "mu_delta", (t_fut, n))
        self.sigma_delta = checked_array(sigma_delta, "sigma_delta", (t_fut, n))
        # not copied: K futures can outweigh everything else the fit holds;
        # the residual statistics below are checked for finiteness instead
        self.futures = np.asarray(futures, dtype=np.float64)
        if self.futures.ndim != 4 or self.futures.shape[1:] != (n, t_fut, 2):
            raise ValueError(
                f"futures: expected (K, {n}, {t_fut}, 2), got {self.futures.shape}"
            )
        if self.futures.shape[0] == 0:
            raise ValueError("dataset needs at least one future")
        if np.any(self.sigma_delta <= 0.0):
            raise ValueError("fitting needs strictly positive increment sigmas")

        self.n_agents = n
        self.t_fut = t_fut
        self.n_futures = self.futures.shape[0]

        self.marginals: List[Marginals] = [
            projected_marginals(
                IncrementParams(mu=self.mu_delta[t], sigma=self.sigma_delta[t]),
                self.theta[t],
                self.current,
            )
            for t in range(t_fut)
        ]
        means = np.stack([np.stack([m.mu_x, m.mu_y], axis=-1) for m in self.marginals])
        along = heading_vectors(self.theta)
        across = along[..., ::-1] * [-1.0, 1.0]  # the lateral unit vectors [-sin, cos]
        k = self.n_futures
        self.residuals = np.empty((k, t_fut, n))
        # einsum sums the squared lateral offsets one future's row at a time,
        # in order over futures, except at T=1, where it sums all K N of them
        # in one pass: there the lateral offsets are kept whole, for its bits
        whole = t_fut == 1
        chunk = min(k, max(1, _CHUNK_BYTES // means.nbytes))
        offsets = np.empty((chunk, t_fut, n, 2))
        lateral = np.empty((k if whole else chunk, t_fut, n))
        lateral_rows = np.empty((k, t_fut))
        for start in range(0, k, chunk):
            stop = min(start + chunk, k)
            here = offsets[: stop - start]
            # copied, then offset in place: subtracting from the transposed
            # view buffers twice as much, and takes longer
            here[...] = self.futures[start:stop].transpose(0, 2, 1, 3)
            here -= means
            np.einsum("ktnc,tnc->ktn", here, along, out=self.residuals[start:stop])
            if whole:
                np.einsum("ktnc,tnc->ktn", here, across, out=lateral[start:stop])
            else:
                across_here = np.einsum("ktnc,tnc->ktn", here, across, out=lateral[: stop - start])
                np.einsum("ktn,ktn->kt", across_here, across_here, out=lateral_rows[start:stop])
        # each row's lower part once, mirrored: the scatter is symmetric
        self.scatter = np.empty((t_fut, n, n))
        for a in range(n):
            row = np.einsum("kt,ktb->tb", self.residuals[:, :, a], self.residuals[:, :, : a + 1])
            self.scatter[:, a, : a + 1] = row
            self.scatter[:, : a + 1, a] = row
        self.scatter /= self.n_futures
        if whole:
            lateral_ss = np.einsum("ktn,ktn->t", lateral, lateral)
        else:
            lateral_ss = np.einsum("kt->t", lateral_rows)
        self.lateral_ss = lateral_ss / k
        if not (np.all(np.isfinite(self.scatter)) and np.all(np.isfinite(self.lateral_ss))):
            if not np.all(np.isfinite(self.futures)):
                raise ValueError("futures contain non-finite values")
            raise ValueError(
                "residual statistics are not finite: a future overflows its offset from the mean"
            )

        self._latents = {}  # width -> latents, drawn on first use

    def latents(self, width: int) -> np.ndarray:
        """Read-only (T, N, width) stand-in backbone features for a head of
        that width: PCG64 standard normals seeded with 0, drawn once per
        dataset and width (concurrent first calls draw equal values)."""
        if width not in self._latents:
            latents = np.random.default_rng(0).standard_normal((self.t_fut, self.n_agents, width))
            latents.setflags(write=False)
            self._latents[width] = latents
        return self._latents[width]

    @classmethod
    def from_scenes(cls, scenes: Sequence[Scene], truth: SceneTruth) -> "FitDataset":
        """Build from scenes sharing one family (identical past and yaw)."""
        if not scenes:
            raise ValueError("dataset needs at least one scene")
        first = scenes[0]
        for scene in scenes[1:]:
            if not (
                np.array_equal(scene.past, first.past)
                and np.array_equal(scene.yaw, first.yaw)
            ):
                raise ValueError("scenes do not share one past/yaw family")
        futures = np.stack([scene.future for scene in scenes])
        return cls(
            current=first.current,
            theta=first.yaw.T,
            mu_delta=truth.mu_delta,
            sigma_delta=truth.sigma_delta,
            futures=futures,
        )

    @classmethod
    def from_config(cls, config: ScenarioConfig, n_futures: int) -> "FitDataset":
        """Sample a family directly, skipping Scene object construction.

        Requires zero heading noise so all futures share one set of
        per-step headings.
        """
        if config.heading_noise != 0.0:
            raise ValueError("fit datasets need heading_noise == 0 (shared headings)")
        if n_futures < 1:
            raise ValueError("n_futures must be >= 1")
        futures, yaws, current, truth = sample_future_positions(config, n_futures)
        return cls(
            current=current,
            theta=yaws[0].T,
            mu_delta=truth.mu_delta,
            sigma_delta=truth.sigma_delta,
            futures=futures,
        )


@lru_cache(maxsize=None)
def _pair_indices(n: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(n, 1)`` (``k`` 1) or
    ``np.tril_indices(n, -1)`` (``k`` -1), computed once per N."""
    rows, cols = np.triu_indices(n, k) if k > 0 else np.tril_indices(n, k)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _rho_stack(rho: np.ndarray, t_fut: Optional[int]) -> np.ndarray:
    """One (N, N) matrix shared by ``t_fut`` steps, or a (T, N, N) stack."""
    rho = np.asarray(rho, dtype=np.float64)
    if rho.ndim == 2:
        if t_fut is None:
            raise ValueError("t_fut required for a single shared matrix")
        rho = np.broadcast_to(rho, (t_fut,) + rho.shape)
    return rho


class DirectRhoParams:
    """Per-step pair correlations through a tanh map.

    Stores one unconstrained scalar per agent pair and future step;
    tanh keeps every correlation inside (-1, 1) with smooth gradients
    near the boundary. That is N (N - 1) / 2 stored cross-agent scalars
    per step, against 4 N (N - 1) / 2 for a four-correlation planar
    parameterization.

    The tanh map bounds each correlation but not the matrix: many
    parameter vectors give an indefinite rho. ``direct-rho`` fits
    therefore run :class:`UnitRowRhoParams`; this class evaluates the
    objective at a given rho, indefinite warm starts included.
    """

    def __init__(self, raw: np.ndarray, n_agents: int):
        raw = np.asarray(raw, dtype=np.float64)
        n_pairs = pair_count(n_agents)
        if raw.ndim != 2 or raw.shape[1] != n_pairs:
            raise ValueError(f"raw: expected (T, {n_pairs}), got {raw.shape}")
        self.raw = raw
        self.n_agents = n_agents
        self.t_fut = raw.shape[0]

    @classmethod
    def zeros(cls, t_fut: int, n_agents: int) -> "DirectRhoParams":
        return cls(np.zeros((t_fut, pair_count(n_agents))), n_agents)

    @classmethod
    def from_rho(cls, rho: np.ndarray, t_fut: Optional[int] = None) -> "DirectRhoParams":
        """Initialize at given correlations (|rho| < 1), one (N, N) matrix
        shared by all steps or a (T, N, N) stack."""
        rho = _rho_stack(rho, t_fut)
        n = rho.shape[1]
        iu, ju = _pair_indices(n, 1)
        pairs = rho[:, iu, ju]
        if np.any(np.abs(pairs) >= 1.0):
            raise ValueError("tanh parameterization needs |rho| < 1")
        return cls(np.arctanh(pairs), n)

    def vector(self) -> np.ndarray:
        return self.raw.ravel().copy()

    def with_vector(self, vector: np.ndarray) -> "DirectRhoParams":
        return type(self)(
            np.asarray(vector, dtype=np.float64).reshape(self.raw.shape), self.n_agents
        )

    def _forward(self):
        """(T, N, N) correlations, and what :meth:`_raw_grad` needs of them."""
        n = self.n_agents
        iu, ju = _pair_indices(n, 1)
        rho = np.tile(np.eye(n), (self.t_fut, 1, 1))
        values = np.tanh(self.raw)
        rho[:, iu, ju] = values
        rho[:, ju, iu] = values
        return rho, None

    def _raw_grad(self, d_rho: np.ndarray, cache) -> np.ndarray:
        """Chain a (T, N, N) gradient over rho entries back to ``raw``."""
        iu, ju = _pair_indices(self.n_agents, 1)
        pair_grad = d_rho[:, iu, ju] + d_rho[:, ju, iu]
        return pair_grad * (1.0 - np.tanh(self.raw) ** 2)

    def rho_matrices(self, dataset: Optional[FitDataset] = None) -> np.ndarray:
        """(T, N, N) correlation matrices with unit diagonal."""
        rho, _ = self._forward()
        return rho

    # Subclasses override _forward and _raw_grad, not the objective
    # methods, so a wrapper on these sees every direct-fit objective call.
    def value_and_grad(
        self, dataset: FitDataset, delta_reg: float
    ) -> Tuple[float, np.ndarray]:
        rho, cache = self._forward()
        value, d_rho = _nll_over_rho(rho, dataset, delta_reg, want_grad=True)
        return value, self._raw_grad(d_rho, cache).ravel()

    def value(self, dataset: FitDataset, delta_reg: float) -> float:
        rho = self.rho_matrices(dataset)
        value, _ = _nll_over_rho(rho, dataset, delta_reg, want_grad=False)
        return value


class UnitRowRhoParams(DirectRhoParams):
    """Per-step correlations as the cosine Gram of a unit-diagonal
    lower-triangular matrix; the parameters of ``direct-rho`` fits.

    Step t stores the strictly-lower entries of M_t, whose diagonal is 1,
    in ``np.tril_indices(N, -1)`` order, and rho_t is the cosine
    similarity of M_t's rows: rho_t = L_t L_t^T with L_t the rows of M_t
    divided by their norms (Pinheiro & Bates 1996). No row has zero norm,
    so rho_t is positive semidefinite and delta I + Sigma rho_t Sigma is
    positive definite for every delta > 0, whatever the parameters. Every
    positive definite correlation matrix has exactly one such M_t: its
    Cholesky factor with rows divided by their diagonal. Zero parameters
    give rho = I. The same N (N - 1) / 2 scalars per step as the tanh map.
    """

    @classmethod
    def from_rho(cls, rho: np.ndarray, t_fut: Optional[int] = None) -> "UnitRowRhoParams":
        """Initialize at given positive definite correlations, one (N, N)
        matrix shared by all steps or a (T, N, N) stack."""
        rho = _rho_stack(rho, t_fut)
        try:
            lower = np.linalg.cholesky(rho)
        except np.linalg.LinAlgError:
            raise ValueError("unit-row parameterization needs positive definite rho") from None
        rows = lower / np.diagonal(lower, axis1=1, axis2=2)[:, :, None]
        il, jl = _pair_indices(rho.shape[1], -1)
        return cls(rows[:, il, jl], rho.shape[1])

    def _forward(self):
        n = self.n_agents
        il, jl = _pair_indices(n, -1)
        rows = np.tile(np.eye(n), (self.t_fut, 1, 1))
        rows[:, il, jl] = self.raw
        rho, norms, unit = cosine_gram(rows)
        return rho, (unit, norms)

    def _raw_grad(self, d_rho: np.ndarray, cache) -> np.ndarray:
        il, jl = _pair_indices(self.n_agents, -1)
        return cosine_gram_backward(d_rho, *cache)[:, il, jl]


class RelevanceParams:
    """Correlations produced by the relevance head on per-step latents."""

    def __init__(self, head: RelevanceHead):
        self.head = head

    @classmethod
    def initialize(cls, feature_dim: int, seed: int) -> "RelevanceParams":
        return cls(RelevanceHead.initialize(feature_dim, seed))

    def vector(self) -> np.ndarray:
        return self.head.pack()

    def with_vector(self, vector: np.ndarray) -> "RelevanceParams":
        return RelevanceParams(RelevanceHead.unpack(vector, self.head.feature_dim))

    def _forward(self, dataset: FitDataset):
        return relevance_forward_cached(dataset.latents(self.head.feature_dim), self.head)

    def rho_matrices(self, dataset: FitDataset) -> np.ndarray:
        rho, _ = self._forward(dataset)
        return rho

    def value_and_grad(
        self, dataset: FitDataset, delta_reg: float
    ) -> Tuple[float, np.ndarray]:
        rho, cache = self._forward(dataset)
        value, d_rho = _nll_over_rho(rho, dataset, delta_reg, want_grad=True)
        return value, relevance_backward(cache, d_rho, self.head)

    def value(self, dataset: FitDataset, delta_reg: float) -> float:
        rho, _ = self._forward(dataset)
        value, _ = _nll_over_rho(rho, dataset, delta_reg, want_grad=False)
        return value


FitParams = Union[DirectRhoParams, RelevanceParams]


def _nll_over_rho(
    rho: np.ndarray, dataset: FitDataset, delta_reg: float, want_grad: bool
) -> Tuple[float, Optional[np.ndarray]]:
    """Objective (and its gradient w.r.t. every pair correlation).

    The objective is the mean over futures of the summed per-step NLL,
    computed from the precomputed along-heading scatter S_t and lateral
    sum of squares L_t with A_t = delta I + Sigma_t rho_t Sigma_t:
    mean_k nll_k = sum_t 0.5 [ln|A_t| + tr(A_t^-1 S_t) + N ln delta
    + L_t / delta + 2N ln 2pi].

    The returned gradient has shape (T, N, N) and treats every matrix
    entry as independent: entry (t, i, j) is the derivative with respect
    to rho[t, i, j] alone (zero diagonal). The derivative of the pair
    scalar shared by (i, j) and (j, i) is the sum of the two entries.

    The per-step loop holds only the LAPACK calls: one ``dpotrf`` and two
    triangular solves per step (four with the gradient, plus I - W). It
    stores each step's factor diagonal, whitened scatter W and
    A^-1 - A^-1 S A^-1; the log-determinants, traces and gradient scaling
    are then computed once over the (T, ...) stacks, and the value is
    summed in step order, so the result is bit-identical to finishing each
    step inside the loop.

    Raises StepFactorizationError at the first step that does not factor,
    and FloatingPointError when a step covariance, or the gradient at a
    step, is not finite.
    """
    n = dataset.n_agents
    if delta_reg <= 0.0:
        # the lateral block delta I is singular; in the [along, lateral]
        # basis its first pivot (index N) is the first to fail
        raise StepFactorizationError(step=0, pivot=n)
    eye = np.eye(n)
    sigma = dataset.sigma_delta
    cov = sigma[:, :, None] * rho * sigma[:, None, :] + delta_reg * eye
    finite = np.isfinite(cov).all(axis=(1, 2))
    if not finite.all():
        raise FloatingPointError(f"covariance at future step {np.argmin(finite)} is not finite")
    rho_free = n * np.log(delta_reg) + dataset.lateral_ss / delta_reg + 2 * n * LOG_TWO_PI
    t_fut = dataset.t_fut
    diagonals = np.empty((t_fut, n))
    whites = np.empty((t_fut, n, n))
    grad_cov = np.empty((t_fut, n, n)) if want_grad else None
    for t in range(t_fut):
        lower, info = dpotrf(cov[t], lower=1, clean=1)
        if info:  # the fixed arguments rule out info < 0 (an illegal argument)
            raise StepFactorizationError(step=t, pivot=info - 1)
        diagonals[t] = lower.diagonal()
        # whitened scatter W = L^-1 S L^-T, so tr(A^-1 S) = tr(W)
        half = solve_triangular(lower, dataset.scatter[t])
        white = whites[t] = solve_triangular(lower, half.T)
        if want_grad:
            # A^-1 - A^-1 S A^-1 = L^-T (I - W) L^-1, by triangular solves only
            left = solve_triangular(lower, eye - white, trans=1)
            grad_cov[t] = solve_triangular(lower, left.T, trans=1)
    log_dets = 2.0 * np.log(diagonals).sum(axis=1)
    terms = 0.5 * (log_dets + np.trace(whites, axis1=1, axis2=2) + rho_free)
    value = 0.0
    # in step order, one addition per step (Python 3.12's sum() compensates)
    for term in terms.tolist():
        value += term
    if not want_grad:
        return value, None
    d_rho = 0.5 * sigma[:, :, None] * grad_cov * sigma[:, None, :]
    diagonal = np.arange(n)
    d_rho[:, diagonal, diagonal] = 0.0
    finite = np.isfinite(d_rho).all(axis=(1, 2))
    if not finite.all():
        raise FloatingPointError(f"gradient at future step {np.argmin(finite)} is not finite")
    return value, d_rho


def make_params(config: FitConfig, dataset: FitDataset) -> FitParams:
    """Fresh parameters for a fit: zero correlations or a seeded head."""
    if config.parameterization == "direct-rho":
        return UnitRowRhoParams.zeros(dataset.t_fut, dataset.n_agents)
    return RelevanceParams.initialize(config.feature_dim, config.seed)


def nll_objective(params: FitParams, dataset: FitDataset, delta_reg: float) -> float:
    """Mean over futures of the summed per-step scene NLL."""
    return params.value(dataset, delta_reg)


def grad_nll(params: FitParams, dataset: FitDataset, delta_reg: float) -> np.ndarray:
    """Analytic gradient of :func:`nll_objective` w.r.t. the parameter vector."""
    _, grad = params.value_and_grad(dataset, delta_reg)
    return grad


def _clipped_rho(params: FitParams, dataset: FitDataset) -> np.ndarray:
    rho = params.rho_matrices(dataset)
    rho = np.clip(rho, -1.0, 1.0)
    rho = (rho + rho.transpose(0, 2, 1)) / 2.0
    diagonal = np.arange(rho.shape[-1])
    rho[:, diagonal, diagonal] = 1.0
    return rho


def fit_parameters(
    config: FitConfig, dataset: FitDataset, initial: Optional[FitParams] = None
) -> FitReport:
    """Minimize the scene-level NLL with Adam.

    Stops on ``max_iters`` or when the objective changes by less than
    ``convergence_tol``; the report's ``stop_reason`` says which. On a
    factorization failure the regularization is escalated once (x 10);
    a second failure, or a first one when
    escalation cannot change it (delta_reg = 0), aborts with the failure flag
    set and the report still filled in. Both parameterizations give
    positive semidefinite correlations, so with delta_reg > 0 only an
    ``initial`` warm start from an indefinite rho (a tanh
    :class:`DirectRhoParams`) fails to factor, or rounding when delta_reg
    is too small to absorb it. A non-finite covariance, objective or
    gradient, or a zero-norm feature row of the relevance head, aborts
    the same way without escalation; the report then describes the last
    iterate whose objective was finite (its ``recovered_rho`` is NaN when
    even the first iterate has no correlations). A first step that moves the
    parameters but leaves the objective bit-for-bit unchanged also
    aborts, since the objective cannot resolve the parameters at that
    delta_reg: a tiny one lets the lateral term swamp it, a huge one the
    regularization. A gradient whose square overflows Adam's second
    moment, or its bias-corrected estimate, aborts too, at the iterate it
    belongs to. Floating-point warnings raised inside the objective and
    the Adam update are silenced, since their results are checked. ``initial`` warm-starts
    the optimizer in place of the default parameters.
    """
    params = make_params(config, dataset) if initial is None else initial
    x = x_finite = params.vector()
    delta = config.delta_reg
    failure_reason = None
    stop_reason = "max_iters"

    m = np.zeros_like(x)
    v = np.zeros_like(x)
    trace: List[float] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while len(trace) < config.max_iters:
            try:
                value, grad = params.with_vector(x).value_and_grad(dataset, delta)
                if not math.isfinite(value):
                    raise FloatingPointError(f"the objective is {value}")
            except NotPositiveDefiniteError as exc:
                if delta == config.delta_reg and delta * 10.0 != delta:
                    delta = delta * 10.0
                    continue
                after = " after delta escalation" if delta != config.delta_reg else ""
                failure_reason = f"factorization failed{after}: {exc}"
                break
            except (FloatingPointError, DegenerateFeatureError) as exc:
                # this iterate may have no finite rho to report
                x = x_finite
                failure_reason = f"non-finite objective at iteration {len(trace)}: {exc}"
                break
            trace.append(value)
            if len(trace) == 2 and trace[0] == trace[1] and not np.array_equal(x, x_finite):
                failure_reason = (
                    f"the objective does not resolve the parameters at delta_reg {delta!r}: "
                    f"the first step moved them but left it at {value!r}"
                )
                break
            x_finite = x
            if len(trace) >= 2 and abs(trace[-2] - trace[-1]) < config.convergence_tol:
                stop_reason = "convergence_tol"
                break
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1 ** len(trace))
            v_hat = v / (1.0 - ADAM_BETA2 ** len(trace))
            # a finite gradient's square can overflow, in v or only once
            # bias-corrected; an infinite v_hat would freeze the step at zero
            if not np.isfinite(v_hat).all():
                iteration = len(trace) - 1
                failure_reason = f"gradient too large for the optimizer at iteration {iteration}"
                break
            x = x - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    try:
        recovered = _clipped_rho(params.with_vector(x), dataset)
    except DegenerateFeatureError:
        n = dataset.n_agents
        recovered = np.full((dataset.t_fut, n, n), np.nan)
    return FitReport(
        final_nll=trace[-1] if trace else float("nan"),
        nll_trace=np.asarray(trace),
        recovered_rho=recovered,
        iterations_run=len(trace),
        delta_reg_used=delta,
        parameterization=config.parameterization,
        stop_reason=stop_reason if failure_reason is None else "failure",
        failure_flag=failure_reason is not None,
        failure_reason=failure_reason,
    )


def finite_difference_gradient(
    fun: Callable[[np.ndarray], float], x: np.ndarray, step: float
) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        bumped = x.copy()
        bumped[i] = x[i] + step
        upper = fun(bumped)
        bumped[i] = x[i] - step
        lower = fun(bumped)
        grad[i] = (upper - lower) / (2.0 * step)
    return grad


def relative_gradient_errors(
    analytic: np.ndarray, numeric: np.ndarray
) -> np.ndarray:
    """Per-component |a - n| / max(1, |a|, |n|).

    The unit floor in the denominator keeps finite-difference roundoff
    on near-zero components from registering as spurious error.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return np.abs(analytic - numeric) / denom


def gradient_check(
    params: FitParams,
    dataset: FitDataset,
    delta_reg: float = 1e-4,
    step: float = 1e-6,
) -> float:
    """Worst relative disagreement between :func:`grad_nll` at ``params``
    and central finite differences of :func:`nll_objective`."""
    analytic = grad_nll(params, dataset, delta_reg)
    if analytic.size == 0:
        return 0.0
    numeric = finite_difference_gradient(
        lambda vec: nll_objective(params.with_vector(vec), dataset, delta_reg),
        params.vector(),
        step,
    )
    return float(np.max(relative_gradient_errors(analytic, numeric)))
