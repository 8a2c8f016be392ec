"""Synthetic interacting-agent scenes with known ground truth.

Scenes are built from correlated one-dimensional step increments
integrated along per-agent headings: a "follow" pattern puts strongly
positive increment correlation on pairs sharing a lane, "yield" puts
strongly negative correlation on crossing pairs, and "independent"
leaves all pairs uncorrelated. The generator returns the exact
correlation matrix and per-step increment distributions it sampled
from, so recovery experiments have a ground truth to compare against.

Also home to the brute-force estimators used as oracles elsewhere:
empirical increment correlation and heading-approximation error
statistics.

Units: positions are meters and one step is 0.5 s (2 Hz sampling); the
default base speed of 2.5 m/step corresponds to 5 m/s.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from .increments import CorrelationMatrix, IncrementParams, InvalidCorrelationError
from .increments import heading_vectors, wrap_angle
from .scene import Scene, check_numbers, checked_array, json_array, json_fields, real_array

PATTERNS = ("follow", "yield", "independent", "mixed")

# bytes of working memory a chunked pass over futures forms at once: the
# draws of one chunk of walks here, the offsets of one chunk of futures in
# the fit's dataset build
CHUNK_BYTES = 1 << 20

# Sub-streams of the scenario seed (PCG64 seeded with [seed, stream]).
_STREAM_FAMILY = 0
_STREAM_FUTURES = 1


@dataclass
class ScenarioConfig:
    """Controls for the synthetic scene generator.

    ``target_rho`` is either a scalar correlation magnitude applied to
    the pattern's designated pairs, or a full N x N correlation matrix
    (which must be positive semidefinite). The constructor runs
    :func:`correlation_for`, so an invalid target is rejected there, never
    projected. ``noise_sigma`` is the standard deviation of each
    per-step 1-D increment. ``curvature`` bends every trajectory by a
    fixed heading change per step and ``heading_noise`` jitters the
    per-step heading; both default to zero, which keeps trajectories on
    exact rays and the returned ground truth exact.
    """

    pattern: str
    n_agents: int
    t_obs: int = 4
    t_fut: int = 12
    target_rho: Union[float, Sequence] = 0.8
    base_speed: float = 2.5
    noise_sigma: float = 0.5
    seed: int = 0
    curvature: float = 0.0
    heading_noise: float = 0.0
    n_scenes: int = 1

    def __post_init__(self):
        check_numbers(
            self,
            ("n_agents", "t_obs", "t_fut", "seed", "n_scenes"),
            ("base_speed", "noise_sigma", "curvature", "heading_noise"),
        )
        if self.pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}, got {self.pattern!r}")
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if self.t_obs < 1 or self.t_fut < 1:
            raise ValueError("t_obs and t_fut must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.base_speed <= 0.0:
            raise ValueError("base_speed must be positive")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.heading_noise < 0.0:
            raise ValueError("heading_noise must be nonnegative")
        if self.n_scenes < 1:
            raise ValueError("n_scenes must be >= 1")
        correlation_for(self)  # rejects a bad target_rho before any sampling

    def to_dict(self) -> dict:
        payload = asdict(self)
        if isinstance(self.target_rho, np.ndarray):
            payload["target_rho"] = self.target_rho.tolist()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioConfig":
        required = ("pattern", "n_agents")
        return cls(**json_fields(payload, "scenario config", required, cls.__dataclass_fields__))


@dataclass(frozen=True, eq=False)
class SceneTruth:
    """Ground truth the generator sampled from.

    ``mu_delta[t - 1, i]`` and ``sigma_delta[t - 1, i]`` parameterize
    agent i's 1-D displacement from the current position to future step
    t; ``rho`` is the increment correlation matrix shared by all steps.
    Exact for straight scenes (zero curvature and heading noise). Both
    tables are finite and nonnegative; a zero sigma (``noise_sigma`` 0)
    is allowed here, though fitting needs positive ones.
    """

    rho: CorrelationMatrix
    mu_delta: np.ndarray
    sigma_delta: np.ndarray

    def __post_init__(self):
        mu_delta = checked_array(self.mu_delta, "mu_delta", (None, self.rho.n_agents))
        sigma_delta = checked_array(self.sigma_delta, "sigma_delta", mu_delta.shape)
        for name, arr in (("mu_delta", mu_delta), ("sigma_delta", sigma_delta)):
            if np.any(arr < 0.0):
                raise ValueError(f"{name} must be nonnegative")
            object.__setattr__(self, name, arr)
        # each step's IncrementParams, built on first use
        object.__setattr__(self, "_steps", [None] * mu_delta.shape[0])

    def increment_params(self, step: int) -> IncrementParams:
        """IncrementParams for future step ``step`` (0-based), built once per
        truth. A step with a zero sigma raises ``ValueError`` each time it is
        asked for, and only that step does."""
        params = self._steps[step]
        if params is None:
            # concurrent first calls build equal values; either one is kept
            params = IncrementParams(mu=self.mu_delta[step], sigma=self.sigma_delta[step])
            self._steps[step] = params
        return params

    def to_dict(self) -> dict:
        """The truth's JSON payload for :func:`write_json`. It holds the
        truth's read-only arrays, not lists, so ``json.dumps`` rejects it."""
        return {
            "rho": self.rho.rho,
            "mu_delta": self.mu_delta,
            "sigma_delta": self.sigma_delta,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SceneTruth":
        payload = json_fields(payload, "truth", ("rho", "mu_delta", "sigma_delta"))
        return cls(
            rho=CorrelationMatrix(json_array(payload["rho"], "rho")),
            mu_delta=json_array(payload["mu_delta"], "mu_delta"),
            sigma_delta=json_array(payload["sigma_delta"], "sigma_delta"),
        )


def _pattern_pairs(pattern: str, n: int) -> List[Tuple[int, int, float]]:
    """(i, j, sign) couplings for a pattern; sign scales |target_rho|."""
    pairs = [(2 * k, 2 * k + 1) for k in range(n // 2)]
    if pattern == "follow":
        return [(i, j, 1.0) for i, j in pairs]
    if pattern == "yield":
        return [(i, j, -1.0) for i, j in pairs]
    if pattern == "independent":
        return []
    coupled = []
    for index, (i, j) in enumerate(pairs[:2]):
        coupled.append((i, j, 1.0 if index == 0 else -1.0))
    return coupled


def correlation_for(config: ScenarioConfig) -> CorrelationMatrix:
    """The increment correlation matrix implied by a config.

    Raises:
        InvalidCorrelationError: the implied matrix is not a valid PSD
            correlation matrix. Rejected, never repaired: silent
            projection would corrupt recovery experiments.
        SceneFormatError: ``target_rho`` is not a number or a regular nest
            of numbers, or holds a string or boolean.
    """
    n = config.n_agents
    # a JSON null reads as NaN here, which no range or matrix check accepts
    target = json_array(config.target_rho, "target_rho")
    if target.ndim == 0:
        magnitude = float(target)
        if not -1.0 <= magnitude <= 1.0:
            raise InvalidCorrelationError("scalar target_rho must lie in [-1, 1]")
        rho = np.eye(n)
        for i, j, sign in _pattern_pairs(config.pattern, n):
            rho[i, j] = rho[j, i] = sign * abs(magnitude)
        corr = CorrelationMatrix(rho)
    else:
        if target.shape != (n, n):
            raise InvalidCorrelationError(
                f"target_rho matrix must be ({n}, {n}), got {target.shape}"
            )
        corr = CorrelationMatrix(target)
    if not corr.is_positive_semidefinite():
        raise InvalidCorrelationError(
            f"target correlation matrix is not positive semidefinite "
            f"(min eigenvalue {corr.min_eigenvalue():.3e})"
        )
    return corr


def _psd_factor(rho: np.ndarray) -> np.ndarray:
    """A with A A^T = rho, valid for singular PSD matrices."""
    eigvals, eigvecs = np.linalg.eigh(rho)
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _geometry(config: ScenarioConfig, rng: np.random.Generator):
    """Base headings and start positions realizing the pattern."""
    n = config.n_agents
    headings = rng.uniform(-np.pi, np.pi, size=n)
    starts = rng.uniform(-30.0, 30.0, size=(n, 2))
    gap = 2.0 + 2.0 * config.base_speed
    approach = 4.0 * config.base_speed

    for i, j, sign in _pattern_pairs(config.pattern, n):
        if sign > 0:  # j follows i in its lane
            headings[j] = headings[i]
            starts[j] = starts[i] - gap * heading_vectors(headings[i])
        else:  # j crosses i's path
            headings[j] = wrap_angle(headings[i] + np.pi / 2.0)
            crossing = starts[i] + approach * heading_vectors(headings[i])
            starts[j] = crossing - 1.5 * approach * heading_vectors(headings[j])
    return headings, starts


def _walk(
    config: ScenarioConfig,
    rng: np.random.Generator,
    factor: np.ndarray,
    start: np.ndarray,
    base_heading: np.ndarray,
    first_step_index: int,
    count: int,
    steps: int,
):
    """Integrate ``count`` walks of correlated 1-D increments along
    evolving headings.

    Returns positions (count, N, steps, 2) and headings (count, N, steps);
    without heading noise the headings are one read-only (N, steps) block
    broadcast over the walks, and their cosines and sines are computed
    once, on that block, not once per walk.

    The outputs are allocated once and filled in consecutive chunks of
    walks, about :data:`CHUNK_BYTES` of draws each. A chunk's (c, D,
    steps, N) standard normals are drawn into its slice of the positions,
    which they fit and which are written only once the draw is spent: D =
    1 holds the increments; with heading noise D = 2, and each walk's
    jitter follows its increments. Consecutive draws from one generator
    equal one draw of the whole shape, so no walk depends on the chunking.
    Beside its outputs, sampling holds one chunk's increments, plus its
    wrapped headings with heading noise.
    """
    n = start.shape[0]
    jittered = config.heading_noise != 0.0
    depth = 2 if jittered else 1
    headings = base_heading + config.curvature * np.arange(
        first_step_index, first_step_index + steps, dtype=np.float64
    )[:, None]
    positions = np.empty((count, n, steps, 2))
    if jittered:
        yaws = np.empty((count, n, steps))
    else:  # one block for every walk, in place of the unwrapped headings
        headings = np.swapaxes(wrap_angle(headings), -1, -2)
        vectors = heading_vectors(headings)
    # a past of one observed step walks zero steps, and draws nothing
    chunk = max(1, CHUNK_BYTES // max(1, depth * steps * n * 8))
    for first in range(0, count, chunk):
        out = positions[first : first + chunk]
        draw = out.reshape(-1)[: out.size * depth // 2].reshape(len(out), depth, steps, n)
        rng.standard_normal(out=draw)
        deltas = draw[:, 0] @ factor.T
        deltas *= config.noise_sigma
        deltas += config.base_speed
        if jittered:
            jitter = draw[:, 1]
            jitter *= config.heading_noise
            np.add(jitter, headings, out=jitter)
            wrapped = np.swapaxes(wrap_angle(jitter), -1, -2)
            yaws[first : first + chunk] = wrapped
            vectors = heading_vectors(wrapped, out=out)
        del draw  # spent: the positions overwrite it
        # Each step's displacement, the start folded into the first, summed
        # left to right: the additions of a step-by-step walk, in its order.
        np.multiply(vectors, deltas.transpose(0, 2, 1)[..., None], out=out)
        out[:, :, :1] += start[:, None]
        np.cumsum(out, axis=2, out=out)
    if not jittered:
        yaws = np.broadcast_to(headings, (count, n, steps))
    return positions, yaws


def _simulate(config: ScenarioConfig, count: int):
    """Shared core: one fixed past plus ``count`` sampled futures."""
    corr = correlation_for(config)
    factor = _psd_factor(corr.rho)
    n = config.n_agents
    t_obs, t_fut = config.t_obs, config.t_fut

    rng_family = np.random.default_rng([config.seed, _STREAM_FAMILY])
    base_heading, starts = _geometry(config, rng_family)
    past_positions, _ = _walk(
        config, rng_family, factor, starts, base_heading,
        first_step_index=1, count=1, steps=t_obs - 1,
    )
    past = np.concatenate([starts[:, None], past_positions[0]], axis=1)
    current = past[:, -1]

    rng_future = np.random.default_rng([config.seed, _STREAM_FUTURES])
    futures, yaws = _walk(
        config, rng_future, factor, current, base_heading,
        first_step_index=t_obs, count=count, steps=t_fut,
    )

    steps = np.arange(1, t_fut + 1, dtype=np.float64)
    truth = SceneTruth(
        rho=corr,
        mu_delta=np.outer(steps, np.full(n, config.base_speed)),
        sigma_delta=np.outer(np.sqrt(steps), np.full(n, config.noise_sigma)),
    )
    return past, futures, yaws, truth


def generate_scene(config: ScenarioConfig) -> Tuple[Scene, SceneTruth]:
    """One scene plus the ground truth it was sampled from.

    Deterministic given the config (including its seed).
    """
    past, futures, yaws, truth = _simulate(config, 1)
    return Scene(past=past, future=futures[0], yaw=yaws[0]), truth


def generate_scenes(config: ScenarioConfig, count: int) -> Tuple[List[Scene], SceneTruth]:
    """``count`` scenes sharing one past and ground truth, with
    independently sampled futures. Scene k equals scene k of any longer
    run with the same config."""
    past, futures, yaws, truth = _simulate(config, count)
    scenes = [Scene(past=past, future=futures[k], yaw=yaws[k]) for k in range(count)]
    return scenes, truth


def sample_future_positions(
    config: ScenarioConfig, count: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, SceneTruth]:
    """Fast path for Monte-Carlo work: (futures, yaws, current, truth).

    ``futures`` has shape (count, N, T, 2), ``yaws`` (count, N, T) and
    ``current`` (N, 2); future k matches scene k from
    :func:`generate_scenes`. With ``heading_noise == 0`` every future
    shares one set of headings, and ``yaws`` is a read-only broadcast
    view of that single (N, T) block.
    """
    past, futures, yaws, truth = _simulate(config, count)
    return futures, yaws, past[:, -1], truth


def increments_from_positions(
    positions: np.ndarray, current: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Signed 1-D displacement of each agent along its heading.

    ``positions`` is (..., N, 2); returns (..., N) projections of the
    displacement from ``current`` onto the heading unit vectors.
    """
    positions = real_array(positions, "positions")
    current = real_array(current, "current")
    return np.sum((positions - current) * heading_vectors(theta), axis=-1)


def empirical_increment_pcc(samples: np.ndarray) -> CorrelationMatrix:
    """Sample Pearson correlation of 1-D increments, one column per agent.

    The brute-force estimator used to validate reconstructed
    correlations; kept deliberately plain.
    """
    samples = real_array(samples, "samples")
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError(f"expected (K >= 2, N) samples, got {samples.shape}")
    centered = samples - samples.mean(axis=0)
    scale = np.sqrt(np.sum(centered * centered, axis=0))
    if np.any(scale == 0.0):
        bad = int(np.flatnonzero(scale == 0.0)[0])
        raise ValueError(f"column {bad} has zero sample variance")
    normalized = centered / scale
    rho = np.clip(normalized.T @ normalized, -1.0, 1.0)
    np.fill_diagonal(rho, 1.0)
    return CorrelationMatrix(rho)


@dataclass
class YawErrorStats:
    """Distribution of heading-approximation errors, in degrees.

    The error compares each agent's actual per-step heading against the
    chord direction from the current position to the step's position.
    ``histogram`` counts errors in fixed 5-degree bins spanning +/-90
    degrees; errors outside that range contribute to the moments but not
    the counts. Stationary steps are skipped and tallied separately.
    """

    mean_deg: float
    std_deg: float
    histogram: np.ndarray
    bin_edges: np.ndarray = field(repr=False)
    n_measured: int = 0
    n_skipped: int = 0


def yaw_error_distribution(scenes: Iterable[Scene]) -> YawErrorStats:
    """Heading-approximation error statistics over a scene collection."""
    errors = []
    skipped = 0
    for scene in scenes:
        current = scene.current
        displacement = scene.future - current[:, None, :]
        stationary = (displacement[..., 0] == 0.0) & (displacement[..., 1] == 0.0)
        skipped += int(np.count_nonzero(stationary))
        # the raw arctan2, with no -pi -> pi fold: folding would change
        # the wrapped error of a chord pointing exactly west
        estimated = np.arctan2(displacement[..., 1], displacement[..., 0])
        delta = wrap_angle(scene.yaw - estimated)
        errors.append(delta[~stationary])
    flat = np.concatenate(errors) if errors else np.empty(0)
    degrees = np.degrees(flat)
    bin_edges = np.arange(-90.0, 95.0, 5.0)
    histogram, _ = np.histogram(degrees, bins=bin_edges)
    mean = float(degrees.mean()) if degrees.size else float("nan")
    std = float(degrees.std()) if degrees.size else float("nan")
    return YawErrorStats(
        mean_deg=mean,
        std_deg=std,
        histogram=histogram,
        bin_edges=bin_edges,
        n_measured=int(degrees.size),
        n_skipped=skipped,
    )
