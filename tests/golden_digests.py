"""Golden digests: SHA-256 of the float64 bytes the library produces.

Every digest covers a fixed, seeded input grid: the synthetic sampler,
the fit statistics, short fits with both parameterizations, the heading
and sign-pattern constructions over random and axis-aligned headings,
the joint Gaussian's factor, likelihoods and draws, the bytes the
``generate`` and ``fit`` commands write, the objective and gradient the
``gradcheck`` command checks, and the bytes ``write_json`` writes for an
edge-case payload. Rounding
order is part of the contract, so a change that reorders one
floating-point sum changes a digest.

Floating-point results also depend on the numpy and scipy builds and
their OpenBLAS libraries, so the digest file records them next to the
digests. Regenerate the file, from a commit whose numbers are the
reference, with

    PYTHONPATH=src python tests/golden_digests.py

``tests/test_golden_digests.py`` recomputes every digest and compares.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import scipy

from jointmotion import (
    CorrelationMatrix,
    IncrementParams,
    JointGaussian,
    ModeSet,
    assemble_joint,
    cholesky_factor,
    equivalence_check,
    load_modes,
    pair_count,
    planar_pair_count,
    project_increments,
    projected_marginals,
    reconstruct_cross_correlations,
    sample_joint,
    save_modes,
    scene_nll,
    tikhonov_regularize,
    trajectory_nll,
)
from jointmotion import cli
from jointmotion.cli import main as cli_main
from jointmotion.fit import (
    DirectRhoParams,
    FitConfig,
    FitDataset,
    UnitRowRhoParams,
    fit_parameters,
)
from jointmotion.scene import write_json
from jointmotion.synthetic import (
    ScenarioConfig,
    generate_scenes,
    increments_from_positions,
    sample_future_positions,
    yaw_error_distribution,
)

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")

T_FUT = 12
FAMILIES = (("follow", 1), ("mixed", 3), ("yield", 8), ("mixed", 64))
CURVATURES = (0.0, 0.05)
N_FUTURES = 32
SINGLE_STEP_FUTURES = 10_000
# families sampled in several chunks of walks: (pattern, N, curvature,
# heading noise, K)
MULTI_CHUNK_FAMILIES = (
    ("mixed", 64, 0.0, 0.0, 1_280),
    ("mixed", 64, 0.0, 0.1, 1_280),
    ("follow", 3, 0.05, 0.0, 12_000),
)
FIT_ITERS = 15
DELTAS = (1e-4, 1e-2)
AXIS_HEADINGS = (0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, np.pi / 4, -np.pi / 4)
SAMPLE_SEEDS = (0, 1, 7, 2**40)
# every kind of value json.dumps accepts, at the edges of float repr
EDGE_PAYLOAD = {
    "floats": [-0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308, 0.1, -2.5, 1.0],
    "numpy": [np.float64(0.1), np.float64(-0.0)],
    "scalar": np.float64(1e-300),
    "ints": [0, -1, 2**64, -(2**100)],
    "mixed": [1.5, 2, True, None, "x"],
    "bools": [True, False],
    "none": None,
    "empty": [[], {}, [[]], [{}]],
    "tuple": (1.0, (2.0, -0.0), "t"),
    "text": 'a "quoted" \\ line\nnaïve ☃ \U0001f600 \x00',
    7: "int key",
    2.5: "float key",
    False: "bool key",
    None: "null key",
}


def environment() -> dict:
    """The numeric builds the digests depend on."""
    numpy_blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{numpy_blas['name']} {numpy_blas['version']}",
        "scipy_blas": f"{scipy_blas['name']} {scipy_blas['version']}",
    }


def digest(*arrays) -> str:
    """SHA-256 over each array's shape and float64 bytes, in order."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _family_digests(out: dict) -> None:
    for pattern, n in FAMILIES:
        for curvature in CURVATURES:
            key = f"{pattern}-n{n}-c{curvature}"
            config = ScenarioConfig(
                pattern=pattern, n_agents=n, t_fut=T_FUT, curvature=curvature, seed=11
            )
            futures, yaws, current, truth = sample_future_positions(config, N_FUTURES)
            out[f"sample/{key}"] = digest(
                futures, yaws, current, truth.rho.rho, truth.mu_delta, truth.sigma_delta
            )
            dataset = FitDataset(
                current=current,
                theta=yaws[0].T,
                mu_delta=truth.mu_delta,
                sigma_delta=truth.sigma_delta,
                futures=futures,
            )
            out[f"dataset/{key}"] = digest(
                dataset.scatter, dataset.lateral_ss, dataset.latents(8)
            )
            out[f"marginals/{key}"] = digest(
                *[
                    field
                    for m in dataset.marginals
                    for field in (m.mu_x, m.mu_y, m.sigma_x, m.sigma_y, m.rho_xy)
                ]
            )
            if curvature == 0.0:
                continue
            # the relevance head at N=64 would double the test's run time
            parameterizations = ("direct-rho",) if n == 64 else ("direct-rho", "relevance-head")
            for parameterization in parameterizations:
                for delta in DELTAS:
                    out[f"fit/{key}/{parameterization}/d{delta}"] = _fit_digest(
                        dataset, parameterization, delta
                    )


def _fit_digest(dataset, parameterization: str, delta: float) -> str:
    """A short fit's trace, correlations, iterations and outcome."""
    report = fit_parameters(
        FitConfig(max_iters=FIT_ITERS, delta_reg=delta, parameterization=parameterization),
        dataset,
    )
    return digest(
        report.nll_trace, report.recovered_rho, [report.iterations_run, report.delta_reg_used]
    ) + str(report.failure_reason)


def _single_step_digests(out: dict) -> None:
    """A family at T=1 with more futures than the 8,192 up to which its
    row-by-row scatter and whole lateral sum match the full product."""
    key = f"mixed-n3-t1-k{SINGLE_STEP_FUTURES}"
    config = ScenarioConfig(pattern="mixed", n_agents=3, t_fut=1, curvature=0.05, seed=11)
    dataset = FitDataset.from_config(config, SINGLE_STEP_FUTURES)
    out[f"dataset/{key}"] = digest(dataset.scatter, dataset.lateral_ss)
    for parameterization in ("direct-rho", "relevance-head"):
        out[f"fit/{key}/{parameterization}/d{DELTAS[0]}"] = _fit_digest(
            dataset, parameterization, DELTAS[0]
        )


def _multi_chunk_digests(out: dict) -> None:
    """Sampled families far larger than one chunk of walks."""
    for pattern, n, curvature, heading_noise, count in MULTI_CHUNK_FAMILIES:
        config = ScenarioConfig(
            pattern=pattern, n_agents=n, t_fut=T_FUT, curvature=curvature,
            heading_noise=heading_noise, seed=11,
        )
        futures, yaws, current, truth = sample_future_positions(config, count)
        key = f"{pattern}-n{n}-c{curvature}-h{heading_noise}-k{count}"
        out[f"sample/{key}"] = digest(
            futures, yaws, current, truth.rho.rho, truth.mu_delta, truth.sigma_delta
        )


def _params_digests(out: dict) -> None:
    """Both direct-rho maps off their fits' zero start, and their inverses."""
    n = 5
    config = ScenarioConfig(pattern="mixed", n_agents=n, t_fut=T_FUT, curvature=0.05, seed=11)
    dataset = FitDataset.from_config(config, N_FUTURES)
    raw = np.random.default_rng(7).normal(0.0, 0.2, (T_FUT, pair_count(n)))
    for cls in (DirectRhoParams, UnitRowRhoParams):
        params = cls(raw, n)
        rho = params.rho_matrices()
        for delta in DELTAS:
            value, grad = params.value_and_grad(dataset, delta)
            out[f"params/{cls.__name__}/d{delta}"] = digest(
                [value, params.value(dataset, delta)], grad, rho
            )
        out[f"params/{cls.__name__}/from_rho"] = digest(cls.from_rho(rho).raw)


def _heading_digests(out: dict) -> None:
    rng = np.random.default_rng(2024)
    theta = np.concatenate([AXIS_HEADINGS, rng.uniform(-np.pi, np.pi, 9)])
    n = theta.size
    inc = IncrementParams(mu=rng.uniform(0.0, 5.0, n), sigma=rng.uniform(0.1, 2.0, n))
    root = rng.standard_normal((n, n))
    gram = root @ root.T + 0.1 * np.eye(n)
    scale = np.sqrt(np.diag(gram))
    rho = np.clip(gram / np.outer(scale, scale), -1.0, 1.0)
    np.fill_diagonal(rho, 1.0)
    corr = CorrelationMatrix(rho)
    current = rng.uniform(-30.0, 30.0, (n, 2))

    joint = project_increments(inc, corr, theta, current)
    out["increments/project_increments"] = digest(joint.mean, joint.cov)
    marg = projected_marginals(inc, theta, current)
    out["increments/projected_marginals"] = digest(
        marg.mu_x, marg.mu_y, marg.sigma_x, marg.sigma_y, marg.rho_xy
    )
    assembled = assemble_joint(marg, corr, theta)
    out["increments/assemble_joint"] = digest(assembled.mean, assembled.cov)
    out["increments/equivalence_check"] = digest(
        [
            equivalence_check(inc, corr, theta, current),
            equivalence_check(inc, corr, theta, current, approx_theta=theta + 0.1),
        ]
    )
    rho_values = np.concatenate([[1.0, -1.0, 0.0], rng.uniform(-1.0, 1.0, 5)])
    out["increments/reconstruct_cross_correlations"] = digest(
        [
            reconstruct_cross_correlations(r, a, b)
            for r in rho_values
            for a in theta
            for b in theta
        ]
    )

    positions = current + rng.normal(0.0, 3.0, (6, n, 2))
    positions[0] = current  # zero displacement
    positions[1, :, 0] = current[:, 0]  # axis-aligned displacement
    out["synthetic/increments_from_positions"] = digest(
        increments_from_positions(positions, current, theta)
    )

    out["increments/pair_counts"] = digest(
        [[pair_count(k), planar_pair_count(k)] for k in range(70)]
    )


def _gaussian_digests(out: dict) -> None:
    """Factors, likelihoods and draws of random joints and of a projected,
    regularized one."""
    rng = np.random.default_rng(31)
    dists = []
    for dim in (2, 6, 16):
        root = rng.normal(0.0, 1.0, (dim, dim))
        dists.append(
            JointGaussian(rng.normal(0.0, 5.0, dim), root @ root.T + 0.5 * np.eye(dim))
        )
    n = 5
    theta = np.array(AXIS_HEADINGS[:n])
    inc = IncrementParams(mu=rng.uniform(0.0, 5.0, n), sigma=rng.uniform(0.1, 2.0, n))
    corr = CorrelationMatrix(np.full((n, n), 0.3) + 0.7 * np.eye(n))
    joint = project_increments(inc, corr, theta, rng.uniform(-30.0, 30.0, (n, 2)))
    dists.append(JointGaussian(joint.mean, tikhonov_regularize(joint.cov, 1e-4)))
    for index, dist in enumerate(dists):
        key = f"gaussian/{index}-dim{dist.dim}"
        factor = cholesky_factor(dist.cov)
        out[f"{key}/cholesky_factor"] = digest(factor.lower, [factor.log_det])
        observations = dist.mean + rng.normal(0.0, 2.0, (3, dist.dim))
        out[f"{key}/nll"] = digest(
            [scene_nll(dist, row) for row in observations],
            [trajectory_nll([dist] * 3, observations), scene_nll(dist, dist.mean)],
        )
        out[f"{key}/sample_joint"] = digest(
            *[sample_joint(dist, seed, 4) for seed in SAMPLE_SEEDS]
        )


def _writer_digests(out: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edge.json"
        write_json(EDGE_PAYLOAD, path)
        out["scene/write_json/edge"] = hashlib.sha256(path.read_bytes()).hexdigest()


def _cli_digests(out: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, heading_noise in (("straight", 0.0), ("noisy", 0.05)):
            config = root / f"{name}.json"
            config.write_text(
                json.dumps(
                    {
                        "pattern": "mixed",
                        "n_agents": 5,
                        "t_obs": 4,
                        "t_fut": T_FUT,
                        "target_rho": 0.7,
                        "curvature": 0.05,
                        "heading_noise": heading_noise,
                        "n_scenes": 3,
                        "seed": 5,
                    }
                )
            )
            if cli_main(["generate", str(config), "--out", str(root / name)]) != 0:
                raise RuntimeError(f"generate ({name}) failed")
            for path in sorted((root / name).glob("scene_*.json")):
                out[f"cli/generate/{name}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()

        fit_config = root / "fit.json"
        fit_config.write_text(json.dumps({"max_iters": FIT_ITERS}))
        if cli_main(["fit", str(root / "straight"), str(fit_config), "--out", str(root / "fit")]):
            raise RuntimeError("fit failed")
        for name in ("fit_report.json", "nll_trace.csv", "recovered_rho.json"):
            out[f"cli/fit/{name}"] = hashlib.sha256((root / "fit" / name).read_bytes()).hexdigest()

        rng = np.random.default_rng(3)
        save_modes(ModeSet(rng.normal(0.0, 10.0, (3, 2, 4, 2)), rng.random(3)), root / "m.json")
        loaded = load_modes(root / "m.json")
        out["scene/modes"] = hashlib.sha256((root / "m.json").read_bytes()).hexdigest()
        out["scene/modes_loaded"] = digest(loaded.modes, loaded.scores)


def _gradcheck_digests(out: dict) -> None:
    """The objective and analytic gradient that ``jointmotion gradcheck``
    checks with its default arguments, for each parameterization."""
    check = cli.gradient_check

    def recording(params, dataset, delta_reg, step):
        value, grad = params.value_and_grad(dataset, delta_reg)
        out[f"cli/gradcheck/{type(params).__name__}"] = digest([value], grad)
        return check(params, dataset, delta_reg, step)

    cli.gradient_check = recording
    try:
        with tempfile.TemporaryDirectory() as tmp:
            if cli_main(["gradcheck", "--out", tmp]) != 0:
                raise RuntimeError("gradcheck failed")
    finally:
        cli.gradient_check = check


def _yaw_error_digests(out: dict) -> None:
    config = ScenarioConfig(
        pattern="mixed", n_agents=5, t_fut=T_FUT, curvature=0.05, heading_noise=0.05, seed=11
    )
    scenes, _ = generate_scenes(config, 4)
    stats = yaw_error_distribution(scenes)
    out["synthetic/yaw_error_distribution"] = digest(
        [stats.mean_deg, stats.std_deg, stats.n_measured, stats.n_skipped], stats.histogram
    )


def compute_digests() -> dict:
    out: dict = {}
    _family_digests(out)
    _single_step_digests(out)
    _multi_chunk_digests(out)
    _params_digests(out)
    _heading_digests(out)
    _yaw_error_digests(out)
    _gaussian_digests(out)
    _writer_digests(out)
    _cli_digests(out)
    _gradcheck_digests(out)
    return out


def main() -> None:
    payload = {"environment": environment(), "digests": compute_digests()}
    DIGEST_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['digests'])} digests to {DIGEST_FILE}")


if __name__ == "__main__":
    main()
