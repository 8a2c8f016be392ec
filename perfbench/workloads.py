"""One pass of each benchmark workload.

Every pass derives its ``ScenarioConfig.seed`` from the run seed and the
pass index, times its phases, and checks its outputs by tolerance (never
byte-identity, so changes that reorder float arithmetic still pass).

Why each workload exists:

- ``recover``: the recovery study of acceptance criterion 6 at T=12. The
  per-future simulator loop and the small-N objective (per-call overhead,
  not math) do most of the work; the only workload that runs ``relevance``.
- ``large-scene``: a fit at N=64, where the dense 2N=128 factor-and-inverse
  per step dominates. Simulation is small and there is no I/O, so a ``fit``
  kernel change shows here and a ``scene`` or ``synthetic`` change does not.
  The pattern is ``mixed`` because of a known defect: with ``follow`` at
  N=64 and 1,024 futures the direct-rho fit at the default learning rate
  fails with ``StepFactorizationError`` after delta escalation (after 17 to
  20 iterations for scenario seeds 0, 1 and 2), since the tanh map bounds
  each rho but does not keep the correlation matrix PSD. ``mixed`` is not
  immune: the same failure ends about 1% of its fits (scenario seeds
  303000 and 401000, near iteration 184). Such a pass counts as failed and
  the run reports ``correct: false``; ``fit.escalations`` and
  ``fit.failures`` show it in the traced run.
- ``cli-pipeline``: generate -> fit -> forecast -> eval through
  ``jointmotion.cli.main``; the only workload that uses ``scene``,
  ``gaussian``, ``metrics`` and ``cli``, and the only one doing file I/O.

Fit iteration caps are part of the size: with 800 iterations (as in
acceptance criterion 6) the direct-rho fit stops on ``convergence_tol``
anywhere between 193 and 800 iterations depending on the seed. The caps sit
below that range so every pass does the same optimizer work and times
compare across seeds. The relevance-head fit runs 750 of the 1,500
iterations acceptance criterion 6 allows, so that a 30-second run holds
three to four ``recover`` passes rather than two to three.

The smoke sizes are tiny (N=3, T=2, a few scenes and iterations) except
for ``recover``, which keeps its 12,000 futures (10,000 for training) and
150 direct-rho iterations, which recover rho within 0.010 to 0.018 at T=2
(scenario seeds 0 to 2). The sampling error of the fit grows as the
training set shrinks: with 2,000 training futures it reached 0.069 and
with 1,000 it reached 0.081 (scenario seeds 0 to 5), over the 0.05
tolerance, and the smoke run keeps that check as it is.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import time

import numpy as np

from jointmotion.cli import main as cli_main
from jointmotion.fit import DirectRhoParams, FitConfig, FitDataset, fit_parameters, nll_objective
from jointmotion.gaussian import JointGaussian, sample_joint, tikhonov_regularize, trajectory_nll
from jointmotion.increments import assemble_joint, projected_marginals
from jointmotion.scene import ModeSet, load_scene, save_modes
from jointmotion.synthetic import ScenarioConfig, SceneTruth, sample_future_positions

RECOVERY_TOLERANCE = 0.05  # acceptance criterion 6
SCORING_REPEATS = 5
KEPT_FAILURES = 5  # failure messages kept per run; all are counted

SIZES = {
    "full": {
        "recover": {"t_fut": 12, "futures": 12_000, "train": 10_000, "direct_iters": 150, "head_iters": 750},
        "large-scene": {"n_agents": 64, "t_fut": 12, "futures": 1_280, "train": 1_024, "iters": 200},
        "cli-pipeline": {"n_agents": 8, "t_fut": 12, "scenes": 250, "fit_iters": 150, "modes": 6},
    },
    "smoke": {
        "recover": {"t_fut": 2, "futures": 12_000, "train": 10_000, "direct_iters": 150, "head_iters": 20},
        "large-scene": {"n_agents": 3, "t_fut": 2, "futures": 80, "train": 64, "iters": 10},
        "cli-pipeline": {"n_agents": 3, "t_fut": 2, "scenes": 8, "fit_iters": 10, "modes": 6},
    },
}


class Ops:
    """Attempted and failed operations: fits, CLI calls, factorizations and
    output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < KEPT_FAILURES:
                self.failures.append(what)
        return ok


class PassFailed(Exception):
    """An operation failed (already recorded) and the rest of the pass needs it."""


def _require(ops, ok, what):
    if not ops.record(ok, what):
        raise PassFailed(what)


def _require_fit(ops, report, what):
    ok = not report.failure_flag and math.isfinite(report.final_nll)
    _require(ops, ok, f"{what}: {report.failure_reason}")


def _rho_err(report, truth):
    return float(np.max(np.abs(report.recovered_rho - truth.rho.rho)))


def _held_out_nll(report, truth, dataset):
    """Held-out NLL under the recovered and the true correlations."""
    delta = report.delta_reg_used
    recovered = DirectRhoParams.from_rho(np.clip(report.recovered_rho, -0.999999, 0.999999))
    true = DirectRhoParams.from_rho(truth.rho.rho, t_fut=dataset.t_fut)
    return nll_objective(recovered, dataset, delta), nll_objective(true, dataset, delta)


def _score_held_out(reports, truth, dataset, held):
    """Held-out dataset build plus NLL under each report's and the true rho,
    repeated because one scoring takes milliseconds, too short to time once.
    Returns (seconds per scoring, [(NLL under report, NLL under truth), ...])."""
    t0 = time.perf_counter()
    for _ in range(SCORING_REPEATS):
        held_set = dataset(held)
        nlls = [_held_out_nll(report, truth, held_set) for report in reports]
    return (time.perf_counter() - t0) / SCORING_REPEATS, nlls


def _dataset_of(futures, yaws, current, truth):
    """FitDataset over a slice of one family's sampled futures."""
    return lambda sl: FitDataset(current, yaws[0].T, truth.mu_delta, truth.sigma_delta, futures[sl])


def recover(size, seed, ops, work_dir):
    config = ScenarioConfig(
        pattern="follow", n_agents=3, t_obs=2, t_fut=size["t_fut"],
        target_rho=0.8, noise_sigma=0.5, seed=seed,
    )
    t0 = time.perf_counter()
    futures, yaws, current, truth = sample_future_positions(config, size["futures"])
    t1 = time.perf_counter()
    dataset = _dataset_of(futures, yaws, current, truth)
    train, held = slice(0, size["train"]), slice(size["train"], None)
    train_set = dataset(train)
    direct = fit_parameters(
        FitConfig(max_iters=size["direct_iters"], convergence_tol=1e-10), train_set
    )
    head = fit_parameters(
        FitConfig(
            parameterization="relevance-head", learning_rate=0.03,
            max_iters=size["head_iters"], convergence_tol=1e-12, seed=5,
        ),
        train_set,
    )
    t2 = time.perf_counter()
    _require_fit(ops, direct, "direct-rho fit")
    _require_fit(ops, head, "relevance-head fit")
    eval_s, ((nll_direct, nll_true), (nll_head, _)) = _score_held_out((direct, head), truth, dataset, held)
    err_direct = _rho_err(direct, truth)
    ops.record(err_direct <= RECOVERY_TOLERANCE, f"direct-rho error {err_direct:.4f} > {RECOVERY_TOLERANCE}")
    ops.record(all(map(math.isfinite, (nll_direct, nll_head, nll_true))), "held-out NLL not finite")
    return {
        "generate_s": t1 - t0, "fit_s": t2 - t1, "eval_s": eval_s,
        "rho_err_direct": err_direct, "rho_err_head": _rho_err(head, truth),
        "val_nll_gap": nll_direct - nll_true,
    }


def large_scene(size, seed, ops, work_dir):
    config = ScenarioConfig(
        pattern="mixed", n_agents=size["n_agents"], t_obs=4, t_fut=size["t_fut"],
        target_rho=0.8, seed=seed,
    )
    t0 = time.perf_counter()
    futures, yaws, current, truth = sample_future_positions(config, size["futures"])
    t1 = time.perf_counter()
    dataset = _dataset_of(futures, yaws, current, truth)
    train, held = slice(0, size["train"]), slice(size["train"], None)
    report = fit_parameters(FitConfig(max_iters=size["iters"]), dataset(train))
    t2 = time.perf_counter()
    _require_fit(ops, report, "direct-rho fit")
    eval_s, ((nll_fit, nll_true),) = _score_held_out((report,), truth, dataset, held)
    ops.record(math.isfinite(nll_fit) and math.isfinite(nll_true), "held-out NLL not finite")
    return {
        "generate_s": t1 - t0, "fit_s": t2 - t1, "eval_s": eval_s,
        "rho_err_direct": _rho_err(report, truth), "val_nll_gap": nll_fit - nll_true,
    }


def _forecast(gen_dir, fit_dir, pred_dir, n_modes, ops):
    """Per scene and step: truth marginals + recovered rho -> regularized joint;
    score the scene's future and sample joint modes."""
    report = json.loads((fit_dir / "fit_report.json").read_text())
    rho = np.asarray(report["recovered_rho"])
    delta = report["delta_reg_used"]
    truth = SceneTruth.from_dict(json.loads((gen_dir / "scene_000.truth.json").read_text()))
    pred_dir.mkdir()
    scene_paths = sorted(p for p in gen_dir.glob("scene_*.json") if not p.name.endswith(".truth.json"))
    for index, path in enumerate(scene_paths):
        scene = load_scene(path)
        n, t_fut = scene.n_agents, scene.t_fut
        dists = []
        for t in range(t_fut):
            theta = scene.yaw[:, t]
            joint = assemble_joint(
                projected_marginals(truth.increment_params(t), theta, scene.current), rho[t], theta
            )
            dists.append(JointGaussian(joint.mean, tikhonov_regularize(joint.cov, delta)))
        nll = trajectory_nll(dists, scene.future.transpose(1, 0, 2).reshape(t_fut, 2 * n))
        steps = [sample_joint(dist, index * t_fut + t, n_modes) for t, dist in enumerate(dists)]
        # 2T factorizations (T in trajectory_nll, one per sample_joint); a
        # failed one raises and fails the pass.
        ops.attempted += 2 * t_fut
        ops.record(math.isfinite(nll), f"{path.name}: trajectory NLL not finite")
        modes = np.stack(steps, axis=1).reshape(n_modes, t_fut, n, 2).transpose(0, 2, 1, 3)
        save_modes(ModeSet(modes), pred_dir / path.name)
    return len(scene_paths)


def _check_eval_csv(path, n_scenes, ops):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    ade = [r for r in rows if r[0] != "mean" and r[1] == "minJointADE"]
    fde = [r for r in rows if r[0] != "mean" and r[1] == "minJointFDE"]
    means = {r[1]: float(r[2]) for r in rows if r[0] == "mean"}
    ops.record(
        len(rows) == 2 * n_scenes + 2 and len(ade) == len(fde) == n_scenes and len(means) == 2,
        f"eval CSV has {len(rows)} rows for {n_scenes} scenes",
    )
    ops.record(all(math.isfinite(float(r[2])) for r in rows), "eval CSV has non-finite values")
    return means.get("minJointADE", math.nan), means.get("minJointFDE", math.nan)


def cli_pipeline(size, seed, ops, work_dir):
    work_dir.mkdir(parents=True)
    scenario = work_dir / "scenario.json"
    scenario.write_text(json.dumps({
        "pattern": "mixed", "n_agents": size["n_agents"], "t_obs": 4,
        "t_fut": size["t_fut"], "target_rho": 0.8, "seed": seed, "n_scenes": size["scenes"],
    }))
    fit_config = work_dir / "fit.json"
    fit_config.write_text(json.dumps({"max_iters": size["fit_iters"]}))
    gen, fit, pred, out_csv = (work_dir / name for name in ("gen", "fit", "pred", "eval/metrics.csv"))

    def run(argv):
        _require(ops, cli_main(argv) == 0, f"jointmotion {argv[0]} exited nonzero")

    t0 = time.perf_counter()
    run(["generate", str(scenario), "--out", str(gen)])
    t1 = time.perf_counter()
    run(["fit", str(gen), str(fit_config), "--out", str(fit)])
    t2 = time.perf_counter()
    n_scenes = _forecast(gen, fit, pred, size["modes"], ops)
    run(["eval", str(pred), str(gen), "--out", str(out_csv)])
    t3 = time.perf_counter()

    report = json.loads((fit / "fit_report.json").read_text())
    ops.record(
        not report["failure_flag"] and report["final_nll"] is not None
        and math.isfinite(report["final_nll"]),
        f"fit report: {report['failure_reason']}",
    )
    truth = SceneTruth.from_dict(json.loads((gen / "scene_000.truth.json").read_text()))
    ade, fde = _check_eval_csv(out_csv, n_scenes, ops)
    disk = sum(p.stat().st_size for p in work_dir.rglob("*") if p.is_file())
    shutil.rmtree(work_dir)
    return {
        "generate_s": t1 - t0, "fit_s": t2 - t1, "eval_s": t3 - t2,
        "disk_mb": disk / 1e6,
        "rho_err_direct": float(np.max(np.abs(np.asarray(report["recovered_rho"]) - truth.rho.rho))),
        "joint_ade_m": ade, "joint_fde_m": fde,
    }


PASSES = {"recover": recover, "large-scene": large_scene, "cli-pipeline": cli_pipeline}


def warm_up():
    """The one warm-up call counted in set-up time: a tiny fit."""
    config = ScenarioConfig(pattern="follow", n_agents=2, t_obs=2, t_fut=2, seed=0)
    futures, yaws, current, truth = sample_future_positions(config, 16)
    dataset = FitDataset(current, yaws[0].T, truth.mu_delta, truth.sigma_delta, futures)
    fit_parameters(FitConfig(max_iters=2), dataset)
