"""Command-line entry point for reproducible runs.

Subcommands: ``generate`` (synthetic scenes + ground-truth sidecars),
``fit`` (correlation recovery on a scene directory), ``eval`` (joint
displacement metrics to CSV), ``gradcheck`` (analytic vs numeric
gradients). Configuration comes from JSON files plus a small set of
override flags; no environment variables. Every run writes exactly one
``run_manifest.json`` describing the command, the effective config, the
artifacts and the wall-clock duration.

Exit codes: 0 ok, 1 invalid config or shape mismatch (or an input too
large for memory), 2 I/O failure, 3 fit failure, 4 gradient-check
failure. A failure prints one line to stderr: ``error: ...``, or ``fit
failed: ...`` after a fit's report is written. An input file that cannot
be decoded is named in its line.

CSV output uses '.' decimals, ',' separators, a header row and LF line
endings, so outputs are stable for golden-file comparisons.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__
from .fit import FitConfig, FitDataset, fit_parameters, gradient_check, make_params
from .gaussian import NotPositiveDefiniteError
from .metrics import min_joint_ade, min_joint_fde
from .scene import json_fields, load_json, load_modes, load_scene, save_scene, write_json
from .synthetic import ScenarioConfig, SceneTruth, generate_scenes

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_FIT = 3
EXIT_GRADCHECK = 4

GRADCHECK_THRESHOLD = 1e-5


class _Failure(Exception):
    """Ends a command: :func:`main` prints one ``error:`` line and
    returns ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _reading(what: str):
    """Map failures while parsing and checking an input: unreadable is
    an I/O failure, malformed or inconsistent is an invalid config."""
    try:
        yield
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot read {what}: {exc}") from None
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise _Failure(EXIT_CONFIG, f"invalid {what}: {exc}") from None


@contextmanager
def _writing(what: str):
    """Map a failed output write to an I/O failure."""
    try:
        yield
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot write {what}: {exc}") from None


def _read_config(path, cls, what: str, **overrides):
    """Load a config whose file values give way to the command line's
    given (non-None) ones before it is validated."""
    given = {key: value for key, value in overrides.items() if value is not None}

    def decode(payload):
        return cls.from_dict({**json_fields(payload, what), **given})

    with _reading(what):
        return load_json(path, decode)


def _write_manifest(
    out_dir: Path,
    command: str,
    config_echo: dict,
    seed: Optional[int],
    artifacts: List[str],
    started: float,
) -> None:
    manifest = {
        "command": command,
        "config": config_echo,
        "seed": seed,
        "artifacts": artifacts,
        "duration_s": time.monotonic() - started,
        "version": __version__,
    }
    write_json(manifest, out_dir / "run_manifest.json")


def _cmd_generate(args) -> int:
    started = time.monotonic()
    config = _read_config(args.config, ScenarioConfig, "scenario config", seed=args.seed)
    with _reading("scenario config"):
        # Scene rejects every non-finite result, so numpy's overflow
        # warnings would only precede the error line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            scenes, truth = generate_scenes(config, config.n_scenes)

    out_dir = Path(args.out)
    artifacts = []
    with _writing("outputs"):
        out_dir.mkdir(parents=True, exist_ok=True)
        for index, scene in enumerate(scenes):
            scene_name = f"scene_{index:03d}.json"
            truth_name = f"scene_{index:03d}.truth.json"
            save_scene(scene, out_dir / scene_name)
            if index:  # every scene shares one truth: copy the first one's bytes
                (out_dir / truth_name).write_bytes(truth_bytes)
            else:
                write_json(truth.to_dict(), out_dir / truth_name)
                truth_bytes = (out_dir / truth_name).read_bytes()
            artifacts.extend([scene_name, truth_name])
        _write_manifest(out_dir, "generate", config.to_dict(), config.seed, artifacts, started)
    print(f"wrote {len(scenes)} scene(s) to {out_dir}")
    return EXIT_OK


def _load_dataset_dir(dataset_dir: Path):
    scene_paths = sorted(
        p for p in dataset_dir.glob("scene_*.json") if not p.name.endswith(".truth.json")
    )
    if not scene_paths:
        raise ValueError(f"no scene files in {dataset_dir}")
    scenes = []
    truth = None
    for path in scene_paths:
        scenes.append(load_scene(path))
        truth_path = path.with_name(path.name[: -len(".json")] + ".truth.json")
        candidate = load_json(truth_path, SceneTruth.from_dict)
        if truth is None:
            truth = candidate
        elif not (
            np.array_equal(candidate.rho.rho, truth.rho.rho)
            and np.array_equal(candidate.mu_delta, truth.mu_delta)
            and np.array_equal(candidate.sigma_delta, truth.sigma_delta)
        ):
            raise ValueError(f"{truth_path} disagrees with earlier ground truth")
    return scenes, truth


def _cmd_fit(args) -> int:
    started = time.monotonic()
    dataset_dir = Path(args.dataset)
    if not dataset_dir.is_dir():
        raise _Failure(EXIT_IO, f"dataset directory not found: {dataset_dir}")
    config = _read_config(
        args.fit_config, FitConfig, "fit config", seed=args.seed, delta_reg=args.delta_reg
    )
    with _reading("dataset"):
        # no name holds the scenes, so they are freed before the fit
        dataset = FitDataset.from_scenes(*_load_dataset_dir(dataset_dir))

    report = fit_parameters(config, dataset)

    out_dir = Path(args.out)
    with _writing("outputs"):
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(report.to_dict(), out_dir / "fit_report.json")
        with open(out_dir / "nll_trace.csv", "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["iteration", "nll"])
            for index, value in enumerate(np.asarray(report.nll_trace)):
                writer.writerow([index, repr(float(value))])
        write_json({"rho": report.recovered_rho}, out_dir / "recovered_rho.json")
        _write_manifest(
            out_dir,
            "fit",
            config.to_dict(),
            config.seed,
            ["fit_report.json", "nll_trace.csv", "recovered_rho.json"],
            started,
        )

    if report.failure_flag:
        print(f"fit failed: {report.failure_reason}", file=sys.stderr)
        return EXIT_FIT
    iterations = report.iterations_run
    if report.stop_reason == "convergence_tol":
        outcome = f"converged in {iterations} iterations (objective change below convergence_tol)"
    else:
        outcome = f"stopped at max_iters ({iterations} iterations) without converging"
    print(f"fit {outcome}, final NLL {report.final_nll:.6f}")
    return EXIT_OK


def _eval_pairs(pred_path: Path, gt_path: Path):
    """Yield (prediction file name, ModeSet, gt_future) for file or
    directory inputs."""
    if pred_path.is_dir() != gt_path.is_dir():
        raise ValueError("prediction and ground-truth paths must both be files or both dirs")
    if pred_path.is_dir():
        names = sorted(p.name for p in pred_path.glob("*.json"))
        if not names:
            raise ValueError(f"no prediction files in {pred_path}")
        for name in names:
            yield name, load_modes(pred_path / name), load_scene(gt_path / name).future
    else:
        yield pred_path.name, load_modes(pred_path), load_scene(gt_path).future


def _cmd_eval(args) -> int:
    started = time.monotonic()
    pred_path = Path(args.pred)
    gt_path = Path(args.gt)
    for path in (pred_path, gt_path):
        if not path.exists():
            raise _Failure(EXIT_IO, f"missing input: {path}")
    rows = []
    ade_values = []
    fde_values = []
    with _reading("evaluation input"):
        for name, modes, gt in _eval_pairs(pred_path, gt_path):
            try:
                ade = min_joint_ade(modes, gt)
                fde = min_joint_fde(modes, gt)
            except ValueError as exc:
                # in a directory of many pairs, say which one is bad
                raise ValueError(f"{name}: {exc}") from None
            scene_id = Path(name).stem
            rows.append([scene_id, "minJointADE", repr(ade.value), ade.argmin_mode])
            rows.append([scene_id, "minJointFDE", repr(fde.value), fde.argmin_mode])
            ade_values.append(ade.value)
            fde_values.append(fde.value)

    out_csv = Path(args.out)
    with _writing("CSV"):
        out_csv.parent.mkdir(parents=True, exist_ok=True)
        with open(out_csv, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["scene_id", "metric", "value", "argmin_mode"])
            writer.writerows(rows)
            writer.writerow(["mean", "minJointADE", repr(float(np.mean(ade_values))), ""])
            writer.writerow(["mean", "minJointFDE", repr(float(np.mean(fde_values))), ""])
        _write_manifest(
            out_csv.parent,
            "eval",
            {"pred": str(pred_path), "gt": str(gt_path), "out": str(out_csv)},
            None,
            [out_csv.name],
            started,
        )
    print(f"wrote {out_csv}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    started = time.monotonic()
    for flag, value in (("--step", args.step), ("--delta-reg", args.delta_reg)):
        if not (value > 0.0 and math.isfinite(value)):
            raise _Failure(EXIT_CONFIG, f"{flag} must be positive and finite")
    with _reading("gradcheck input"):
        configs = [
            FitConfig(parameterization=name, seed=args.seed, delta_reg=args.delta_reg)
            for name in ("direct-rho", "relevance-head")
        ]
        scenario = ScenarioConfig(
            pattern="mixed",
            n_agents=args.n_agents,
            t_obs=2,
            t_fut=args.t_fut,
            target_rho=0.5,
            noise_sigma=0.5,
            seed=args.seed,
        )
        dataset = FitDataset.from_config(scenario, n_futures=args.n_futures)
    worst = 0.0
    for config in configs:
        params = make_params(config, dataset)
        try:
            error = gradient_check(params, dataset, config.delta_reg, args.step)
        except (NotPositiveDefiniteError, FloatingPointError) as exc:
            raise _Failure(
                EXIT_GRADCHECK, f"{config.parameterization}: objective not defined: {exc}"
            ) from None
        print(f"{config.parameterization}: max relative gradient error {error:.3e}")
        worst = max(worst, error)
    out_dir = Path(args.out)
    with _writing("manifest"):
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_manifest(
            out_dir,
            "gradcheck",
            {
                "seed": args.seed,
                "n_agents": args.n_agents,
                "t_fut": args.t_fut,
                "n_futures": args.n_futures,
                "step": args.step,
                "delta_reg": args.delta_reg,
            },
            args.seed,
            [],
            started,
        )
    print(f"max relative gradient error {worst:.3e}")
    if worst >= GRADCHECK_THRESHOLD:
        print("gradient check FAILED", file=sys.stderr)
        return EXIT_GRADCHECK
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointmotion",
        description="Synthetic scene generation, correlation fitting and joint metrics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write synthetic scenes plus ground truth")
    gen.add_argument("config", help="scenario config JSON")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=None, help="override config seed")
    gen.set_defaults(func=_cmd_generate)

    fit = sub.add_parser("fit", help="recover correlations from a scene directory")
    fit.add_argument("dataset", help="directory of scene_*.json + sidecars")
    fit.add_argument("fit_config", help="fit config JSON")
    fit.add_argument("--out", required=True, help="output directory")
    fit.add_argument("--seed", type=int, default=None, help="override config seed")
    fit.add_argument("--delta-reg", type=float, default=None, help="override delta_reg")
    fit.set_defaults(func=_cmd_fit)

    ev = sub.add_parser("eval", help="joint displacement metrics to CSV")
    ev.add_argument("pred", help="prediction JSON (modes) or directory")
    ev.add_argument("gt", help="ground-truth scene JSON or directory")
    ev.add_argument("--out", required=True, help="output CSV path")
    ev.set_defaults(func=_cmd_eval)

    gc = sub.add_parser("gradcheck", help="verify analytic gradients")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--n-agents", type=int, default=3)
    gc.add_argument("--t-fut", type=int, default=4)
    gc.add_argument("--n-futures", type=int, default=64)
    gc.add_argument("--step", type=float, default=1e-6)
    # mild regularization keeps the finite-difference probe well
    # conditioned; the analytic chain is identical for any delta
    gc.add_argument("--delta-reg", type=float, default=1e-2)
    gc.add_argument("--out", default=".", help="manifest directory")
    gc.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return failure.code
    except MemoryError as exc:  # an input whose arrays exceed the machine's memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
