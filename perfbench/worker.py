"""One workload in one pinned process; started by ``run.py``, not by hand.

The runner sets ``OPENBLAS_NUM_THREADS=1`` (and the OpenMP/MKL equivalents)
before this interpreter imports numpy, and puts the checkout's ``src`` first
on ``PYTHONPATH``. The loop is closed, with one caller and no extra threads:
each pass starts when the previous one has finished.

``--probe`` only imports and makes the warm-up call, for set-up timing,
then times the reference block (``reference.py``) and prints that time.
Otherwise the worker runs passes until the next one would end after
``--seconds`` and writes a JSON result to ``--result``; with ``--trace 0``
it samples the reference block throughout every pass and records the
pass's times scaled by it (``<name>_scaled``) beside the raw ones.
With ``--trace 1`` passes alternate untraced and traced on the same inputs;
per-layer metrics come from the traced ones and tracing overhead from the
difference.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import jointmotion
import layers
import reference
import workloads
from spec import NOMINAL_S, SCALED
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2  # per kind: untraced, and traced when tracing


def _blas(config_module):
    blas = config_module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "jointmotion": jointmotion.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _scale(row, samples, unsampled):
    """Add each timed phase scaled to the reference host speed. Phases other
    than the whole pass still hold the sampling time, a share ``1 - unsampled``
    of every interval."""
    row["reference_ms"] = statistics.fmean(samples) * 1e3
    scale = NOMINAL_S * 1e3 / row["reference_ms"]
    for name in SCALED:
        share = 1.0 if name == "pass_s" else unsampled
        row[f"{name}_scaled"] = row[name] * share * scale


def run(args):
    size = workloads.SIZES["smoke" if args.smoke else "full"][args.workload]
    one_pass = workloads.PASSES[args.workload]
    work_root = Path(args.result).parent / f"work-{os.getpid()}"
    ops = workloads.Ops()
    tracer = Tracer() if args.trace else None
    untraced, traced, layer_rows = [], [], []
    started = time.perf_counter()
    index = 0
    while True:
        traced_pass = bool(args.trace) and index % 2 == 1
        inputs = index // 2 if args.trace else index
        scenario_seed = args.seed * 1000 + inputs
        if traced_pass:
            tracer.pass_id = index
            layers.install(tracer)
        sampler = reference.Sampler()
        t0 = time.perf_counter()
        row = None
        # A failed pass is counted and left out of the timings; the run goes on.
        try:
            with contextlib.nullcontext() if args.trace else sampler:
                row = one_pass(size, scenario_seed, ops, work_root / f"pass-{index}")
        except workloads.PassFailed:
            pass  # the failed operation is already recorded
        except Exception:
            ops.record(False, traceback.format_exc())
        finally:
            if traced_pass:
                tracer.unwrap_all()
        if row is not None:
            wall = time.perf_counter() - t0
            sampled = sum(sampler.samples)
            row["pass_s"] = wall - sampled
            row["scenario_seed"] = scenario_seed
            if not args.trace:
                _scale(row, sampler.samples or [reference.reference_s(1)], 1 - sampled / wall)
            (traced if traced_pass else untraced).append(row)
            if traced_pass:
                layer_rows.append(layers.pass_metrics(tracer, index))
        index += 1
        if args.trace and not traced_pass:
            continue  # traced passes pair with the untraced pass before them
        elapsed = time.perf_counter() - started
        enough = len(untraced) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
        typical = statistics.median(r["pass_s"] for r in untraced + traced) if enough else 0.0
        if (enough and elapsed + typical > args.seconds) or elapsed > 2 * args.seconds:
            break

    result = {
        "environment": environment(args.seed),
        "untraced": untraced,
        "traced": traced,
        "layers": layer_rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
    }
    if tracer is not None:
        tracer.write(Path(args.result).with_suffix(".spans.jsonl"))
    Path(args.result).write_text(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--result")
    args = parser.parse_args()
    if not Path(jointmotion.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"jointmotion imported from {jointmotion.__file__}, not from {ROOT / 'src'}")
    workloads.warm_up()
    if args.probe:
        t0 = time.perf_counter()
        ref = reference.reference_s()
        print(json.dumps({"reference_s": ref, "reference_total_s": time.perf_counter() - t0}))
    else:
        run(args)


if __name__ == "__main__":
    main()
