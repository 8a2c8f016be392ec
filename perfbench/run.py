"""jointmotion benchmark.

    python3 perfbench/run.py --workload recover --seed 0 --seconds 30 --trace 0

Workloads: ``recover``, ``large-scene``, ``cli-pipeline`` (see ``workloads.py``
for what each runs and why), or ``all`` to run the three in turn. Each runs
in its own Python process with ``OPENBLAS_NUM_THREADS=1`` set before numpy is
imported, as a closed loop with one caller. Every ``ScenarioConfig.seed`` is
derived from ``--seed``.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
a separate traced run reports the per-layer metrics and the tracing overhead.
The timed end-to-end metrics are scaled to a reference host speed measured
in the same run (see ``reference.py``); the raw wall times are printed too.
Before the last line the output lists every metric with its unit and sample
count (absent where it does not apply), the environment block and the output
checks; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics ``BENCHMARK.json`` names. Full results and the
trace spans go to ``.perfbench_out/``. A failed check makes the exit code 1.

``--smoke`` runs tiny sizes; ``perfbench/smoke.py`` uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, LAYERS, NOMINAL_S, SCALED, WORKLOADS, layer_present, layer_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 8
RUN_LIMIT_S = 150  # set-up probes plus worker, so a run ends within 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COUNT_UNITS = ("count", "B")


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed output check)."""


def worker_env():
    env = dict(os.environ, **PINNED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_worker(argv, timeout):
    cmd = [sys.executable, str(BENCH / "worker.py"), *argv]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() kills the child and waits for it
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(argv)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_times(count):
    """Fresh interpreter + import jointmotion + one warm-up call, ``count``
    times. Returns (wall seconds, reference seconds) per probe; the wall time
    leaves out the reference block the probe times after its warm-up call."""
    probes = []
    for _ in range(count):
        t0 = time.perf_counter()
        out = json.loads(run_worker(["--probe"], timeout=10).strip().splitlines()[-1])
        probes.append((time.perf_counter() - t0 - out["reference_total_s"], out["reference_s"]))
    return probes


def median_of(rows, key):
    values = [row[key] for row in rows if row.get(key) is not None]
    return (statistics.median(values), len(values)) if values else (None, 0)


def end_to_end(workload, result, probes):
    rows = result["untraced"]
    metrics = {
        "setup_s": (statistics.median(wall * NOMINAL_S / ref for wall, ref in probes),
                    f"{len(probes)} probes, each scaled by its own reference time"),
        "setup_wall_s": (statistics.median(wall for wall, _ in probes), f"{len(probes)} probes"),
    }
    for name in ("pass_s", "generate_s", "fit_s", "eval_s", "reference_ms", "disk_mb", "rho_err_direct",
                 "rho_err_head", "val_nll_gap", "joint_ade_m", "joint_fde_m"):
        key, note = (f"{name}_scaled", ", scaled by the reference sampled during each") if name in SCALED else (name, "")
        value, n = median_of(rows, key)
        metrics[name] = (value, f"{n} passes{note}")
    metrics["pass_wall_s"] = (median_of(rows, "pass_s")[0], f"{len(rows)} passes, without the sampling time")
    metrics["peak_rss_mb"] = (result["peak_rss_mb"], "1 process")
    metrics["fail_ratio"] = (result["failed"] / result["attempted"], f"{result['attempted']} operations")
    for name, (unit, applies, _) in END_TO_END.items():
        if workload not in applies:
            metrics[name] = (None, "")
    return {name: metrics[name] for name in END_TO_END}


def per_layer(result):
    rows = result["layers"]
    metrics = {}
    for name in layer_units():
        value, n = median_of(rows, name)
        metrics[name] = (value, f"{n} traced passes")
    # Each traced pass reran the inputs of the untraced pass just before it.
    plain = {row["scenario_seed"]: row["pass_s"] for row in result["untraced"]}
    diffs = [row["pass_s"] - plain[row["scenario_seed"]] for row in result["traced"] if row["scenario_seed"] in plain]
    overhead = statistics.median(diffs) if diffs else None
    metrics["trace.overhead_s"] = (overhead, f"{len(diffs)} pairs, median of traced minus untraced pass_s")
    return metrics


def contract_metrics(measured, declared, units):
    out = {}
    for entry in declared:
        name = entry["name"]
        if units[name] != entry["unit"]:
            raise BenchError(f"{name}: unit {units[name]} here, {entry['unit']} in BENCHMARK.json")
        value, _ = measured[name]
        if value is None:
            if entry["unit"] not in COUNT_UNITS:
                raise BenchError(f"{name} is not measured on this workload")
            value = 0  # a count of an absent layer is a measured zero
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def run_workload(args, workload, declared, deadline):
    probes = [] if args.trace else setup_times(SETUP_PROBES)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"{stem}.json"
    argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--result", str(result_path)]
    if args.smoke:
        argv.append("--smoke")
    run_worker(argv, timeout=max(deadline - time.monotonic(), 1.0))
    result = json.loads(result_path.read_text())

    if args.trace:
        measured, units = per_layer(result), layer_units()
        section = "per_layer"
    else:
        measured = end_to_end(workload, result, probes)
        units = {name: spec[0] for name, spec in END_TO_END.items()}
        section = "end_to_end"

    print(f"# {workload} seed={args.seed} trace={args.trace} untraced passes={len(result['untraced'])} "
          f"traced passes={len(result['traced'])} (closed loop, 1 caller, BLAS threads pinned to 1)")
    print("environment " + json.dumps(result["environment"]))
    for name, (value, samples) in measured.items():
        if value is None:
            layer = name.split(".")[0]
            if layer in LAYERS and layer_present(layer, workload):
                raise BenchError(f"{name} missing on {workload}")
            print(f"metric {name} absent")
        else:
            print(f"metric {name} {value!r} {units[name]} (n={samples})")
    for failure in result["failures"]:
        print("check FAILED: " + failure.strip().replace("\n", " | "))
    print(f"checks {result['attempted'] - result['failed']} of {result['attempted']} operations ok")

    result.update(metrics={k: v[0] for k, v in measured.items()}, setup_probes=probes)
    result_path.write_text(json.dumps(result, indent=1))
    return result, contract_metrics(measured, declared[section], units)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for smoke.py")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "jointmotion" / "__init__.py").is_file():
        sys.exit(f"error: no jointmotion sources under {ROOT / 'src'}")
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        sys.exit(f"error: cannot read BENCHMARK.json: {exc}")

    OUT.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for workload in workloads:
            result, measured = run_workload(args, workload, declared, time.monotonic() + RUN_LIMIT_S)
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + name: value for name, value in measured.items()})
    except BenchError as exc:
        sys.exit(f"error: {exc}")
    finally:
        for work in OUT.glob("work-*"):
            shutil.rmtree(work, ignore_errors=True)

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
