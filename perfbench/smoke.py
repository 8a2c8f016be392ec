"""Smoke check of the benchmark at tiny sizes (N=3, T=2, a few futures,
scenes and iterations): each workload runs once untraced and once traced,
and every metric in ``spec.py`` must be printed with its unit, or as absent
exactly where it does not apply.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from spec import END_TO_END, LAYERS, TRACE_METRICS, WORKLOADS, layer_present

BENCH = Path(__file__).resolve().parent


def expected(workload, trace):
    """name -> unit, or None where the metric must be reported absent."""
    if not trace:
        return {name: unit if workload in applies else None
                for name, (unit, applies, _) in END_TO_END.items()}
    out = dict(TRACE_METRICS)
    for layer, spec in LAYERS.items():
        present = layer_present(layer, workload)
        out.update({f"{layer}.{name}": unit if present else None for name, unit in spec["metrics"].items()})
    return out


def check(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            parts = line.split()
            printed[parts[1]] = None if parts[2] == "absent" else parts[3]
    for name, unit in expected(workload, trace).items():
        if name not in printed:
            problems.append(f"{name} not printed")
        elif printed[name] != unit:
            problems.append(f"{name}: printed {printed[name] or 'absent'}, expected {unit or 'absent'}")
    if not any(line.startswith("environment {") for line in lines):
        problems.append("no environment block")
    try:
        last = json.loads(lines[-1])
        if set(last) != {"correct", "attempted", "failed", "metrics"} or not last["correct"]:
            problems.append(f"bad result line: {lines[-1][:200]}")
    except (IndexError, ValueError):
        problems.append("last line is not a JSON result")
    return problems


def main():
    failed = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check(workload, trace)
            failed = failed or bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAILED'}")
            for problem in problems:
                print("  " + problem)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
