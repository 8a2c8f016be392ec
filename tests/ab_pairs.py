"""Alternating benchmark pairs between two commits.

    python3 tests/ab_pairs.py PARENT CHANGE --workload cli-pipeline \
        --seeds 81 82 83 84 95 96 97 98 99 100 [--seconds 30] [--work DIR]

Each commit is exported with ``git archive`` into its own directory, and
``perfbench/run.py --workload W --seed S --seconds N --trace 0`` runs from
each export once per seed: one pair per seed, with the side that runs first
alternating from pair to pair (PARENT first in the first pair). For the
end-to-end metrics that ``BENCHMARK.json`` (of CHANGE) declares, the
script prints every pair's values as it finishes, then each side's median
and quartiles, how many pairs CHANGE won (ties count for neither side),
whether the gap between the medians exceeds the distance between
PARENT's quartiles, and a verdict against the metric's ``bound``:
``worse``, ``unresolved`` or ``within bound`` (see :func:`verdict`). The
last line gives each side's total failed and attempted operations.

Standard library only, and its runs are not part of tier 1 (like
``golden_digests.py``): one pair at ``--seconds 30`` takes about a minute
and a half. ``tests/test_ab_pairs.py`` checks :func:`summary`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def export(commit: str, dest: Path) -> Path:
    """The tree of ``commit`` under ``dest``, as ``git archive`` writes it."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", commit],
        check=True, capture_output=True,
    ).stdout
    tar_path = dest.with_suffix(".tar")
    tar_path.write_bytes(archive)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest, filter="data")
    tar_path.unlink()
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last output line of one benchmark run: ``correct``,
    ``attempted``, ``failed`` and the contract metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"error: {' '.join(cmd)} in {tree} printed no result "
                 f"(exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(lower, bound, parent, change):
    """``worse`` when the change's median is worse than the parent's by
    more than ``bound`` (in the metric's unit), else ``unresolved`` when the
    parent's quartile spread is wider than ``bound`` and not every change
    run beats every parent run, else ``within bound``."""
    p1, p2, p3 = quartiles(parent)
    change_median = quartiles(change)[1]
    if (change_median - p2 if lower else p2 - change_median) > bound:
        return "worse"
    clear = max(change) < min(parent) if lower else min(change) > max(parent)
    if p3 - p1 > bound and not clear:
        return "unresolved"
    return "within bound"


def summary(declared, runs, pairs):
    """One line per metric: each side's quartiles, the change's wins,
    whether the medians differ by more than the parent's quartile spread,
    and the verdict against the metric's bound; then each side's failed and
    attempted operations."""
    lines = []
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        lower = entry["better"] == "lower"
        sides = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in runs}
        wins = sum(
            (change < parent) if lower else (change > parent)
            for parent, change in zip(sides["parent"], sides["change"])
        )
        p1, p2, p3 = quartiles(sides["parent"])
        c1, c2, c3 = quartiles(sides["change"])
        lines.append(
            f"{name} ({unit}, {entry['better']} is better): "
            f"parent median {p2:.4g} [q1 {p1:.4g}, q3 {p3:.4g}]; "
            f"change median {c2:.4g} [q1 {c1:.4g}, q3 {c3:.4g}]; "
            f"change wins {wins} of {pairs}; "
            f"median gap {abs(c2 - p2):.4g} vs parent IQR {p3 - p1:.4g}"
            f" ({'exceeds' if abs(c2 - p2) > p3 - p1 else 'within'}); "
            f"bound {entry['bound']:.4g}: "
            f"{verdict(lower, entry['bound'], sides['parent'], sides['change'])}"
        )
    lines.append(
        "operations failed: "
        + "; ".join(
            f"{side} {sum(run['failed'] for run in runs[side])}"
            f"/{sum(run['attempted'] for run in runs[side])}"
            for side in ("parent", "change")
        )
    )
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="commit measured as the baseline")
    parser.add_argument("change", help="commit measured against it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--work", type=Path, help="new directory for the two exports (default: a temporary one)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as scratch:
        work = args.work or Path(scratch) / "ab"
        trees = {side: export(commit, work / side)
                 for side, commit in (("parent", args.parent), ("change", args.change))}
        declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        runs = {"parent": [], "change": []}
        for index, seed in enumerate(args.seeds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], args.workload, seed, args.seconds))
            cells = "  ".join(
                f"{side} "
                + "".join(f"{entry['name']} {runs[side][-1]['metrics'][entry['name']]['value']:.4f} "
                          for entry in declared)
                + f"failed {runs[side][-1]['failed']}/{runs[side][-1]['attempted']}"
                for side in ("parent", "change")
            )
            print(f"pair {index + 1} seed {seed} ({order[0]} first): {cells}", flush=True)

    print(f"# {args.workload}: {len(args.seeds)} pairs, parent {args.parent}, change {args.change}")
    for line in summary(declared, runs, len(args.seeds)):
        print(line)


if __name__ == "__main__":
    main()
