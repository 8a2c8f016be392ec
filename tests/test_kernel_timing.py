"""The timing script runs and prints a row per timed call."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "kernel_timing.py"


def test_prints_environment_and_one_row_per_timed_call():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--sizes", "2", "--t-fut", "2", "--calls", "2"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    lines = result.stdout.splitlines()
    assert "OPENBLAS_NUM_THREADS=1" in lines[1] and "cpu_count" in lines[1]
    assert lines[2].split() == ["call", "N", "T", "calls", "min_us", "median_us", "peak_kib"]
    rows = [line.split() for line in lines[3:]]
    assert [row[:4] for row in rows] == [
        ["sample_future_positions", "2", "2", "2"],
        ["FitDataset", "2", "2", "2"],
        ["UnitRowRhoParams", "2", "2", "2"],
        ["RelevanceParams", "2", "2", "2"],
        ["fit_parameters/direct-rho", "2", "2", "2"],
        ["fit_parameters/relevance-head", "2", "2", "2"],
    ]
    assert all(0.0 < float(row[4]) <= float(row[5]) for row in rows)
    assert all(float(row[6]) > 0.0 for row in rows)
