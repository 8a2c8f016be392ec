"""Per-call time of the fit's data side and objective, on one BLAS thread.

    python tests/kernel_timing.py [--sizes 3 8 32 64] [--t-fut 12]
        [--calls 200] [--src DIR]

For each N in ``--sizes`` it samples one ``mixed`` family of 256 futures
at ``--t-fut`` steps and times ``--calls`` calls, each after three
untimed calls, of:
- ``sample_future_positions``, drawing that family again;
- the ``FitDataset`` build from the family (its residual statistics);
- ``value_and_grad`` on ``UnitRowRhoParams`` (the direct-rho fit's
  parameters, at small random values) and on ``RelevanceParams`` (the
  relevance-head fit's seeded head).

It prints the minimum and median time per call in microseconds and the
tracemalloc peak of one more, untimed call in KiB, one row per call and
N, with the numpy and scipy versions, the BLAS vendor and the CPU count. ``--src`` imports ``jointmotion`` from ``DIR/src`` instead
of this checkout's, so an export of another commit (``git archive``) is
timed by the same script.

Not part of tier 1 (like ``ab_pairs.py``); the defaults take about half
a minute.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

# before numpy loads OpenBLAS (in main): unpinned threads make small-matrix timings noise
os.environ["OPENBLAS_NUM_THREADS"] = "1"

REPO = Path(__file__).resolve().parent.parent
FUTURES = 256  # futures in each sampled family


def blas_vendor(module) -> str:
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def call_times(call, calls: int) -> list:
    """Seconds per call of ``call()``, after three untimed calls."""
    for _ in range(3):
        call()
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return times


def peak_kib(call) -> float:
    """The tracemalloc peak of one ``call()``, in KiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[3, 8, 32, 64])
    parser.add_argument("--t-fut", type=int, default=12)
    parser.add_argument("--calls", type=int, default=200)
    parser.add_argument("--src", type=Path, default=REPO,
                        help="tree whose src/jointmotion is timed (default: this checkout)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve() / "src"))

    import numpy as np
    import scipy

    import jointmotion
    from jointmotion import ScenarioConfig, pair_count, sample_future_positions
    from jointmotion.fit import FitDataset, RelevanceParams, UnitRowRhoParams

    print(f"jointmotion {jointmotion.__version__} from {Path(jointmotion.__file__).parent}")
    print(
        f"numpy {np.__version__} ({blas_vendor(np)}), scipy {scipy.__version__} "
        f"({blas_vendor(scipy)}), OPENBLAS_NUM_THREADS=1, cpu_count {os.cpu_count()}"
    )
    print(
        f"{'call':<24}{'N':>4}{'T':>4}{'calls':>7}{'min_us':>11}{'median_us':>11}{'peak_kib':>11}"
    )
    for n in args.sizes:
        config = ScenarioConfig(pattern="mixed", n_agents=n, t_fut=args.t_fut, target_rho=0.5)
        futures, yaws, current, truth = sample_future_positions(config, FUTURES)

        def build():
            return FitDataset(current, yaws[0].T, truth.mu_delta, truth.sigma_delta, futures)

        dataset = build()
        raw = np.random.default_rng(n).normal(scale=0.1, size=(args.t_fut, pair_count(n)))
        calls = [
            ("sample_future_positions", lambda: sample_future_positions(config, FUTURES)),
            ("FitDataset", build),
        ] + [
            (type(params).__name__, lambda params=params: params.value_and_grad(dataset, 1e-4))
            for params in (UnitRowRhoParams(raw, n), RelevanceParams.initialize(8, seed=0))
        ]
        for name, call in calls:
            times = call_times(call, args.calls)
            print(
                f"{name:<24}{n:>4}{args.t_fut:>4}{args.calls:>7}"
                f"{min(times) * 1e6:>11.1f}{statistics.median(times) * 1e6:>11.1f}"
                f"{peak_kib(call):>11.1f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
