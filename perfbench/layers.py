"""Where the traced run wraps jointmotion, and the per-layer metrics it derives.

Names imported with ``from ... import`` are wrapped in the module that
bound them (``jointmotion.fit.dpotrf``, ``jointmotion.cli.save_scene``),
so only calls made from that module are attributed to the span.
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path

from spec import LAYERS


def _count_futures(tracer, args, kwargs, result):
    tracer.count("synthetic.futures", args[1])  # (config, count), always positional here


def _count_fit(tracer, args, kwargs, result):
    config = args[0]
    tracer.count("fit.iterations", result.iterations_run)
    tracer.count("fit.escalations", int(result.delta_reg_used > config.delta_reg))
    tracer.count("fit.failures", int(result.failure_flag))


def _count_factor(tracer, args, kwargs, result):
    # Distinct matrices are distinct covariance objects.
    tracer.hold(args[0])


def _count_written(tracer, args, kwargs, result):
    tracer.count("scene.bytes_written", os.path.getsize(args[1]))


def _count_read(tracer, args, kwargs, result):
    tracer.count("scene.bytes_read", os.path.getsize(args[0]))


def _cli_span(args, kwargs):
    return f"cli.{args[0][0]}"


def _count_truth(tracer, args, kwargs, result):
    argv = args[0]
    if argv[0] == "generate":
        out_dir = Path(argv[argv.index("--out") + 1])
        tracer.count("cli.truth_bytes", sum(p.stat().st_size for p in out_dir.glob("*.truth.json")))


# (module where the name is bound, attribute, span name, count hook)
WRAPS = (
    ("workloads", "sample_future_positions", "synthetic.simulate", _count_futures),
    ("jointmotion.cli", "generate_scenes", "synthetic.simulate", _count_futures),
    ("jointmotion.fit", "FitDataset.__init__", "fit.dataset", None),
    ("jointmotion.fit", "FitDataset.from_scenes", "fit.dataset", None),
    ("jointmotion.fit", "DirectRhoParams.value_and_grad", "fit.objective", None),
    ("jointmotion.fit", "DirectRhoParams.value", "fit.objective", None),
    ("jointmotion.fit", "RelevanceParams.value_and_grad", "fit.objective", None),
    ("jointmotion.fit", "RelevanceParams.value", "fit.objective", None),
    ("jointmotion.fit", "dpotrf", "fit.linalg", None),
    ("jointmotion.fit", "solve_triangular", "fit.linalg", None),
    ("workloads", "fit_parameters", "fit.optimizer", _count_fit),
    ("jointmotion.cli", "fit_parameters", "fit.optimizer", _count_fit),
    ("jointmotion.fit", "relevance_forward_cached", "relevance.forward", None),
    ("jointmotion.fit", "relevance_backward", "relevance.backward", None),
    ("jointmotion.fit", "projected_marginals", "increments.call", None),
    ("workloads", "projected_marginals", "increments.call", None),
    ("workloads", "assemble_joint", "increments.call", None),
    ("jointmotion.gaussian", "cholesky_factor", "gaussian.factor", _count_factor),
    ("workloads", "trajectory_nll", "gaussian.nll", None),
    ("workloads", "sample_joint", "gaussian.sample", None),
    ("jointmotion.cli", "save_scene", "scene.write", _count_written),
    ("workloads", "save_modes", "scene.write", _count_written),
    ("jointmotion.cli", "load_scene", "scene.read", _count_read),
    ("jointmotion.cli", "load_modes", "scene.read", _count_read),
    ("workloads", "load_scene", "scene.read", _count_read),
    ("jointmotion.cli", "min_joint_ade", "metrics.call", None),
    ("jointmotion.cli", "min_joint_fde", "metrics.call", None),
    ("workloads", "cli_main", _cli_span, _count_truth),
)


def install(tracer):
    """Wrap every callable in WRAPS (``workloads`` is the benchmark's own
    module, through which it calls jointmotion)."""
    for module, attr, span, after in WRAPS:
        tracer.wrap(module, attr, span, after)
    # Held-out scoring is timed as eval_s, so the dataset builds and
    # objective calls inside it are kept out of the fit layer.
    tracer.wrap("workloads", "_score_held_out", "eval.held_out", opaque=True)


def _percentile(values, q):
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_metrics(tracer, pass_id):
    """Every per-layer metric of one traced pass; None where it is undefined."""
    spans = tracer.pass_spans(pass_id)
    counts = tracer.counts.get(pass_id, {})
    durations, self_times, busy = {}, {}, {}
    for name, duration, self_time, parent in spans:
        durations.setdefault(name, []).append(duration)
        self_times[name] = self_times.get(name, 0.0) + self_time
        if parent != name:  # outermost span of its kind: busy time
            busy[name] = busy.get(name, 0.0) + duration

    def calls(name):
        return len(durations.get(name, ()))

    def ratio(num, den):
        return num / den if den else None

    objective_ms = sorted(d * 1e3 for d in durations.get("fit.objective", ()))
    factorizations = calls("gaussian.factor")
    futures = counts.get("synthetic.futures", 0)
    m = {
        "synthetic.futures": futures,
        "synthetic.busy_s": busy.get("synthetic.simulate", 0.0),
        "synthetic.futures_per_s": ratio(futures, busy.get("synthetic.simulate")),
        "fit.dataset_s": busy.get("fit.dataset", 0.0),
        "fit.objective_calls": len(objective_ms),
        "fit.objective_ms_p50": _percentile(objective_ms, 50),
        "fit.objective_ms_p90": _percentile(objective_ms, 90),
        "fit.objective_self_s": self_times.get("fit.objective", 0.0),
        "fit.linalg_calls": calls("fit.linalg"),
        "fit.linalg_s": busy.get("fit.linalg", 0.0),
        "fit.optimizer_self_s": self_times.get("fit.optimizer", 0.0),
        "fit.iterations": counts.get("fit.iterations", 0),
        "fit.escalations": counts.get("fit.escalations", 0),
        "fit.failures": counts.get("fit.failures", 0),
        "relevance.forward_calls": calls("relevance.forward"),
        "relevance.forward_s": busy.get("relevance.forward", 0.0),
        "relevance.backward_calls": calls("relevance.backward"),
        "relevance.backward_s": busy.get("relevance.backward", 0.0),
        "increments.calls": calls("increments.call"),
        "increments.busy_s": busy.get("increments.call", 0.0),
        "gaussian.factorizations": factorizations,
        "gaussian.useful_factor_ratio": ratio(
            len(tracer.held.get(pass_id, ())), factorizations
        ),
        "gaussian.nll_s": busy.get("gaussian.nll", 0.0),
        "gaussian.sample_s": busy.get("gaussian.sample", 0.0),
        "scene.write_calls": calls("scene.write"),
        "scene.write_s": busy.get("scene.write", 0.0),
        "scene.bytes_written": counts.get("scene.bytes_written", 0),
        "scene.read_calls": calls("scene.read"),
        "scene.read_s": busy.get("scene.read", 0.0),
        "scene.bytes_read": counts.get("scene.bytes_read", 0),
        "metrics.calls": calls("metrics.call"),
        "metrics.busy_s": busy.get("metrics.call", 0.0),
        "cli.generate_self_s": self_times.get("cli.generate", 0.0),
        "cli.fit_self_s": self_times.get("cli.fit", 0.0),
        "cli.eval_self_s": self_times.get("cli.eval", 0.0),
        "cli.truth_bytes": counts.get("cli.truth_bytes", 0),
        "trace.spans": len(spans),
    }
    # A layer no span or count reached is absent: every metric of it is None.
    for layer, spec in LAYERS.items():
        names = [f"{layer}.{metric}" for metric in spec["metrics"]]
        if not any(m[name] for name in names):
            for name in names:
                m[name] = None
    tracer.held.pop(pass_id, None)
    return m
