"""What the benchmark measures: metric names, units and the layer map.

Pure standard library, so the runner can use it without importing numpy.
Workload names and the reason for each live in ``BENCHMARK.json``; the
contract metrics printed on the last output line are the subset of the
tables below that ``BENCHMARK.json`` lists.
"""

WORKLOADS = ("recover", "large-scene", "cli-pipeline")
ALL = WORKLOADS

# End-to-end metrics: name -> (unit, workloads it applies to, meaning).
# Elsewhere the metric is reported as absent. The times in SCALED and
# setup_s are scaled to the reference host speed (see reference.py): they
# read as seconds on a host where the reference block takes NOMINAL_S.
# BENCHMARK.json bounds only setup_s, pass_s and peak_rss_mb: the rest
# either do not apply to every workload, are quality figures that vary with
# the seed, are raw wall times that drift with the host, or (the phase
# times) spread more than the largest allowed bound on cli-pipeline.
END_TO_END = {
    "setup_s": ("s", ALL, "fresh interpreter, import jointmotion, one warm-up call; median of scaled probes"),
    "setup_wall_s": ("s", ALL, "the same, raw wall time"),
    "pass_s": ("s", ALL, "median wall time of one full pass, scaled to the reference host speed"),
    "pass_wall_s": ("s", ALL, "the same, raw wall time"),
    "reference_ms": ("ms", ALL, "mean time of the reference block sampled during a pass"),
    "generate_s": ("s", ALL, "simulate phase (cli-pipeline: the generate command)"),
    "fit_s": ("s", ALL, "dataset build plus every fit, until stop (cli-pipeline: the fit command)"),
    "eval_s": ("s", ALL, "held-out scoring (cli-pipeline: forecast plus the eval command)"),
    "peak_rss_mb": ("MiB", ALL, "peak resident memory of the workload process"),
    "disk_mb": ("MB", ("cli-pipeline",), "bytes written per pass"),
    "rho_err_direct": ("1", ALL, "max over steps and pairs of |rho_hat - rho|, direct-rho fit"),
    "rho_err_head": ("1", ("recover",), "max over steps and pairs of |rho_hat - rho|, relevance-head fit"),
    "val_nll_gap": ("nats/future", ("recover", "large-scene"), "held-out NLL under rho_hat minus under true rho"),
    "joint_ade_m": ("m", ("cli-pipeline",), "mean minJointADE from the eval CSV"),
    "joint_fde_m": ("m", ("cli-pipeline",), "mean minJointFDE from the eval CSV"),
    "fail_ratio": ("1", ALL, "failed / attempted operations (fits, CLI calls, factorizations, output checks)"),
}
SCALED = ("pass_s", "generate_s", "fit_s", "eval_s")
NOMINAL_S = 0.01

# Per-layer metrics from the traced run, named <layer>.<metric>. Each layer
# lists the end-to-end metrics it should move and the workloads where it is
# heavy or light; on every other workload it is absent.
LAYERS = {
    "synthetic": {
        "metrics": {"futures": "count", "busy_s": "s", "futures_per_s": "1/s"},
        "moves": ("generate_s",),
        "heavy": ("recover",),
        "light": ("large-scene", "cli-pipeline"),
    },
    "fit": {
        "metrics": {
            "dataset_s": "s",
            "objective_calls": "count",
            "objective_ms_p50": "ms",
            "objective_ms_p90": "ms",
            "objective_self_s": "s",
            "linalg_calls": "count",
            "linalg_s": "s",
            "optimizer_self_s": "s",
            "iterations": "count",
            "escalations": "count",
            "failures": "count",
        },
        "moves": ("fit_s",),
        "heavy": ("large-scene", "recover"),
        "light": ("cli-pipeline",),
    },
    "relevance": {
        "metrics": {"forward_calls": "count", "forward_s": "s", "backward_calls": "count", "backward_s": "s"},
        "moves": ("fit_s",),
        "heavy": ("recover",),
        "light": (),
    },
    "increments": {
        "metrics": {"calls": "count", "busy_s": "s"},
        "moves": ("eval_s",),
        "heavy": ("cli-pipeline",),
        "light": ("recover", "large-scene"),
    },
    "gaussian": {
        "metrics": {"factorizations": "count", "useful_factor_ratio": "1", "nll_s": "s", "sample_s": "s"},
        "moves": ("eval_s",),
        "heavy": ("cli-pipeline",),
        "light": (),
    },
    "scene": {
        "metrics": {
            "write_calls": "count",
            "write_s": "s",
            "bytes_written": "B",
            "read_calls": "count",
            "read_s": "s",
            "bytes_read": "B",
        },
        "moves": ("generate_s", "fit_s", "eval_s", "disk_mb"),
        "heavy": ("cli-pipeline",),
        "light": (),
    },
    "metrics": {
        "metrics": {"calls": "count", "busy_s": "s"},
        "moves": ("eval_s",),
        "heavy": ("cli-pipeline",),
        "light": (),
    },
    "cli": {
        "metrics": {"generate_self_s": "s", "fit_self_s": "s", "eval_self_s": "s", "truth_bytes": "B"},
        "moves": ("generate_s", "fit_s"),
        "heavy": ("cli-pipeline",),
        "light": (),
    },
}

# Measured by the traced run itself rather than by one layer.
TRACE_METRICS = {"trace.overhead_s": "s", "trace.spans": "count"}


def layer_units() -> dict:
    """Every per-layer metric name mapped to its unit."""
    units = {
        f"{layer}.{name}": unit
        for layer, spec in LAYERS.items()
        for name, unit in spec["metrics"].items()
    }
    units.update(TRACE_METRICS)
    return units


def layer_present(layer: str, workload: str) -> bool:
    spec = LAYERS[layer]
    return workload in spec["heavy"] or workload in spec["light"]
