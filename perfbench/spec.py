"""What the benchmark measures: workloads, their generated inputs, metrics.

This module is the one place that names the workloads and metrics;
``python3 perfbench/run.py --write-spec`` renders it as ``BENCHMARK.json``.

Every workload input is generated from the benchmark's ``--seed``: the seed
picks one of ``VARIANTS`` input variants, and ``reference.json`` holds this
program's recorded outputs for every variant, so any seed can be checked.
Only problem and run seeds change between variants; sizes, horizons and
policy mixes do not, so every variant asks the program for the same work.
"""
from __future__ import annotations

VARIANTS = 16
RUN_SECONDS = 30

# The verify suites' reference quadratic (verify._reference_quadratic).
REFERENCE_QUADRATIC = {"kind": "quadratic", "dim": 40, "n": 80, "seed": 0,
                       "radius": 1.0, "cond": 1e6}
# The seed count of the smallest verify suites (rates, adversarial), which a
# seed-batched engine would batch across. T is halved from the suites' 10^4
# (rates runs 10^3 to 10^5) so that one process ends well inside RUN_SECONDS.
MULTISEED_SEEDS = 15
# window-long: four cells per worker, so tasks queue in the thread pool. A
# default window (W = T/10) large enough for its O(W) update to lead the
# layers would need T = 8e4 per cell, too long for RUN_SECONDS; W = 8000 gives
# each update that cost at T = 1.6e4.
WINDOW_SEEDS = 4
WINDOW_WIDTH = 8_000

WORKLOADS = {
    "multiseed-d40": (
        "one d=40 problem, 15 seeds per policy as in the verify suites, 4 "
        "policies: per-call Python overhead dominates; the single-worker and "
        "seed-batching baseline"),
    "matvec-d400": (
        "d=400, n=800 quadratic: the value/gradient matvecs dominate and "
        "make_quadratic gives the largest set-up; shows per-iteration value() "
        "cost"),
    "window-long": (
        "nonconvex d=10, window and variance_adaptive, 8 cells at --workers 2: "
        "the O(W) window update dominates; the only path through the thread "
        "pool, the cap check and the reservoir"),
    "verify-adversarial": (
        "verify --suite adversarial (30 runs, T=1e4, spike schedule): the only "
        "path through the verify layer; its seeds are fixed by the suite"),
}

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "iters_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
}

LAYERS = ("schedule", "problems", "oracle", "estimator", "policy", "runner",
          "analysis", "verify", "cli")
ESTIMATOR_KINDS = ("second-moment", "first-moment", "pnorm", "window",
                   "variance")

# name -> (unit, better). Per-layer times are thread CPU time (see
# tracer.py), except the wall-clock cli.run_sweep.self_s, cli.thread_overlap
# and trace.overhead_s.
PER_LAYER = {
    "runner.iters": ("count", "higher"),
    "runner.self_us_per_iter": ("cpu_us/iter", "lower"),
    "runner.runs_failed": ("count", "lower"),
    "schedule.level.calls": ("count", "lower"),
    "schedule.level.us": ("cpu_us/iter", "lower"),
    "schedule.levels.ms_total": ("cpu_ms", "lower"),
    "oracle.query.calls": ("count", "lower"),
    "oracle.query_pair.calls": ("count", "lower"),
    "oracle.self_us": ("cpu_us/iter", "lower"),
    "oracle.queries_per_iter": ("count/iter", "lower"),
    "problems.gradient.calls": ("count", "lower"),
    "problems.gradient.us": ("cpu_us/iter", "lower"),
    "problems.value.calls": ("count", "lower"),
    "problems.value.us": ("cpu_us/iter", "lower"),
    "problems.bytes_per_iter": ("B/iter-computed", "lower"),
    "problems.flops_per_iter": ("flop/it-computed", "lower"),
    "problems.build.ms": ("cpu_ms", "lower"),
    "policy.build.ms": ("cpu_ms", "lower"),
    **{f"estimator.{kind}.update.{stat}": (unit, "lower")
       for kind in ESTIMATOR_KINDS
       for stat, unit in (("calls", "count"), ("us", "cpu_us/iter"))},
    "policy.stepsize.calls": ("count", "lower"),
    "policy.stepsize.self_us": ("cpu_us/iter", "lower"),
    "policy.observe.self_us": ("cpu_us/iter", "lower"),
    "analysis.calls": ("count", "lower"),
    "analysis.ms_total": ("cpu_ms", "lower"),
    "cli.execute_run.calls": ("count", "lower"),
    "cli.execute_run.self_ms": ("cpu_ms", "lower"),
    "cli.run_sweep.self_s": ("s", "lower"),
    "cli.thread_overlap": ("ratio", "higher"),
    "cli.write.ms": ("cpu_ms", "lower"),
    "cli.stderr_lines": ("count", "lower"),
    "verify.run_suite.s": ("cpu_s", "lower"),
    "verify.self_ms": ("cpu_ms", "lower"),
    **{f"layer.{layer}.self_s": ("cpu_s", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
}


def variants(workload: str) -> range:
    """Input variants of a workload; verify-adversarial has one, fixed by its suite."""
    return range(1) if workload == "verify-adversarial" else range(VARIANTS)


def variant_of(workload: str, seed: int) -> int:
    return int(seed) % len(variants(workload))


def make_inputs(workload: str, variant: int) -> dict:
    """The program's inputs for one variant: CLI arguments and a config.

    ``args`` omits ``--config`` and ``--out``, which the caller adds once it
    knows where the run's files live. ``config`` is None when the workload
    takes no config file.
    """
    v = int(variant)
    if v not in variants(workload):
        raise ValueError(f"{workload} has no input variant {v}")
    if workload == "multiseed-d40":
        config = {
            "problem": dict(REFERENCE_QUADRATIC),
            "schedule": {"kind": "piecewise_linear"},
            "policies": ["constant", "idealized", "adaptive",
                         "variance_adaptive"],
            "T": [5_000], "alpha": [0.25],
            "seeds": [MULTISEED_SEEDS * v + i for i in range(MULTISEED_SEEDS)],
        }
        return {"args": ["sweep", "--workers", "1"], "config": config}
    if workload == "matvec-d400":
        config = {
            "problem": {"kind": "quadratic", "dim": 400, "n": 800, "seed": v,
                        "radius": 1.0, "cond": 1e6},
            "schedule": {"kind": "piecewise_linear"},
            "policies": ["constant", "adaptive"],
            "T": [4_000], "alpha": [0.25], "seeds": [v],
        }
        return {"args": ["sweep", "--workers", "1"], "config": config}
    if workload == "window-long":
        config = {
            "problem": {"kind": "smooth_nonconvex", "dim": 10, "seed": v,
                        "radius": 1.0},
            "schedule": {"kind": "piecewise_linear"},
            "policies": ["window", "variance_adaptive"],
            "T": [16_000], "alpha": [0.3],
            "seeds": [WINDOW_SEEDS * v + i for i in range(WINDOW_SEEDS)],
            "overrides": {"window": WINDOW_WIDTH},
        }
        return {"args": ["sweep", "--workers", "2"], "config": config}
    if workload == "verify-adversarial":
        return {"args": ["verify", "--suite", "adversarial"], "config": None}
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b) in PER_LAYER.items()],
    }
