"""Span tracer that wraps the program's public functions from outside.

``Tracer.install()`` replaces each traced function or method with a wrapper
that records a span; ``restore()`` puts every original back. Nothing under
``src/`` changes. Module-level functions are replaced under every name that
refers to them in any loaded ``nonstat_opt`` module, because ``cli`` and
``verify`` bind runners and factories with ``from .x import y``. Methods are
replaced on the class that defines them, which is where instances look them
up.

Each thread keeps its own span stack, so spans nest correctly under the
sweep's worker pool. A span's duration is the CPU time of its thread
(``time.thread_time_ns``), so the time a pool thread spends waiting for the
interpreter lock is charged to no layer; its self time is that duration
minus its child spans' durations. Per-iteration calls are aggregated per
(run, span name) rather than stored one by one, so memory stays bounded
however many iterations run. Only coarse spans (one or a few per run) are
logged individually, with wall-clock start and end, for the cross-thread
overlap of ``execute_run`` under ``run_sweep``.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

from spec import ESTIMATOR_KINDS, LAYERS

_ANALYSIS_FUNCS = ("suboptimality_bound", "bound_constant", "bound_idealized",
                   "adaptive_bound", "stationarity_bound",
                   "adaptive_stationarity_bound", "classify_regime",
                   "bound_report", "fit_slope", "regret_from_run")
# (module, attribute path, span name, logged individually)
TARGETS = (
    ("schedule", "NoiseSchedule.level", "schedule.level", False),
    ("schedule", "NoiseSchedule.levels", "schedule.levels", False),
    *(("schedule", f"NoiseSchedule.{ctor}", "schedule.build", False)
      for ctor in ("constant", "piecewise_linear", "adversarial_spike",
                   "custom", "from_file")),
    ("oracle", "Oracle.query", "oracle.query", False),
    ("oracle", "Oracle.query_pair", "oracle.query_pair", False),
    *(("problems", f"{cls}.{meth}", f"problems.{meth}", False)
      for cls in ("Quadratic", "SmoothNonconvex")
      for meth in ("value", "gradient")),
    ("problems", "make_quadratic", "problems.build", True),
    ("problems", "make_smooth_nonconvex", "problems.build", True),
    *(("estimator", f"{cls}.update", f"estimator.{kind}.update", False)
      for cls, kind in (("SecondMomentEMA", "second-moment"),
                        ("FirstMomentEMA", "first-moment"),
                        ("PowerEMA", "pnorm"), ("WindowAverage", "window"),
                        ("VarianceEMA", "variance"))),
    *(("policy", f"{cls}.stepsize", "policy.stepsize", False)
      for cls in ("FixedStep", "ScheduledStep", "AdaptiveStep",
                  "PairedAdaptiveStep")),
    *(("policy", f"{cls}.observe", "policy.observe", False)
      for cls in ("StepPolicy", "AdaptiveStep", "PairedAdaptiveStep")),
    *(("policy", f"{cls}.init", "policy.init", False)
      for cls in ("StepPolicy", "AdaptiveStep", "PairedAdaptiveStep")),
    *(("policy", factory, "policy.build", True)
      for factory in ("constant_baseline", "idealized_baseline",
                      "make_adaptive", "make_variance_adaptive",
                      "nonconvex_constant_baseline",
                      "nonconvex_idealized_baseline")),
    *(("runner", fn, f"runner.{fn}", True)
      for fn in ("run_convex", "run_nonconvex", "run_variance_adaptive")),
    *(("analysis", fn, f"analysis.{fn}", True) for fn in _ANALYSIS_FUNCS),
    *(("cli", fn, f"cli.{fn}", True)
      for fn in ("main", "run_sweep", "execute_run", "write_results_csv",
                 "write_summary_csv")),
    ("verify", "run_suite", "verify.run_suite", True),
)
PACKAGE = "nonstat_opt"


class _ThreadState(threading.local):
    """Span stack and aggregates of the current thread.

    One object holds a separate set of attributes per thread; ``__init__``
    runs again in each thread on first use and registers that thread's
    aggregate and span log, which outlive the thread.
    """

    def __init__(self, register):
        self.stack = []        # one [child_ns] cell per open span
        self.run = None        # id of the enclosing runner span, if any
        self.agg = {}          # (run, name) -> [calls, total_ns, self_ns]
        self.spans = []        # (name, wall_t0_ns, wall_t1_ns) of logged spans
        register(self.agg, self.spans)


class Tracer:
    def __init__(self, targets=TARGETS):
        self._targets = targets
        self._lock = threading.Lock()
        self._threads = []
        self._run_ids = itertools.count(1)
        self._state = _ThreadState(self._register)
        self._patches = []     # (owner, attribute, original value)
        self.wrapper_ns = 0    # wrapper cost outside a span, per call

    def calibrate(self, calls: int = 20_000, repeats: int = 5) -> int:
        """Measure the wrapper's own CPU cost that falls outside its span.

        That cost would otherwise land in the caller's self time; spans
        therefore credit their parent with it, so no layer is charged.
        """
        def noop():
            pass

        probe = Tracer(targets=())
        traced = probe._wrap(noop, "probe", False)
        cpu = time.thread_time_ns
        best = None
        for _ in range(repeats):
            t0 = cpu()
            for _ in range(calls):
                noop()
            plain = cpu() - t0
            before = probe.totals().get("probe", [0, 0, 0])[1]
            t0 = cpu()
            for _ in range(calls):
                traced()
            total = cpu() - t0
            recorded = probe.totals()["probe"][1] - before
            outside = (total - recorded - plain) // calls
            best = outside if best is None else min(best, outside)
        self.wrapper_ns = max(0, best)
        return self.wrapper_ns

    def _register(self, agg: dict, spans: list) -> None:
        with self._lock:
            self._threads.append((agg, spans))

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str, logged: bool):
        state = self._state
        cpu = time.thread_time_ns
        wall = time.perf_counter_ns
        opens_run = name.startswith("runner.")
        run_ids = self._run_ids

        def traced(*args, **kwargs):
            st = state
            stack = st.stack
            outer_run = st.run
            if opens_run and outer_run is None:
                st.run = next(run_ids)
            cell = [0]
            stack.append(cell)
            w0 = wall() if logged else 0
            t0 = cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = cpu() - t0
                if logged:
                    st.spans.append((name, w0, wall()))
                stack.pop()
                if stack:
                    stack[-1][0] += dur + self.wrapper_ns
                key = (st.run, name)
                rec = st.agg.get(key)
                if rec is None:
                    rec = st.agg[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - cell[0]
                st.run = outer_run

        return functools.update_wrapper(traced, fn)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.calibrate()
        for module_name, path, name, logged in self._targets:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, logged))
                else:
                    wrapped = self._wrap(raw, name, logged)
                self._set(cls, attr, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self._wrap(original, name, logged)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != PACKAGE:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, cpu_ns, self_cpu_ns], summed over runs and threads."""
        out: dict = {}
        for agg, _ in self._threads:
            for (_, name), (calls, total, self_ns) in agg.items():
                acc = out.setdefault(name, [0, 0, 0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_ns
        return out

    def per_run_layers(self) -> list:
        """Self CPU seconds per layer for every runner span, in start order."""
        runs: dict = {}
        for agg, _ in self._threads:
            for (run, name), (_, _, self_ns) in agg.items():
                if run is None:
                    continue
                layers = runs.setdefault(run, {})
                layer = name.split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + self_ns / 1e9
        return [runs[r] for r in sorted(runs)]

    def spans(self) -> list:
        """(name, wall_t0_ns, wall_t1_ns) of every logged span, by start time."""
        return sorted((s for _, spans in self._threads for s in spans),
                      key=lambda s: s[1])


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    end = lo
    for start, stop in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def summarize(tracer: Tracer) -> dict:
    """The JSON-ready part of a traced run that ``layer_metrics`` consumes."""
    totals = {name: [calls, total / 1e9, self_ns / 1e9]
              for name, (calls, total, self_ns) in tracer.totals().items()}
    spans = tracer.spans()
    sweep = {"wall_s": 0.0, "covered_s": 0.0, "execute_run_sum_s": 0.0}
    sweeps = [(t0, t1) for name, t0, t1 in spans if name == "cli.run_sweep"]
    if sweeps:
        lo, hi = sweeps[0]
        children = [(t0, t1) for name, t0, t1 in spans
                    if name not in ("cli.main", "cli.run_sweep")]
        sweep = {
            "wall_s": (hi - lo) / 1e9,
            "covered_s": covered_ns(children, lo, hi) / 1e9,
            "execute_run_sum_s": sum(t1 - t0 for name, t0, t1 in spans
                                     if name == "cli.execute_run") / 1e9,
        }
    return {"totals": totals, "sweep": sweep, "wrapper_ns": tracer.wrapper_ns,
            "per_run_layers": tracer.per_run_layers()}


def operand_cost(problem: dict) -> dict:
    """Bytes of operands read and flops per value() and gradient() call.

    Computed from array sizes, not measured: a quadratic's value() reads A,
    b and x (2nd + 3n flops) and its gradient() reads the Hessian, x and
    x* (2d^2 + d flops); the nonconvex problem reads x alone.
    """
    d = int(problem.get("dim", 10))
    if problem.get("kind") == "quadratic":
        n = int(problem.get("n", 40))
        return {"value": (8 * (n * d + n + d), 2 * n * d + 3 * n),
                "gradient": (8 * (d * d + 2 * d), 2 * d * d + d)}
    return {"value": (8 * d, 4 * d), "gradient": (8 * d, 5 * d)}


def layer_metrics(summary: dict, iters: int, runs_failed: int, problem: dict,
                  stderr_lines: int, overhead_s: float) -> dict:
    """Per-layer metric values, named as in ``spec.PER_LAYER``."""
    totals = summary["totals"]

    def pick(prefix: str, col: int) -> float:
        return sum(v[col] for name, v in totals.items()
                   if name == prefix or name.startswith(prefix + "."))

    def calls(prefix):
        return int(pick(prefix, 0))

    def us_per_iter(prefix):
        return pick(prefix, 2) * 1e6 / iters if iters else 0.0

    cost = operand_cost(problem or {})
    value_calls, grad_calls = calls("problems.value"), calls("problems.gradient")
    per_iter = (lambda x: x / iters) if iters else (lambda x: 0.0)
    sweep = summary["sweep"]
    out = {
        "runner.iters": iters,
        "runner.self_us_per_iter": us_per_iter("runner"),
        "runner.runs_failed": runs_failed,
        "schedule.level.calls": calls("schedule.level"),
        "schedule.level.us": us_per_iter("schedule.level"),
        "schedule.levels.ms_total": pick("schedule.levels", 1) * 1e3,
        "oracle.query.calls": calls("oracle.query"),
        "oracle.query_pair.calls": calls("oracle.query_pair"),
        "oracle.self_us": us_per_iter("oracle"),
        "oracle.queries_per_iter": per_iter(
            calls("oracle.query") + 2 * calls("oracle.query_pair")),
        "problems.gradient.calls": grad_calls,
        "problems.gradient.us": us_per_iter("problems.gradient"),
        "problems.value.calls": value_calls,
        "problems.value.us": us_per_iter("problems.value"),
        "problems.bytes_per_iter": per_iter(
            value_calls * cost["value"][0] + grad_calls * cost["gradient"][0]),
        "problems.flops_per_iter": per_iter(
            value_calls * cost["value"][1] + grad_calls * cost["gradient"][1]),
        "problems.build.ms": pick("problems.build", 1) * 1e3,
        "policy.build.ms": pick("policy.build", 1) * 1e3,
    }
    for kind in ESTIMATOR_KINDS:
        out[f"estimator.{kind}.update.calls"] = calls(f"estimator.{kind}.update")
        out[f"estimator.{kind}.update.us"] = us_per_iter(f"estimator.{kind}.update")
    out.update({
        "policy.stepsize.calls": calls("policy.stepsize"),
        "policy.stepsize.self_us": us_per_iter("policy.stepsize"),
        "policy.observe.self_us": us_per_iter("policy.observe"),
        "analysis.calls": calls("analysis"),
        "analysis.ms_total": pick("analysis", 1) * 1e3,
        "cli.execute_run.calls": calls("cli.execute_run"),
        "cli.execute_run.self_ms": pick("cli.execute_run", 2) * 1e3,
        "cli.run_sweep.self_s": sweep["wall_s"] - sweep["covered_s"],
        "cli.thread_overlap": (sweep["execute_run_sum_s"] / sweep["wall_s"]
                               if sweep["wall_s"] else 0.0),
        "cli.write.ms": (pick("cli.write_results_csv", 1)
                         + pick("cli.write_summary_csv", 1)) * 1e3,
        "cli.stderr_lines": stderr_lines,
        "verify.run_suite.s": pick("verify.run_suite", 1),
        "verify.self_ms": pick("verify.run_suite", 2) * 1e3,
    })
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = pick(layer, 2)
    out["trace.overhead_s"] = overhead_s
    return out
