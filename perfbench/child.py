"""One workload process: enter the program through ``nonstat_opt.cli.main``.

Usage: ``python3 perfbench/child.py <job.json>``, with ``src`` on
``PYTHONPATH``. The job file names the CLI arguments, the mode and the file
to write this process's result to. Modes:

* ``full`` -- run the command and report when the first run started, the
  runs and iterations completed, the exit code and the peak RSS;
* ``probe`` -- stop the process as soon as the first run starts, which
  measures set-up (import, config, problem, schedule and policy build) alone;
* ``trace`` -- as ``full``, with every layer's public functions wrapped by
  ``tracer.Tracer``.

Times are CLOCK_MONOTONIC seconds, which the parent process shares, so the
parent can measure set-up from the moment it spawned this process.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time

RUNNERS = ("run_convex", "run_nonconvex", "run_variance_adaptive")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def completed_iterations(record) -> int:
    """Iterations a runner finished: T, or up to the abort of a failed run.

    Runners record every iteration's stepsize, which is positive, before
    taking the step, and leave the rest of the array zero.
    """
    return int((record.stepsizes > 0).sum())


class RunHook:
    """Counts runs and iterations at the runner entry points cli and verify use.

    Costs one wrapper call per run, so it stays on in untraced runs.
    """

    def __init__(self, on_first_run=None):
        self._on_first_run = on_first_run
        self._lock = threading.Lock()
        self._patches = []
        self.first_run_at = None
        self.runs = 0
        self.runs_failed = 0
        self.iters = 0

    def _wrap(self, fn):
        def hooked(*args, **kwargs):
            with self._lock:
                first = self.first_run_at is None
                if first:
                    self.first_run_at = now()
            if first and self._on_first_run is not None:
                self._on_first_run()
            try:
                record = fn(*args, **kwargs)
            except Exception:
                with self._lock:
                    self.runs += 1
                    self.runs_failed += 1
                raise
            with self._lock:
                self.runs += 1
                self.runs_failed += int(record.failed)
                self.iters += completed_iterations(record)
            return record
        return hooked

    def install(self, modules) -> None:
        for module in modules:
            for name in RUNNERS:
                original = getattr(module, name)
                self._patches.append((module, name, original))
                setattr(module, name, self._wrap(original))

    def restore(self) -> None:
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    from nonstat_opt import cli, verify

    def stop_at_first_run():
        write_json(job["result"], {"first_run_at": now()})
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)

    tracer = None
    if job["mode"] == "trace":
        import tracer as tracing
        tracer = tracing.Tracer().install()
    hook = RunHook(stop_at_first_run if job["mode"] == "probe" else None)
    hook.install((cli, verify))
    try:
        rc = cli.main(job["args"])
    finally:
        hook.restore()
        if tracer is not None:
            tracer.restore()
    result = {
        "rc": rc, "first_run_at": hook.first_run_at, "runs": hook.runs,
        "runs_failed": hook.runs_failed, "iters": hook.iters,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracing.summarize(tracer)
    write_json(job["result"], result)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
