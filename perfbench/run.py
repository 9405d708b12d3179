"""The repository benchmark: one workload, measured in fresh processes.

Usage, from the repository root::

    python3 perfbench/run.py --workload multiseed-d40 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Each workload process enters the program through ``nonstat_opt.cli.main``
(``perfbench/child.py``), with the BLAS/OpenMP thread counts pinned to 1 and
``src`` as its only ``PYTHONPATH`` entry. With ``--trace 0`` the benchmark
first runs one discarded warm-up process, then set-up probes (processes
that stop when the first run starts), then whole processes until
``--seconds`` have passed, and reports medians of the end-to-end metrics.
With ``--trace 1`` it runs the workload once untraced and once under
``tracer.Tracer`` and reports the per-layer split, the tracing overhead,
and fails the check unless the two runs wrote byte-identical outputs.

Every process's outputs are checked against ``reference.json`` (see
``check.py``). The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit and the environment record.
Details of the last run of each workload go to ``.perfbench_work/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import check
import spec
from child import now
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
DEADLINE_S = 170.0     # every run ends well inside the 180 s limit
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env() -> dict:
    """The caller's environment minus anything that would change the program."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("NONSTAT_OPT_WORKERS", "PYTHONWARNINGS", "PYTHONPATH",
                        "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def environment() -> dict:
    """nproc, caches, versions, thread settings and load at the start."""
    import numpy as np

    caches = {}
    for index in sorted((Path("/sys/devices/system/cpu/cpu0/cache")).glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level}-{kind}"] = _read(index / "size")
    model = next((line.split(":", 1)[1].strip()
                  for line in _read(Path("/proc/cpuinfo")).splitlines()
                  if line.startswith("model name")), "unknown")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "thread_env": THREAD_ENV,
        "loadavg_start": list(os.getloadavg()),
    }


class Workload:
    """Spawns the workload's processes and checks what each one wrote."""

    def __init__(self, name: str, seed: int, work: Path, reference: dict):
        self.name = name
        self.variant = spec.variant_of(name, seed)
        self.config = spec.make_inputs(name, self.variant)["config"]
        self.work = work
        self.reference = reference
        self.started = now()
        self._env = child_env()
        self._count = 0

    def spawn(self, mode: str) -> dict:
        self._count += 1
        d = self.work / f"{self._count:03d}-{mode}"
        d.mkdir(parents=True)
        job = {"args": check.write_inputs(self.name, self.variant, d),
               "mode": mode, "result": str(d / "result.json")}
        (d / "job.json").write_text(json.dumps(job), encoding="utf-8")
        timeout = max(1.0, DEADLINE_S - (now() - self.started))
        with open(d / "stdout", "wb") as out, open(d / "stderr", "wb") as err:
            start = now()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(d / "job.json")],
                cwd=ROOT, env=self._env, stdout=out, stderr=err)
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                rc = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            end = now()
        try:
            result = json.loads((d / "result.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            result = {}
        sample = {"mode": mode, "rc": rc, "wall_s": end - start,
                  "stderr_lines": len(_read(d / "stderr").splitlines()),
                  "out_dir": d / "out"}
        if result.get("first_run_at") is not None:
            sample["setup_s"] = result["first_run_at"] - start
        for key in ("runs", "runs_failed", "iters", "maxrss_kb", "trace"):
            if key in result:
                sample[key] = result[key]
        if mode != "probe":
            ok = rc is not None and "iters" in result
            sample["attempted"], sample["failed"], sample["problems"] = (
                check.check_outputs(self.name, self.variant, d / "out",
                                    rc if ok else -1, self.reference))
        return sample

    def output_bytes(self, sample: dict) -> bytes:
        name = "verify_report.json" if self.config is None else "results.csv"
        try:
            return (sample["out_dir"] / name).read_bytes()
        except OSError:
            return b""


def quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def tail(values) -> tuple:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return None, None
    beyond = 10
    pct = 100.0 * (n - beyond) / n
    return pct, sorted(values)[n - beyond - 1]


def measure(w: Workload, seconds: float) -> tuple[dict, list, dict]:
    w.spawn("probe")                       # warm-up: bytecode, page cache
    probes = [w.spawn("probe") for _ in range(SETUP_PROBES)]
    full = [w.spawn("full")]
    # Start another process only if it is expected to end within the budget.
    while (now() - w.started + statistics.median(s["wall_s"] for s in full)
           <= min(seconds, DEADLINE_S / 2)):
        full.append(w.spawn("full"))
    setups = [s["setup_s"] for s in probes + full if "setup_s" in s]
    walls = [s["wall_s"] for s in full]
    rates = [s["iters"] / (s["wall_s"] - s["setup_s"]) for s in full
             if s.get("iters") and "setup_s" in s]
    rss = [s["maxrss_kb"] / 1024.0 for s in full if "maxrss_kb" in s]
    values = {
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "wall_s": statistics.median(walls),
        "iters_per_s": statistics.median(rates) if rates else float("nan"),
        "peak_rss_mb": statistics.median(rss) if rss else float("nan"),
    }
    pct, tail_value = tail(walls)
    details = {
        "samples": {"setup_s": setups, "wall_s": walls, "iters_per_s": rates,
                    "peak_rss_mb": rss},
        "wall_s_quartiles": quartiles(walls), "wall_s_n": len(walls),
        "wall_s_tail": {"percentile": pct, "value": tail_value},
        "stderr_lines": [s["stderr_lines"] for s in full],
    }
    return values, full, details


def measure_trace(w: Workload) -> tuple[dict, list, dict]:
    w.spawn("probe")                       # warm-up, as in measure()
    plain = w.spawn("full")
    traced = w.spawn("trace")
    identical = bool(w.output_bytes(plain)) and (
        w.output_bytes(plain) == w.output_bytes(traced))
    if not identical:
        traced["failed"] = traced["attempted"]
        traced["problems"].append("traced output differs from the untraced output")
    if "trace" not in traced:
        return {name: float("nan") for name in spec.PER_LAYER}, [plain, traced], {}
    problem = (w.config or {}).get("problem") or spec.REFERENCE_QUADRATIC
    values = layer_metrics(traced["trace"], traced.get("iters", 0),
                           traced.get("runs_failed", 0), problem,
                           traced["stderr_lines"],
                           traced["wall_s"] - plain["wall_s"])
    details = {"outputs_identical": identical,
               "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
               "per_run_layers": traced["trace"]["per_run_layers"],
               "totals": traced["trace"]["totals"]}
    return values, [plain, traced], details


def _finite_or_none(x):
    return x if math.isfinite(x) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and exit")
    opts = parser.parse_args(argv)
    if opts.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n", encoding="utf-8")
        return 0
    if opts.workload is None:
        parser.error("--workload is required")
    if not (SRC / "nonstat_opt" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'nonstat_opt'} is missing",
              file=sys.stderr)
        return 2
    env = environment()
    work = WORK / f"{opts.workload}-{os.getpid()}"
    w = Workload(opts.workload, opts.seed, work, check.load_reference())
    try:
        if opts.trace:
            values, checked, details = measure_trace(w)
            units = {name: unit for name, (unit, _) in spec.PER_LAYER.items()}
        else:
            values, checked, details = measure(w, opts.seconds)
            units = {name: unit for name, (unit, _, _) in spec.END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(s["attempted"] for s in checked)
    failed = sum(s["failed"] for s in checked)
    if attempted == 0:                 # nothing was checked: count one failure
        attempted = failed = 1
    problems = [p for s in checked for p in s["problems"]]
    details.update({"workload": opts.workload, "seed": opts.seed,
                    "variant": w.variant, "environment": env,
                    "attempted": attempted, "failed": failed,
                    "problems": problems[:50], "metrics": values})
    (WORK / f"last-{opts.workload}-trace{opts.trace}.json").write_text(
        json.dumps(details, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"workload {opts.workload} seed {opts.seed} variant {w.variant}: "
          f"{attempted} operations checked, {failed} failed")
    for p in problems[:10]:
        print(f"  check failed: {p}")
    if not opts.trace:
        print(f"wall_s over {details['wall_s_n']} processes: quartiles "
              f"{[round(q, 4) for q in details['wall_s_quartiles']]}, tail "
              f"{details['wall_s_tail']}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": _finite_or_none(values[name]),
                           "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
