"""Run the benchmark over several seeds and report how steady it is.

Usage, from the repository root::

    python3 perfbench/steady.py --seeds 10 --trace --out perfbench/baseline.json

For every workload and end-to-end metric it prints the median and the
interquartile spread (q3 - q1) / median over the seeds, as
``statistics.quantiles(values, n=4)`` gives the quartiles, next to the
metric's bound. With ``--trace`` it adds one traced run per workload and
ranks the layers by self CPU time. ``--out`` writes all of it as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec.RUN_SECONDS),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].split(" ", 1)[1])
    return {"env": env, **json.loads(lines[-1])}


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    opts = parser.parse_args(argv)
    seeds = list(range(opts.seeds))
    report = {"run_seconds": spec.RUN_SECONDS, "seeds": seeds, "workloads": {}}
    for workload in spec.WORKLOADS:
        runs = [run_once(workload, s, 0) for s in seeds]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "loadavg_start": [r["env"]["loadavg_start"][0] for r in runs],
            "end_to_end": {},
        }
        report.setdefault("environment", runs[0]["env"])
        for name, (unit, _, bound) in spec.END_TO_END.items():
            stats = spread([r["metrics"][name]["value"] for r in runs])
            stats.update(unit=unit, bound=bound)
            entry["end_to_end"][name] = stats
            flag = "ok" if stats["spread"] < bound / 3 else (
                "WITHIN BOUND" if stats["spread"] <= bound else "TOO WIDE")
            print(f"{workload:20s} {name:12s} median {stats['median']:12.5g} {unit:4s}"
                  f" spread {stats['spread']:.4f} (bound {bound}) {flag}", flush=True)
        if opts.trace:
            traced = run_once(workload, seeds[0], 1)
            layers = {k: v["value"] for k, v in traced["metrics"].items()}
            ranking = sorted(((layers[f"layer.{layer}.self_s"], layer)
                              for layer in spec.LAYERS), reverse=True)
            entry.update(trace_correct=traced["correct"], per_layer=layers,
                         layer_ranking=[[layer, round(s, 4)] for s, layer in ranking])
            print(f"{workload:20s} layers by self CPU s: {entry['layer_ranking'][:5]}",
                  flush=True)
        print(f"{workload:20s} correct {entry['correct']} attempted "
              f"{entry['attempted']} failed {entry['failed']}", flush=True)
        report["workloads"][workload] = entry
    if opts.out:
        opts.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
