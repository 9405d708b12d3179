"""Benchmark two checkouts in alternating pairs and write the verdicts as JSON.

Usage, from any directory::

    python3 tools/bench_pairs.py PARENT CHANGE --workload window-long \\
        --metric iters_per_s --pairs 10 --first-seed 6 --trace --out BENCH.json

PARENT and CHANGE are two checkouts of this repository. Pair i runs
``perfbench/run.py --workload W --seed first_seed+i --trace 0`` once in each
checkout, for the ``run_seconds`` of the change's ``BENCHMARK.json``: the
parent first in even pairs and the change first in odd ones. Every run.py
invocation reports the medians over its own processes, and those are the
pair's samples. For every end-to-end metric of the change's
``BENCHMARK.json`` the script writes each side's samples, median and
quartiles, the parent's interquartile distance, the change's wins, the
change/parent ratio of each pair where both sides have a sample with those
ratios' median, quartiles and a distribution-free interval for their median
(reported only: no verdict reads them), and a verdict against the metric's
bound:

- ``fail``: the change's median is worse than the parent's by more than the
  bound, relative to the parent's median;
- ``unresolved``: otherwise, when either side's interquartile distance exceeds
  the bound relative to its median, unless every change sample is better than
  every parent sample;
- ``pass``: otherwise.

perfbench/run.py reports a metric it could not measure (say ``iters_per_s``
when no process counted an iteration) as ``null``. A null sample makes its
metric's verdict ``fail`` when the change reports it, ``unresolved`` when
only the parent does, and a claim on that metric ``no gain``; each side's
statistics cover its samples present, and its ``missing`` counts the rest.

The failed operations of all pairs pass when the change's share of them is
no larger than the parent's.

``--metric`` names the metric the change claims to improve on this workload.
Its claim verdict is ``gain`` only when the change wins at least nine tenths
of the pairs (ties count for neither side), the medians differ, in the
better direction, by more than the parent's interquartile distance, and the
failed operations pass.

``--trace`` adds three ``--trace 1`` runs per side, at seeds 0, 1 and 2 and
alternating which side runs first as the pairs do, for the per-layer split:
one traced process moves layers that no change touched, so the round keeps
every traced run and reports each per-layer metric's samples, median and
quartiles per side. Each invocation appends one round to the workload's list
in ``--out``, with both checkouts' git commits and the last run's environment,
and keeps every round written before; every run, traced or not, keeps the load
average it started under as ``loadavg_start``. The standard library is all it
needs.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TRACE_SEEDS = (0, 1, 2)


def better_than(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def quartiles(values: list) -> list:
    """[q1, median, q3], as perfbench/run.py takes them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def describe(values: list) -> dict:
    """One side's samples, its count of missing (null) ones, and the median and
    quartiles of the rest (null when none is left)."""
    present = [v for v in values if v is not None]
    q1, _, q3 = quartiles(present) if present else (None, None, None)
    return {"samples": values, "missing": len(values) - len(present),
            "median": statistics.median(present) if present else None,
            "quartiles": [q1, q3], "iqr": q3 - q1 if present else None}


def median_interval(values: list) -> list | None:
    """[v_(k), v_(n-k+1)] of the sorted values, which holds their population's
    median with probability at least 1 - 2 P(Binomial(n, 1/2) <= k - 1), for the
    largest k with P(Binomial(n, 1/2) <= k - 1) <= 0.025: the 2nd and 9th of 10
    (97.9%), the 6th and 15th of 20 (95.9%). None below 6 values, where no k
    qualifies. Unlike the quartiles, it narrows as values are added."""
    n = len(values)
    k, at_most_k = 0, 1  # at_most_k: 2^n P(Binomial(n, 1/2) <= k)
    while 40 * at_most_k <= 2 ** n:
        k += 1
        at_most_k += math.comb(n, k)
    ordered = sorted(values)
    return [ordered[k - 1], ordered[n - k]] if k else None


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """Both sides' samples of one metric, paired by index, and its verdict."""
    sides = {side: describe(values) for side, values in zip(SIDES, (parent, change))}
    p_med, c_med = sides["parent"]["median"], sides["change"]["median"]
    ratio = spread = None
    if sides["change"]["missing"]:
        verdict = "fail"
    elif sides["parent"]["missing"]:
        verdict = "unresolved"
    else:
        ratio = c_med / p_med
        worse_by = (c_med - p_med if better == "lower" else p_med - c_med) / p_med
        spread = max(s["iqr"] / abs(s["median"]) for s in sides.values())
        if worse_by > bound:
            verdict = "fail"
        elif spread > bound and not all(better_than(c, p, better)
                                        for c in change for p in parent):
            verdict = "unresolved"
        else:
            verdict = "pass"
    ratios = [c / p for p, c in zip(parent, change) if None not in (p, c)]
    return {"better": better, "bound": bound, **sides,
            "parent_iqr": sides["parent"]["iqr"], "change_over_parent": ratio,
            "paired_ratio": {**describe(ratios),
                             "median_interval": median_interval(ratios)},
            "change_wins": sum(None not in (p, c) and better_than(c, p, better)
                               for p, c in zip(parent, change)),
            "pairs": len(parent), "relative_spread": spread, "verdict": verdict}


def failures_verdict(failed: dict) -> str:
    """``fail`` when the change fails a larger share of its operations."""
    share = {side: f["failed"] / f["attempted"] for side, f in failed.items()}
    return "pass" if share["change"] <= share["parent"] else "fail"


def claim_verdict(summary: dict, failed: dict) -> str:
    """``gain`` when the change wins 9/10 of the pairs by more than the parent's
    IQR, fails no larger share of operations and misses no sample."""
    if summary["parent"]["missing"] or summary["change"]["missing"]:
        return "no gain"
    gap = summary["change"]["median"] - summary["parent"]["median"]
    if summary["better"] == "lower":
        gap = -gap
    won = 10 * summary["change_wins"] >= 9 * summary["pairs"]
    gained = won and gap > summary["parent_iqr"] and failures_verdict(failed) == "pass"
    return "gain" if gained else "no gain"


def commit_of(checkout: Path) -> str | None:
    """The checkout's git HEAD, marked ``-dirty`` when tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float,
                  trace: int) -> dict:
    """One perfbench/run.py invocation: its metric values, checks and environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), {})
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "environment": env}


def keep_load(run: dict) -> dict:
    """Pop a run's environment and return it, keeping its ``loadavg_start`` in
    the run, so each sample can be matched to the load it ran under."""
    environment = run.pop("environment")
    run["loadavg_start"] = environment.get("loadavg_start")
    return environment


def run_pairs(checkouts: dict, workload: str, seeds, seconds: float,
              trace: int) -> tuple[list, dict]:
    """One run per side at each seed, the parent first at even positions and
    the change first at odd ones; returns the pairs and the last environment."""
    pairs, environment = [], {}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            run = run_benchmark(checkouts[side], workload, seed, seconds, trace)
            environment = keep_load(run)
            pair[side] = run
            print(f"{'traced' if trace else 'pair'} {i + 1}/{len(seeds)} seed {seed} "
                  f"{side}: {json.dumps(run['metrics'])}", file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs, environment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", help="the end-to-end metric the change claims to improve")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true",
                        help="add three traced runs per side, at seeds 0, 1 and 2")
    parser.add_argument("--out", type=Path, required=True)
    opts = parser.parse_args(argv)

    spec = json.loads((opts.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    if opts.metric is not None and opts.metric not in bounds:
        parser.error(f"--metric must be one of {', '.join(bounds)}")
    seconds = spec["run_seconds"]
    checkouts = {"parent": opts.parent.resolve(), "change": opts.change.resolve()}
    commits = {side: commit_of(path) for side, path in checkouts.items()}

    seeds = range(opts.first_seed, opts.first_seed + opts.pairs)
    pairs, environment = run_pairs(checkouts, opts.workload, seeds, seconds, 0)

    metrics = {
        name: summarize([p["parent"]["metrics"][name] for p in pairs],
                        [p["change"]["metrics"][name] for p in pairs], better, bound)
        for name, (better, bound) in bounds.items()}
    failed = {side: {"failed": sum(p[side]["failed"] for p in pairs),
                     "attempted": sum(p[side]["attempted"] for p in pairs)}
              for side in SIDES}
    entry = {
        "command": (f"python3 perfbench/run.py --workload {opts.workload} --seed N "
                    f"--seconds {seconds:g} --trace 0, in each checkout"),
        "commits": commits,
        "seeds": [p["seed"] for p in pairs],
        "pairs": pairs,
        "metrics": metrics,
        "failed_operations": {**failed, "verdict": failures_verdict(failed)},
    }
    if opts.metric is not None:
        entry["claim"] = {"metric": opts.metric,
                          "verdict": claim_verdict(metrics[opts.metric], failed)}
    if opts.trace:
        runs, environment = run_pairs(checkouts, opts.workload, TRACE_SEEDS, seconds, 1)
        names = dict.fromkeys(name for r in runs for side in SIDES
                              for name in r[side]["metrics"])
        entry["trace"] = {"runs": runs, "per_layer": {
            name: {side: describe([r[side]["metrics"].get(name) for r in runs])
                   for side in SIDES} for name in names}}
    entry["environment"] = environment

    try:
        document = json.loads(opts.out.read_text(encoding="utf-8"))
    except FileNotFoundError:
        document = {"produced_by": __doc__.splitlines()[0], "workloads": {}}
    document["workloads"].setdefault(opts.workload, []).append(entry)
    opts.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        medians = [f"{side} {m[side]['median']:.6g}" if m[side]["median"] is not None
                   else f"{side} null" for side in SIDES]
        paired = m["paired_ratio"]
        ratio = ("null" if paired["median"] is None else
                 "{:.4g} [{:.4g}, {:.4g}]".format(paired["median"], *paired["quartiles"]))
        if paired["median_interval"] is not None:
            ratio += " median in [{:.4g}, {:.4g}]".format(*paired["median_interval"])
        print(f"{opts.workload} {name}: {' '.join(medians)} paired ratio {ratio} "
              f"wins {m['change_wins']}/{m['pairs']} {m['verdict']}")
    if "claim" in entry:
        print(f"claim {opts.metric}: {entry['claim']['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
