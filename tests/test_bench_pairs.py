"""The verdicts and rounds tools/bench_pairs.py writes, on synthetic samples."""
import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

NONE_FAILED = {"parent": {"failed": 0, "attempted": 40},
               "change": {"failed": 0, "attempted": 60}}


def test_claim_and_bound_verdicts():
    parent = [100.0, 104.0, 98.0, 102.0, 101.0, 99.0, 103.0, 97.0, 100.0, 102.0]
    faster = [150.0, 149.0, 155.0, 151.0, 148.0, 152.0, 150.0, 153.0, 99.0, 151.0]
    s = bench_pairs.summarize(parent, faster, "higher", 0.25)
    assert s["change_wins"] == 9 and s["pairs"] == 10
    assert s["parent"]["median"] == 100.5 and s["parent_iqr"] == 3.5
    assert bench_pairs.claim_verdict(s, NONE_FAILED) == "gain" and s["verdict"] == "pass"
    # the same pairs are no gain when the change fails a larger share of operations
    more_failed = {"parent": {"failed": 1, "attempted": 40},
                   "change": {"failed": 2, "attempted": 60}}
    assert bench_pairs.failures_verdict(more_failed) == "fail"
    assert bench_pairs.claim_verdict(s, more_failed) == "no gain"

    # 8 of 10 wins is no gain, however large the medians' gap
    eight = faster[:7] + [90.0, 99.0, 151.0]
    assert bench_pairs.claim_verdict(
        bench_pairs.summarize(parent, eight, "higher", 0.25), NONE_FAILED) == "no gain"
    # 10 wins by less than the parent's interquartile distance is no gain
    close = [p + 1.0 for p in parent]
    s = bench_pairs.summarize(parent, close, "higher", 0.25)
    assert s["change_wins"] == 10 and bench_pairs.claim_verdict(s, NONE_FAILED) == "no gain"

    # lower is better: 30% slower fails its 0.25 bound, 20% slower passes
    walls = [4.0, 4.1, 3.9, 4.0]
    assert bench_pairs.summarize(walls, [w * 1.3 for w in walls],
                                 "lower", 0.25)["verdict"] == "fail"
    assert bench_pairs.summarize(walls, [w * 1.2 for w in walls],
                                 "lower", 0.25)["verdict"] == "pass"
    # a spread wider than the bound is unresolved, unless every change run
    # reads better than every parent run
    wide = [3.0, 6.0, 4.0, 5.5, 3.2]
    s = bench_pairs.summarize(wide, [4.2, 4.0, 5.0, 4.1, 4.3], "lower", 0.25)
    assert s["relative_spread"] > 0.25 and s["verdict"] == "unresolved"
    assert bench_pairs.summarize(wide, [2.0, 2.5, 2.9, 1.5, 2.2],
                                 "lower", 0.25)["verdict"] == "pass"


def test_paired_ratio_is_reported_over_pairs_with_both_samples():
    """Each pair's change/parent ratio, skipping a pair with a null side; the
    ratios' median, quartiles and median interval are reported and no verdict
    reads them."""
    parent = [100.0, 200.0, None, 400.0, 100.0, 50.0]
    change = [110.0, 180.0, 300.0, 480.0, 90.0, 60.0]
    s = bench_pairs.summarize(parent, change, "higher", 0.25)
    # the five pairs with both samples, in pair order
    assert s["paired_ratio"]["samples"] == [1.1, 0.9, 1.2, 0.9, 1.2]
    assert s["paired_ratio"]["median"] == 1.1
    assert s["paired_ratio"]["quartiles"] == pytest.approx([0.9, 1.2])
    # the parent's null still decides the verdict, as before
    assert s["verdict"] == "unresolved" and s["change_over_parent"] is None
    none = bench_pairs.summarize([None] * 2, [1.0, 2.0], "higher", 0.25)["paired_ratio"]
    assert none["samples"] == [] and none["median"] is None
    # the median interval is the kth smallest and kth largest ratio, k the
    # largest with P(Binomial(n, 1/2) <= k - 1) <= 0.025, whatever order the
    # pairs ran in; five ratios are too few: 2 P(Binomial(5, 1/2) = 0) > 5%
    assert s["paired_ratio"]["median_interval"] is None
    assert none["median_interval"] is None
    for n, k in [(6, 1), (9, 2), (10, 2), (20, 6), (40, 14)]:
        ratios = [1.0 + i / 100 for i in range(n)]
        interval = bench_pairs.summarize(
            [100.0] * n, [100.0 * r for r in ratios[::2] + ratios[1::2]],
            "higher", 0.25)["paired_ratio"]["median_interval"]
        assert interval == pytest.approx([ratios[k - 1], ratios[n - k]])
        tail = sum(math.comb(n, i) for i in range(k)) / 2 ** n
        assert tail <= 0.025 < tail + math.comb(n, k) / 2 ** n


def test_every_run_keeps_its_start_load(tmp_path, monkeypatch):
    """main writes each run's loadavg_start into that run, not only the last
    run's environment into the round."""
    spec = {"run_seconds": 1, "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "iters_per_s", "better": "higher", "bound": 0.25}]}
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def run_benchmark(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, seed, trace))
        load = [float(len(calls)), 0.5, 0.25]
        wall = 2.0 if checkout.name == "change" else 4.0
        return {"metrics": {"wall_s": wall, "iters_per_s": 1000.0 / wall},
                "attempted": 4, "failed": 0, "correct": 4,
                "environment": {"nproc": 2, "loadavg_start": load}}

    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
    monkeypatch.setattr(bench_pairs, "commit_of", lambda checkout: checkout.name)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "w", "--metric", "wall_s", "--pairs", "3",
                             "--first-seed", "5", "--trace", "--out", str(out)]) == 0
    # three traced runs per side follow the pairs, alternating as the pairs do
    assert calls == [("parent", 5, 0), ("change", 5, 0), ("change", 6, 0),
                     ("parent", 6, 0), ("parent", 7, 0), ("change", 7, 0),
                     ("parent", 0, 1), ("change", 0, 1), ("change", 1, 1),
                     ("parent", 1, 1), ("parent", 2, 1), ("change", 2, 1)]
    (entry,) = json.loads(out.read_text())["workloads"]["w"]
    # the nth call started under load n; the change runs first in odd pairs
    assert [[pair[side]["loadavg_start"][0] for side in bench_pairs.SIDES]
            for pair in (*entry["pairs"], *entry["trace"]["runs"])] == \
        [[1.0, 2.0], [4.0, 3.0], [5.0, 6.0], [7.0, 8.0], [10.0, 9.0], [11.0, 12.0]]
    assert [r["seed"] for r in entry["trace"]["runs"]] == [0, 1, 2]
    assert "environment" not in entry["pairs"][0]["parent"]
    assert "environment" not in entry["trace"]["runs"][0]["change"]
    assert entry["environment"] == {"nproc": 2, "loadavg_start": [12.0, 0.5, 0.25]}
    assert entry["commits"] == {"parent": "parent", "change": "change"}
    assert entry["metrics"]["wall_s"]["verdict"] == "pass"
    assert entry["claim"] == {"metric": "wall_s", "verdict": "gain"}


def test_a_layer_is_described_over_the_three_traced_runs(tmp_path, monkeypatch):
    """Each per-layer metric is reported per side as the median and quartiles
    of its three traced runs, in seed order, so one outlying run moves the
    median no further than the middle run."""
    spec = {"run_seconds": 1, "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25}]}
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    # oracle.self_us by (side, traced seed); parent seed 1 is an outlier
    oracle = {("parent", 0): 5.0, ("parent", 1): 9.0, ("parent", 2): 4.0,
              ("change", 0): 4.5, ("change", 1): 5.5, ("change", 2): None}

    def run_benchmark(checkout, workload, seed, seconds, trace):
        metrics = ({"oracle.self_us": oracle[checkout.name, seed], "runner.iters": 100}
                   if trace else {"wall_s": 1.0})
        return {"metrics": metrics, "attempted": 1, "failed": 0, "correct": 1,
                "environment": {}}

    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
    monkeypatch.setattr(bench_pairs, "commit_of", lambda checkout: checkout.name)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "w", "--pairs", "1", "--trace",
                             "--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["workloads"]["w"]
    layers = entry["trace"]["per_layer"]
    assert set(layers) == {"oracle.self_us", "runner.iters"}
    parent, change = layers["oracle.self_us"]["parent"], layers["oracle.self_us"]["change"]
    assert parent["samples"] == [5.0, 9.0, 4.0] and parent["median"] == 5.0
    assert parent["quartiles"] == pytest.approx([4.0, 9.0])
    # a null traced sample is counted missing; the rest are still described
    assert change["samples"] == [4.5, 5.5, None] and change["missing"] == 1
    assert change["median"] == 5.0
    assert layers["runner.iters"]["change"]["median"] == 100


def test_missing_samples_fail_the_change_and_keep_the_round(tmp_path, monkeypatch):
    """A null sample (perfbench/run.py's non-finite metric) fails its metric on
    the change side, leaves it unresolved on the parent side alone and is no
    gain; main still writes the round, with each side's missing count."""
    rates = [100.0, 101.0, 99.0, 100.0]
    s = bench_pairs.summarize(rates, [150.0, None, 151.0, 149.0], "higher", 0.25)
    assert s["verdict"] == "fail" and s["change_wins"] == 3
    assert (s["parent"]["missing"], s["change"]["missing"]) == (0, 1)
    assert s["change"]["median"] == 150.0
    assert bench_pairs.claim_verdict(s, NONE_FAILED) == "no gain"
    s = bench_pairs.summarize([None, 101.0, 99.0, None], [150.0] * 4, "higher", 0.25)
    assert s["verdict"] == "unresolved" and s["parent"]["missing"] == 2
    assert bench_pairs.claim_verdict(s, NONE_FAILED) == "no gain"
    s = bench_pairs.summarize(rates, [None] * 4, "higher", 0.25)
    assert s["verdict"] == "fail" and s["change"]["median"] is None

    spec = {"run_seconds": 1, "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "iters_per_s", "better": "higher", "bound": 0.25}]}
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))

    def run_benchmark(checkout, workload, seed, seconds, trace):
        counted = checkout.name == "parent"  # the change counts no iteration
        return {"metrics": {"wall_s": 4.0, "iters_per_s": 250.0 if counted else None},
                "attempted": 4, "failed": 0, "correct": 4, "environment": {}}

    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
    monkeypatch.setattr(bench_pairs, "commit_of", lambda checkout: checkout.name)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "w", "--metric", "iters_per_s",
                             "--pairs", "2", "--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["workloads"]["w"]
    rate = entry["metrics"]["iters_per_s"]
    assert rate["verdict"] == "fail" and rate["change"]["samples"] == [None, None]
    assert (rate["parent"]["missing"], rate["change"]["missing"]) == (0, 2)
    assert entry["metrics"]["wall_s"]["verdict"] == "pass"
    assert entry["claim"] == {"metric": "iters_per_s", "verdict": "no gain"}
