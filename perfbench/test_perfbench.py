"""Tests of the benchmark itself: inputs, tracer and correctness check.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench``.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

import check
import spec
from child import completed_iterations
from tracer import Tracer, covered_ns, layer_metrics, summarize

ROOT = Path(__file__).resolve().parent.parent


# -- seed -> inputs ------------------------------------------------------------

@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_same_seed_gives_same_inputs(workload):
    for seed in (0, 7, 12345):
        v = spec.variant_of(workload, seed)
        assert spec.make_inputs(workload, v) == spec.make_inputs(workload, v)
        assert v == spec.variant_of(workload, seed + len(spec.variants(workload)))


@pytest.mark.parametrize("workload", ["multiseed-d40", "matvec-d400", "window-long"])
def test_variants_differ_only_in_seeds(workload):
    configs = [spec.make_inputs(workload, v)["config"] for v in spec.variants(workload)]
    assert len({json.dumps(c, sort_keys=True) for c in configs}) == spec.VARIANTS

    def work(cfg):
        problem = {k: v for k, v in cfg["problem"].items() if k != "seed"}
        return (problem, cfg["policies"], cfg["T"], cfg["alpha"], len(cfg["seeds"]),
                cfg.get("overrides"))

    assert all(work(c) == work(configs[0]) for c in configs)


def test_reference_covers_every_variant():
    reference = check.load_reference()
    for workload in spec.WORKLOADS:
        assert set(reference[workload]) == {str(v) for v in spec.variants(workload)}


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.benchmark_json()


# -- correctness check ---------------------------------------------------------

def _csv(rows: dict) -> str:
    lines = ["config_hash,policy,T,alpha,seed,final_metric,bound_value,regret,"
             "oracle_queries,wall_time_ms"]
    for key, (metric, queries) in rows.items():
        policy, horizon, alpha, seed = key.split("|")
        lines.append(f"abc,{policy},{horizon},{alpha},{seed},{metric!r},1,,{queries},0")
    return "\n".join(lines) + "\n"


@pytest.fixture
def expected():
    return check.load_reference()["multiseed-d40"]["0"]


def test_reference_rows_pass(expected):
    attempted, failed, problems = check.check_sweep(_csv(expected), expected)
    assert (attempted, failed, problems) == (len(expected), 0, [])


@pytest.mark.parametrize("perturb", [
    lambda m, q: (m * (1 + 1e-6), q),
    lambda m, q: (m, q + 1),
    lambda m, q: (math.nan, q),
])
def test_perturbed_row_fails(expected, perturb):
    rows = dict(expected)
    key = sorted(rows)[0]
    rows[key] = perturb(*rows[key])
    attempted, failed, problems = check.check_sweep(_csv(rows), expected)
    assert attempted == len(expected)
    assert failed == 1 and problems[0].startswith(key)


def test_rounding_within_tolerance_passes(expected):
    rows = {k: (float(f"{m:.12g}") * (1 + 1e-12), q) for k, (m, q) in expected.items()}
    assert check.check_sweep(_csv(rows), expected)[1] == 0


def test_missing_and_extra_rows_fail(expected):
    rows = dict(expected)
    key = sorted(rows)[0]
    rows.pop(key)
    rows["adaptive|10000|0.25|999"] = (1.0, 10001)
    attempted, failed, _ = check.check_sweep(_csv(rows), expected)
    assert (attempted, failed) == (len(expected) + 1, 2)


def test_nonzero_exit_fails_every_row(tmp_path, expected):
    (tmp_path / "results.csv").write_text(_csv(expected))
    reference = {"multiseed-d40": {"0": expected}}
    assert check.check_outputs("multiseed-d40", 0, tmp_path, 0, reference)[1] == 0
    attempted, failed, _ = check.check_outputs("multiseed-d40", 0, tmp_path, 1, reference)
    assert failed == attempted == len(expected)


def test_verify_verdict_and_ratio_are_checked():
    expected = check.load_reference()["verify-adversarial"]["0"]
    (name, (passed, measured)), = expected.items()
    assert passed is True

    def report(passed, measured):
        return {"adversarial": {"criteria": [
            {"name": name, "passed": passed, "measured": measured}]}}

    assert check.check_verify(report(True, measured), expected)[1] == 0
    assert check.check_verify(report(False, measured), expected)[1] == 1
    assert check.check_verify(report(True, measured * 1.01), expected)[1] == 1


# -- tracer --------------------------------------------------------------------

def _snapshot():
    import nonstat_opt  # noqa: F401  (loads every module the tracer patches)
    from nonstat_opt import cli, verify  # noqa: F401

    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "nonstat_opt"]
    owners += [v for m in list(owners) for v in vars(m).values() if isinstance(v, type)]
    return {id(o): dict(vars(o)) for o in owners}


def test_restore_puts_every_original_back():
    before = _snapshot()
    tracer = Tracer().install()
    during = _snapshot()
    changed = sum(before[k][a] is not during[k][a] for k in before for a in before[k])
    assert changed >= 40
    tracer.restore()
    after = _snapshot()
    assert all(before[k][a] is after[k][a] for k in before for a in before[k])


def test_names_bound_by_from_import_are_patched():
    from nonstat_opt import cli, runner, verify

    original = runner.run_convex
    with Tracer():
        assert cli.run_convex is verify.run_convex is runner.run_convex
        assert cli.run_convex is not original
    assert cli.run_convex is verify.run_convex is original


def _tiny_sweep(tmp_path, name, traced):
    from nonstat_opt import cli

    cfg = {"problem": {"kind": "quadratic", "dim": 5, "n": 10, "seed": 1},
           "schedule": {"kind": "piecewise_linear"},
           "policies": ["constant", "adaptive", "window", "variance_adaptive"],
           "T": [200], "alpha": [0.5], "seeds": [0, 1]}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    args = ["sweep", "--config", str(path), "--out", str(out), "--workers", "2"]
    if traced:
        with Tracer() as tracer:
            assert cli.main(args) == 0
    else:
        tracer = None
        assert cli.main(args) == 0
    return (out / "results.csv").read_bytes(), tracer


def test_traced_sweep_is_byte_identical_and_counts_exactly(tmp_path):
    plain, _ = _tiny_sweep(tmp_path, "plain", traced=False)
    traced, tracer = _tiny_sweep(tmp_path, "traced", traced=True)
    assert plain == traced
    totals = tracer.totals()
    assert totals["cli.execute_run"][0] == 8
    assert totals["policy.stepsize"][0] == 8 * 200
    assert totals["estimator.window.update"][0] == 2 * 200
    assert totals["estimator.variance.update"][0] == 2 * 200
    # one aggregate per run and span name, however many iterations ran
    assert len(tracer.per_run_layers()) == 8
    summary = summarize(tracer)
    assert summary["sweep"]["execute_run_sum_s"] > 0
    metrics = layer_metrics(summary, 8 * 200, 0, {"kind": "quadratic", "dim": 5, "n": 10},
                            0, 0.0)
    assert set(metrics) == set(spec.PER_LAYER)
    assert metrics["oracle.queries_per_iter"] == pytest.approx(
        (6 * 200 + 4 + 2 * (2 * 200 + 2)) / 1600)


def test_covered_ns_takes_the_union():
    assert covered_ns([(0, 10), (5, 15), (20, 30)], 0, 100) == 25
    assert covered_ns([(0, 10), (5, 15)], 8, 12) == 4
    assert covered_ns([], 0, 10) == 0


def test_completed_iterations():
    import numpy as np
    from nonstat_opt.runner import RunRecord

    rec = RunRecord(policy="adaptive", seed=0, horizon=50, stepsizes=np.full(50, 0.1))
    assert completed_iterations(rec) == 50
    rec.stepsizes[17:] = 0.0
    rec.failed = True
    assert completed_iterations(rec) == 17
