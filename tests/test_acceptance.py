"""End-to-end acceptance checks.

Each test executes one headline criterion at its stated tolerance, prints a
pass/fail line per sub-criterion, and enforces the criterion's runtime
budget. The heavy experiments live in ``nonstat_opt.verify`` so the same
measurements back the ``nonstat-opt verify`` command.
"""
import json
import time

import numpy as np
import pytest

from nonstat_opt import (NoiseSchedule, Oracle, constant_baseline,
                         idealized_baseline, make_adaptive, make_quadratic,
                         make_smooth_nonconvex, make_variance_adaptive,
                         nonconvex_constant_baseline, regret_bound, run_convex,
                         run_nonconvex, run_variance_adaptive)
from nonstat_opt.cli import main as cli_main
from nonstat_opt.verify import run_suite


def run_timed(suite_name: str, budget_s: float, label: str):
    started = time.perf_counter()
    result = run_suite(suite_name)
    elapsed = time.perf_counter() - started
    for crit in result.criteria:
        print(f"[acceptance] {label} {crit.describe()}")
    print(f"[acceptance] {label} runtime {elapsed:.1f}s (budget {budget_s:.0f}s)")
    assert elapsed <= budget_s, f"{label} exceeded its runtime budget"
    return result


def test_a1_jensen_ordering():
    result = run_timed("jensen", 1.0, "A1")
    assert result.passed


def test_a2_estimator_regret_bound():
    result = run_timed("regret", 30.0, "A2")
    assert result.passed
    by_name = {c.name: c for c in result.criteria}
    # frozen anchor for the cap at T = 1000 with M = 1, D^2 = 4
    assert by_name["regret-T1000"].bound == pytest.approx(4605.2, abs=0.5)
    assert regret_bound(1.0, 4.0, 1000) == by_name["regret-T1000"].bound


def test_a3_rate_separation():
    result = run_timed("rates", 600.0, "A3")
    by_name = {c.name: c for c in result.criteria}
    assert -0.60 <= by_name["constant-slope"].measured <= -0.40
    assert -0.85 <= by_name["idealized-slope"].measured <= -0.65
    assert by_name["adaptive-steeper-than-constant"].measured >= 0.08
    assert result.passed


def test_a4_tuned_method_ordering():
    result = run_timed("ordering", 300.0, "A4")
    assert result.passed


def test_a5_weighted_average_bound():
    result = run_timed("theorem1", 180.0, "A5")
    assert result.passed
    assert len(result.criteria) == 4  # {constant, idealized} x {flat, ramp}


def test_a6_adaptive_high_probability_bound():
    result = run_timed("theorem2", 300.0, "A6")
    for crit in result.criteria:
        frac4 = crit.details["fraction_under_4_constant"]
        print(f"[acceptance] A6 {crit.name}: fraction under the "
              f"4-constant bound = {frac4:.2f}")
        assert crit.measured >= 0.5
    assert result.passed


def test_a7_adversarial_spike_slowdown():
    result = run_timed("adversarial", 120.0, "A7")
    assert result.criteria[0].measured >= 1.5
    assert result.passed


def test_a8_nonconvex_baselines_and_cap():
    result = run_timed("nonconvex", 180.0, "A8")
    by_name = {c.name: c for c in result.criteria}
    assert by_name["paired-stepsize-cap"].measured <= by_name[
        "paired-stepsize-cap"].bound  # exact, no tolerance
    assert result.passed


def test_a9_determinism_and_query_accounting(tmp_path):
    started = time.perf_counter()
    cfg = {
        "problem": {"kind": "quadratic", "dim": 6, "n": 18, "seed": 0,
                    "radius": 1.0},
        "schedule": {"kind": "piecewise_linear"},
        "policies": ["constant", "idealized", "adaptive", "variance_adaptive"],
        "T": [200],
        "alpha": [0.4],
        "seeds": [0, 1, 2],
        "out": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli_main(["sweep", "--config", str(path)]) == 0
    first = (tmp_path / "out" / "results.csv").read_bytes()
    assert cli_main(["sweep", "--config", str(path)]) == 0
    second = (tmp_path / "out" / "results.csv").read_bytes()
    identical = first == second
    print(f"[acceptance] A9 byte-identical results.csv: "
          f"{'PASS' if identical else 'FAIL'}")
    assert identical

    T = 500
    prob = make_quadratic(seed=0, dim=6, n=18)
    sched = NoiseSchedule.piecewise_linear(T, 0.4)
    counts = {}
    oracle = Oracle(prob, sched, seed=1)
    counts["constant"] = run_convex(
        oracle, constant_baseline(prob.radius, sched)).oracle_queries
    oracle = Oracle(prob, sched, seed=1)
    counts["idealized"] = run_convex(
        oracle, idealized_baseline(prob.radius, sched)).oracle_queries
    oracle = Oracle(prob, sched, seed=1)
    counts["adaptive"] = run_convex(
        oracle, make_adaptive(prob.radius, 1.0, T)).oracle_queries
    oracle = Oracle(prob, sched, seed=1)
    counts["paired"] = run_variance_adaptive(
        oracle, make_variance_adaptive(prob, 1.0, T)).oracle_queries
    expected = {"constant": T, "idealized": T, "adaptive": T + 1,
                "paired": 2 * (T + 1)}
    ok = counts == expected
    print(f"[acceptance] A9 query accounting {counts}: {'PASS' if ok else 'FAIL'}")
    assert ok
    elapsed = time.perf_counter() - started
    print(f"[acceptance] A9 runtime {elapsed:.1f}s (budget 60s)")
    assert elapsed <= 60.0


def test_a10_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(23)
    worst = 0.0
    for prob in (make_quadratic(seed=8, dim=7, n=21),
                 make_smooth_nonconvex(7, seed=8)):
        for _ in range(100):
            x = prob.x_star + rng.uniform(-2.0, 2.0, size=prob.dim)
            fd = np.zeros(prob.dim)
            h = 1e-5
            for i in range(prob.dim):
                e = np.zeros(prob.dim)
                e[i] = h
                fd[i] = (prob.value(x + e) - prob.value(x - e)) / (2 * h)
            err = np.linalg.norm(prob.gradient(x) - fd) / max(np.linalg.norm(fd),
                                                              1e-8)
            worst = max(worst, err)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5
    print(f"[acceptance] A10 gradient vs central differences: worst relative "
          f"error {worst:.2e} <= 1e-05: {'PASS' if ok else 'FAIL'} "
          f"(runtime {elapsed:.1f}s, budget 1s)")
    assert ok
    assert elapsed <= 1.0
