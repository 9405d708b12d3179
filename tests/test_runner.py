import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats

from nonstat_opt import (FixedStep, NoiseSchedule, Oracle, PairedAdaptiveStep,
                         SecondMomentEMA, VarianceEMA, WeightedIndexReservoir,
                         bound_constant, constant_baseline, idealized_baseline,
                         make_adaptive, make_quadratic, make_smooth_nonconvex,
                         make_variance_adaptive, nonconvex_constant_baseline,
                         run_convex, run_estimation_only, run_nonconvex,
                         run_variance_adaptive)
from nonstat_opt.policy import POLICIES


@pytest.fixture()
def quad():
    return make_quadratic(seed=4, dim=5, n=20)


class SpyOracle(Oracle):
    """Logs ("query", k) for every single or paired draw into ``events``."""

    def __init__(self, problem, schedule, seed, events):
        super().__init__(problem, schedule, seed)
        self.events = events

    def query(self, x, k, with_true=False):
        self.events.append(("query", k))
        return super().query(x, k, with_true)

    def query_pair(self, x, k, with_true=False):
        self.events.append(("query", k))
        return super().query_pair(x, k, with_true)


class PointLog(Oracle):
    """Keeps a copy of every single-query point in ``points``."""

    def __init__(self, problem, schedule, seed):
        super().__init__(problem, schedule, seed)
        self.points = []

    def query(self, x, k, with_true=False):
        self.points.append(x.copy())
        return super().query(x, k, with_true)


class SpyPolicy:
    """Wraps a policy and logs ("stepsize", k) into ``events``."""

    def __init__(self, inner, events):
        self.inner = inner
        self.events = events
        self.uses_pairs = inner.uses_pairs
        self.estimator = inner.estimator
        self.name = inner.name

    def init(self, oracle, x1):
        self.inner.init(oracle, x1)

    def stepsize(self, k):
        self.events.append(("stepsize", k))
        return self.inner.stepsize(k)

    def observe(self, g, g2=None):
        self.inner.observe(g, g2)


class TestConvexRun:
    def test_zero_noise_descends_monotonically(self, quad):
        T = 60
        sched = NoiseSchedule.constant(0.0, T)
        oracle = Oracle(quad, sched, seed=0)
        rec = run_convex(quad, oracle, FixedStep(0.9 / quad.L), T, seed=0)
        assert not rec.failed
        assert np.all(np.diff(rec.suboptimality) <= 1e-15)

    def test_single_step_average_is_the_start_point(self, quad):
        # the averaged output covers the query points x_1..x_T, so at T = 1
        # it is x_1 itself
        sched = NoiseSchedule.constant(0.5, 1)
        oracle = Oracle(quad, sched, seed=3)
        rec = run_convex(quad, oracle, FixedStep(0.1), 1, seed=3)
        np.testing.assert_allclose(rec.x_bar, quad.start, rtol=1e-12)

    def test_average_recomputable_from_kept_iterates(self, quad):
        T = 25
        sched = NoiseSchedule.piecewise_linear(T, 0.5)
        oracle = PointLog(quad, sched, seed=5)
        pol = idealized_baseline(quad.radius, sched, T)
        rec = run_convex(quad, oracle, pol, T, seed=5)
        assert len(oracle.points) == T
        recomputed = np.average(oracle.points, axis=0, weights=rec.stepsizes)
        assert np.abs(recomputed - rec.x_bar).max() <= 1e-10

    def test_trace_lengths_and_accounting(self, quad):
        T = 40
        sched = NoiseSchedule.piecewise_linear(T, 0.3)
        oracle = Oracle(quad, sched, seed=6)
        rec = run_convex(quad, oracle, constant_baseline(quad.radius, sched),
                         T, seed=6)
        assert rec.stepsizes.size == rec.suboptimality.size == T
        assert rec.oracle_queries == T
        assert rec.estimator_trace is None

    def test_adaptive_accounting_and_trace(self, quad):
        T = 40
        sched = NoiseSchedule.piecewise_linear(T, 0.3)
        oracle = Oracle(quad, sched, seed=6)
        with pytest.warns(RuntimeWarning):
            pol = make_adaptive(quad.radius, 1.0, T)
        rec = run_convex(quad, oracle, pol, T, seed=6)
        assert rec.oracle_queries == T + 1
        assert rec.estimator_trace.size == T
        assert rec.estimator_kind == "second-moment"

    def test_paired_accounting(self, quad):
        T = 40
        sched = NoiseSchedule.piecewise_linear(T, 0.3)
        oracle = Oracle(quad, sched, seed=6)
        pol = make_variance_adaptive(quad, 1.0, T)
        rec = run_variance_adaptive(quad, oracle, pol, T, seed=6)
        assert rec.oracle_queries == 2 * (T + 1)

    def test_determinism_bitwise(self, quad):
        T = 60
        sched = NoiseSchedule.piecewise_linear(T, 0.4)
        recs = []
        for _ in range(2):
            oracle = Oracle(quad, sched, seed=9)
            with pytest.warns(RuntimeWarning):
                pol = make_adaptive(quad.radius, 1.0, T)
            recs.append(run_convex(quad, oracle, pol, T, seed=9))
        a, b = recs
        assert np.array_equal(a.stepsizes, b.stepsizes)
        assert np.array_equal(a.suboptimality, b.suboptimality)
        assert np.array_equal(a.x_bar, b.x_bar)
        assert a.final_metric == b.final_metric

    def test_stepsize_fixed_before_gradient_is_drawn(self, quad):
        """Obliviousness: each stepsize call precedes that iteration's query."""
        T = 15
        sched = NoiseSchedule.constant(1.0, T)
        events = []
        oracle = SpyOracle(quad, sched, 1, events)
        with pytest.warns(RuntimeWarning):
            pol = SpyPolicy(make_adaptive(quad.radius, 1.0, T), events)
        run_convex(quad, oracle, pol, T, seed=1)
        # drop the estimator's init query, then require strict alternation
        loop_events = events[1:]
        for k in range(1, T + 1):
            assert loop_events[2 * (k - 1)] == ("stepsize", k)
            assert loop_events[2 * k - 1] == ("query", k)

    def test_divergence_returns_tagged_failure(self, quad):
        """Every runner aborts quietly and accounts for the queries it drew."""
        T = 30
        flat = NoiseSchedule.constant(0.0, T)
        nonconvex = make_smooth_nonconvex(4, radius=1.0, seed=0)
        cases = (
            (run_convex, quad, flat, FixedStep(1e200)),
            (run_variance_adaptive, quad, flat,
             PairedAdaptiveStep(1e200, 1.0, VarianceEMA(0.5))),
            # the gradient is bounded, so only overflowing noise diverges
            (run_nonconvex, nonconvex, NoiseSchedule.constant(1e308, T),
             FixedStep(0.25)),
        )
        for runner, problem, sched, policy in cases:
            oracle = Oracle(problem, sched, seed=0)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rec = runner(problem, oracle, policy, T, seed=0)
            assert rec.failed
            assert "overflow" in rec.failure_reason
            assert math.isnan(rec.final_metric)
            k = int(re.search(r"iteration (\d+)", rec.failure_reason).group(1))
            arity = 2 if policy.uses_pairs else 1
            init = 0 if policy.estimator is None else 1
            assert rec.oracle_queries == oracle.query_count == arity * (k + init)

    def test_median_tracks_constant_baseline_bound(self, quad):
        T = 2000
        sched = NoiseSchedule.constant(1.0, T)
        finals = []
        for seed in range(8):
            oracle = Oracle(quad, sched, seed=seed)
            pol = constant_baseline(quad.radius, sched)
            finals.append(run_convex(quad, oracle, pol, T, seed=seed).final_metric)
        assert float(np.median(finals)) <= bound_constant(quad.radius, sched)


@pytest.mark.parametrize("kind", ["quadratic", "smooth_nonconvex"])
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_one_loop_contract(kind, name):
    """Query accounting, stepsize-before-query order and the nonconvex cap,
    for every policy through the public runners."""
    T = 40
    problem = (make_quadratic(seed=4, dim=5, n=20) if kind == "quadratic"
               else make_smooth_nonconvex(4, radius=1.0, seed=0))
    sched = NoiseSchedule.piecewise_linear(T, 0.3)
    events = []
    build, _ = POLICIES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        policy = SpyPolicy(build(problem, sched, T, {}), events)
    oracle = SpyOracle(problem, sched, 2, events)
    if policy.uses_pairs:
        rec = run_variance_adaptive(problem, oracle, policy, T, seed=2)
    elif problem.convex:
        rec = run_convex(problem, oracle, policy, T, seed=2)
    else:
        rec = run_nonconvex(problem, oracle, policy, T, seed=2)
    assert not rec.failed
    arity = 2 if policy.uses_pairs else 1
    init = 0 if policy.estimator is None else 1
    assert rec.oracle_queries == oracle.query_count == arity * (T + init)
    # drop the estimator's seed draw, then require strict alternation
    loop_events = events[init:]
    assert loop_events == [(event, k) for k in range(1, T + 1)
                           for event in ("stepsize", "query")]
    if not problem.convex:
        assert rec.stepsizes.max() <= 1.0 / (2.0 * problem.L)


class TestVarianceAdaptiveRun:
    def test_zero_noise_reduces_to_plain_descent(self, quad):
        T = 40
        sched = NoiseSchedule.constant(0.0, T)
        oracle = Oracle(quad, sched, seed=2)
        pol = make_variance_adaptive(quad, 1.0, T)
        rec = run_variance_adaptive(quad, oracle, pol, T, seed=2)
        assert not rec.failed
        # sigma_hat stays zero, so every step equals c / m
        assert np.all(rec.stepsizes == pol.c / pol.m)
        assert np.all(rec.estimator_trace == 0.0)
        assert np.all(np.diff(rec.suboptimality) <= 1e-15)

    def test_cap_holds_on_every_iteration(self):
        T = 300
        prob = make_smooth_nonconvex(6, radius=1.0, seed=1)
        sched = NoiseSchedule.piecewise_linear(T, 0.3)
        oracle = Oracle(prob, sched, seed=3)
        pol = make_variance_adaptive(prob, sched.max_level(), T)
        rec = run_variance_adaptive(prob, oracle, pol, T, seed=3)
        assert rec.stepsizes.max() <= 1.0 / (2.0 * prob.L)
        assert rec.sampled_index is not None
        assert rec.oracle_queries == 2 * (T + 1)


class TestNonconvexRun:
    def test_sampled_metric_comes_from_the_trace(self):
        T = 200
        prob = make_smooth_nonconvex(4, radius=1.0, seed=0)
        sched = NoiseSchedule.piecewise_linear(T, 0.3)
        oracle = Oracle(prob, sched, seed=7)
        rec = run_nonconvex(prob, oracle, nonconvex_constant_baseline(prob, sched),
                            T, seed=7)
        assert 1 <= rec.sampled_index <= T
        assert rec.final_metric == rec.grad_norm_sq[rec.sampled_index - 1]
        assert rec.oracle_queries == T

    def test_rejects_steps_above_the_cap(self):
        T = 10
        prob = make_smooth_nonconvex(4, radius=1.0, seed=0)
        sched = NoiseSchedule.constant(1.0, T)
        oracle = Oracle(prob, sched, seed=0)
        with pytest.raises(ValueError):
            run_nonconvex(prob, oracle, FixedStep(1.0), T, seed=0)


class TestReservoir:
    def test_uniform_weights_sample_uniformly(self):
        rng = np.random.default_rng(11)
        n, draws = 5, 100_000
        counts = np.zeros(n)
        for _ in range(draws):
            res = WeightedIndexReservoir(rng)
            for k in range(1, n + 1):
                res.offer(k, 1.0)
            counts[res.index - 1] += 1
        chi2 = float(((counts - draws / n) ** 2 / (draws / n)).sum())
        assert chi2 <= stats.chi2.ppf(0.999, df=n - 1)

    def test_two_to_one_odds(self):
        rng = np.random.default_rng(12)
        draws = 100_000
        hits = 0
        for _ in range(draws):
            res = WeightedIndexReservoir(rng)
            res.offer(1, 1.0)
            res.offer(2, 3.0)
            hits += res.index == 1
        p_hat = hits / draws
        se = math.sqrt(0.25 * 0.75 / draws)
        assert abs(p_hat - 0.25) <= 5 * se

    def test_matches_direct_categorical_sampling(self):
        weights = np.array([0.2, 1.0, 0.5, 2.3])
        rng = np.random.default_rng(13)
        draws = 60_000
        counts = np.zeros(weights.size)
        for _ in range(draws):
            res = WeightedIndexReservoir(rng)
            for k, w in enumerate(weights, start=1):
                res.offer(k, float(w))
            counts[res.index - 1] += 1
        expected = draws * weights / weights.sum()
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 <= stats.chi2.ppf(0.999, df=weights.size - 1)


def test_estimation_only_trace_semantics(quad):
    T = 30
    sched = NoiseSchedule.constant(0.0, T)
    oracle = Oracle(quad, sched, seed=0)
    est = SecondMomentEMA(0.9)
    trace = run_estimation_only(oracle, quad.x_star, T, est)
    # zero noise at the minimizer: every sample is exactly zero
    assert np.all(trace == 0.0)
    assert oracle.query_count == T + 1
