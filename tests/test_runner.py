import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonstat_opt import (FixedStep, NoiseSchedule, Oracle, PairedAdaptiveStep,
                         SecondMomentEMA, VarianceEMA, bound_constant, constant_baseline, idealized_baseline,
                         make_adaptive, make_quadratic, make_smooth_nonconvex,
                         make_variance_adaptive, nonconvex_constant_baseline,
                         nonconvex_idealized_baseline, run_convex,
                         run_estimation_only, run_nonconvex, run_variance_adaptive,
                         weighted_index)
from nonstat_opt.policy import POLICIES, AdaptiveStep
from nonstat_opt.problems import Quadratic, SmoothNonconvex


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

    def init(self, oracle, x1):
        self.inner.init(oracle, x1)

    def stepsize(self, k):
        self.events.append(("stepsize", k))
        return self.inner.stepsize(k)

    def observe(self, *gs):
        self.inner.observe(*gs)


class TestConvexRun:
    def test_zero_noise_descends_monotonically(self, quad):
        T = 60
        sched = NoiseSchedule.constant(0.0, T)
        oracle = Oracle(quad, sched, seed=0)
        rec = run_convex(oracle, FixedStep(0.9 / quad.L), trace_values=True)
        assert not rec.failed
        assert np.all(np.diff(rec.suboptimality) <= 1e-15)

    def test_single_step_average_is_the_start_point(self, quad):
        # the averaged output covers the query points x_1..x_T, so at T = 1
        # it is x_1 itself
        sched = NoiseSchedule.constant(0.5, 1)
        oracle = Oracle(quad, sched, seed=3)
        rec = run_convex(oracle, FixedStep(0.1))
        np.testing.assert_allclose(rec.x_bar, quad.start, rtol=1e-12)

    def test_average_recomputable_from_kept_iterates(self, quad):
        T = 25
        sched = NoiseSchedule.piecewise_linear(T, 0.5)
        oracle = PointLog(quad, sched, seed=5)
        pol = idealized_baseline(quad.radius, sched)
        rec = run_convex(oracle, pol)
        assert len(oracle.points) == T
        recomputed = np.average(oracle.points, axis=0, weights=rec.stepsizes)
        assert np.abs(recomputed - rec.x_bar).max() <= 1e-10

    def test_trace_lengths_and_accounting(self, quad):
        T = 40
        sched = NoiseSchedule.piecewise_linear(T, 0.3)
        oracle = Oracle(quad, sched, seed=6)
        rec = run_convex(oracle, constant_baseline(quad.radius, sched),
                         trace_values=True)
        assert rec.stepsizes.size == rec.suboptimality.size == T
        assert rec.oracle_queries == T
        assert rec.estimator_trace is None

    def test_adaptive_accounting_and_trace(self, quad):
        T = 40
        sched = NoiseSchedule.piecewise_linear(T, 0.3)
        oracle = Oracle(quad, sched, seed=6)
        pol = make_adaptive(quad.radius, 1.0, T)
        rec = run_convex(oracle, pol)
        assert rec.oracle_queries == T + 1
        assert rec.estimator_trace.size == T
        assert rec.squared_trace

    def test_paired_accounting(self, quad):
        T = 40
        sched = NoiseSchedule.piecewise_linear(T, 0.3)
        oracle = Oracle(quad, sched, seed=6)
        pol = make_variance_adaptive(quad, 1.0, T)
        rec = run_variance_adaptive(oracle, pol)
        assert rec.oracle_queries == 2 * (T + 1)

    def test_determinism_bitwise(self, quad):
        T = 60
        sched = NoiseSchedule.piecewise_linear(T, 0.4)
        recs = []
        for _ in range(2):
            oracle = Oracle(quad, sched, seed=9)
            pol = make_adaptive(quad.radius, 1.0, T)
            recs.append(run_convex(oracle, pol, trace_values=True))
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
        pol = SpyPolicy(make_adaptive(quad.radius, 1.0, T), events)
        run_convex(oracle, pol)
        # drop the estimator's init query, then require strict alternation
        loop_events = events[1:]
        for k in range(1, T + 1):
            assert loop_events[2 * (k - 1)] == ("stepsize", k)
            assert loop_events[2 * k - 1] == ("query", k)

    def test_divergence_returns_tagged_failure(self, quad):
        """Every runner ends an abort inside its loop as a failed record that
        names the iteration and the cause and accounts for the queries it drew:
        an overflow after iteration k's query, a step above the cap or a
        degenerate denominator before it."""
        T = 30
        flat = NoiseSchedule.constant(0.0, T)
        nonconvex = make_smooth_nonconvex(4, radius=1.0, seed=0)
        # no noise and a start at x*: the estimate and m are both 0
        degenerate = make_adaptive(0.0, 0.0, 50, c=1.0, m=0.0)
        small = make_quadratic(seed=0, dim=5, n=10)
        huge = NoiseSchedule.custom([1e154] * 20)
        # the window's sum of two ~1e308 samples rounds above the float range
        overflowing_window = POLICIES["window"](small, huge, {})
        cases = (  # runner, problem, schedule, policy, failure reason, queries
            (run_convex, quad, flat, FixedStep(1e200),
             "aborted at iteration 2: iterate overflow or NaN", 2),
            (run_variance_adaptive, quad, flat,
             PairedAdaptiveStep(1e200, 1.0, VarianceEMA(0.5)),
             "aborted at iteration 2: iterate overflow or NaN", 2 * (2 + 1)),
            # the gradient is bounded, so only overflowing noise diverges
            (run_nonconvex, nonconvex, NoiseSchedule.constant(1e308, T),
             FixedStep(0.25), "aborted at iteration 24: iterate overflow or NaN", 24),
            (run_nonconvex, nonconvex, NoiseSchedule.constant(1.0, 10), FixedStep(1.0),
             "aborted at iteration 1: stepsize 1 exceeds the smoothness cap 0.25", 0),
            (run_convex, make_quadratic(seed=0, dim=5, n=10, radius=0.0),
             NoiseSchedule.constant(0.0, 50), degenerate,
             "aborted at iteration 1: degenerate stepsize denominator", 1),
            (run_convex, small, huge, overflowing_window,
             "aborted at iteration 3: degenerate stepsize denominator", 3),
        )
        for runner, problem, sched, policy, reason, queries in cases:
            oracle = Oracle(problem, sched, seed=0)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rec = runner(oracle, policy)
            assert rec.failed
            assert rec.failure_reason == reason
            assert math.isnan(rec.final_metric)
            assert rec.oracle_queries == oracle.query_count == queries

    def test_median_tracks_constant_baseline_bound(self, quad):
        T = 2000
        sched = NoiseSchedule.constant(1.0, T)
        finals = []
        for seed in range(8):
            oracle = Oracle(quad, sched, seed=seed)
            pol = constant_baseline(quad.radius, sched)
            finals.append(run_convex(oracle, pol).final_metric)
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
    build = POLICIES[name]
    policy = SpyPolicy(build(problem, sched, {}), events)
    oracle = SpyOracle(problem, sched, 2, events)
    if policy.uses_pairs:
        rec = run_variance_adaptive(oracle, policy)
    elif problem.convex:
        rec = run_convex(oracle, policy)
    else:
        rec = run_nonconvex(oracle, policy)
    assert not rec.failed
    arity = 2 if policy.uses_pairs else 1
    init = 0 if policy.estimator is None else 1
    assert rec.oracle_queries == oracle.query_count == arity * (T + init)
    # an untraced convex run has no output that reads ||grad f(x_k)||^2
    assert (rec.grad_norm_sq is None) == problem.convex
    # the problem class fixes the output: x_bar if convex, else a sampled index
    assert (rec.x_bar is not None) == problem.convex
    assert (rec.sampled_index is not None) == (not problem.convex)
    # drop the estimator's seed draw, then require strict alternation
    loop_events = events[init:]
    assert loop_events == [(event, k) for k in range(1, T + 1)
                           for event in ("stepsize", "query")]
    if not problem.convex:
        assert rec.stepsizes.max() <= 1.0 / (2.0 * problem.L)


class ValueCounter(Quadratic):
    """The same quadratic, counting its value() calls in ``value_calls``."""

    def __init__(self, quad):
        super().__init__(quad.A, quad.x_star, quad.start)
        self.value_calls = 0

    def value(self, x):
        self.value_calls += 1
        return super().value(x)


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_value_trace_is_opt_in(quad, name):
    """Without the trace a convex run calls value() a fixed number of times,
    whatever T; with it, once more per iteration, and every other output keeps
    its bits."""
    problem = ValueCounter(quad)
    build = POLICIES[name]
    calls, records = {}, {}
    for T in (20, 80):
        sched = NoiseSchedule.piecewise_linear(T, 0.3)
        for trace_values in (False, True):
            policy = build(problem, sched, {})
            runner = run_variance_adaptive if policy.uses_pairs else run_convex
            problem.value_calls = 0
            rec = runner(Oracle(problem, sched, seed=5), policy,
                         trace_values=trace_values)
            calls[T, trace_values] = problem.value_calls
            records[T, trace_values] = rec
            assert (rec.suboptimality is None) != trace_values
            assert (rec.grad_norm_sq is None) != trace_values
    assert calls[20, False] == calls[80, False] == 1  # f(x_bar) alone
    assert [calls[T, True] - calls[T, False] for T in (20, 80)] == [20, 80]
    for T in (20, 80):
        plain, traced = records[T, False], records[T, True]
        assert plain.stepsizes.tobytes() == traced.stepsizes.tobytes()
        assert plain.x_bar.tobytes() == traced.x_bar.tobytes()
        assert np.float64(plain.final_metric).tobytes() == \
            np.float64(traced.final_metric).tobytes()


# sha256 of grad_norm_sq.tobytes() of a traced convex run on the quad fixture
# (piecewise-linear schedule, T = 200, alpha = 0.5, seed 3), recorded while
# every run traced ||grad f(x_k)||^2.
GRAD_TRACES = {
    "adaptive": "e44da594467a7b237e7f1901f2ca377e0047b949ef29e8cb87ce287a939f438d",
    "variance_adaptive": "b15826ba885c3cf90aa1771fa75acf4abfc50a4b750d85860a7b993e3df9b7ac",
}


@pytest.mark.parametrize("name", sorted(GRAD_TRACES))
def test_traced_convex_run_keeps_the_recorded_gradient_trace(quad, name):
    sched = NoiseSchedule.piecewise_linear(200, 0.5)
    policy = POLICIES[name](quad, sched, {})
    runner = run_variance_adaptive if policy.uses_pairs else run_convex
    rec = runner(Oracle(quad, sched, seed=3), policy, trace_values=True)
    assert hashlib.sha256(rec.grad_norm_sq.tobytes()).hexdigest() == GRAD_TRACES[name]


class TestVarianceAdaptiveRun:
    def test_zero_noise_reduces_to_plain_descent(self, quad):
        T = 40
        sched = NoiseSchedule.constant(0.0, T)
        oracle = Oracle(quad, sched, seed=2)
        pol = make_variance_adaptive(quad, 1.0, T)
        rec = run_variance_adaptive(oracle, pol, trace_values=True)
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
        rec = run_variance_adaptive(oracle, pol)
        assert rec.stepsizes.max() <= 1.0 / (2.0 * prob.L)
        assert rec.sampled_index is not None
        assert rec.oracle_queries == 2 * (T + 1)


class TestNonconvexRun:
    def test_convex_problem_is_refused_before_any_query(self, quad):
        """On a convex problem the loop would output x_bar, not a sampled index."""
        oracle = Oracle(quad, NoiseSchedule.piecewise_linear(20, 0.3), seed=0)
        with pytest.raises(ValueError, match="non-convex"):
            run_nonconvex(oracle, AdaptiveStep(0.1, 1.0, SecondMomentEMA(0.9)))
        assert oracle.query_count == 0

    def test_sampled_metric_comes_from_the_trace(self):
        T = 200
        prob = make_smooth_nonconvex(4, radius=1.0, seed=0)
        sched = NoiseSchedule.piecewise_linear(T, 0.3)
        oracle = Oracle(prob, sched, seed=7)
        rec = run_nonconvex(oracle, nonconvex_constant_baseline(prob, sched))
        assert 1 <= rec.sampled_index <= T
        assert rec.final_metric == rec.grad_norm_sq[rec.sampled_index - 1]
        assert rec.oracle_queries == T

    @pytest.mark.parametrize("L", [None, 0.0])
    @pytest.mark.parametrize("reader", [
        lambda oracle: nonconvex_constant_baseline(oracle.problem, oracle.schedule),
        lambda oracle: nonconvex_idealized_baseline(oracle.problem, oracle.schedule),
        # the estimator's seed draw in init would be a query before the cap
        lambda oracle: run_nonconvex(oracle, AdaptiveStep(0.1, 1.0, SecondMomentEMA(0.9))),
        lambda oracle: make_variance_adaptive(oracle.problem, oracle.schedule.max_level(),
                                              oracle.schedule.horizon),
    ], ids=["constant_baseline", "idealized_baseline", "run_nonconvex",
            "make_variance_adaptive"])
    def test_cap_needs_a_positive_smoothness_constant(self, reader, L):
        """Every reader of problem.step_cap() rejects a problem without a
        positive L with a ValueError, before any oracle query."""
        prob = make_smooth_nonconvex(4, radius=1.0, seed=0)
        prob.L = L
        oracle = Oracle(prob, NoiseSchedule.piecewise_linear(20, 0.3), seed=0)
        with pytest.raises(ValueError, match="positive L"):
            reader(oracle)
        assert oracle.query_count == 0


def online_reservoir_index(rng, weights):
    """The sequential rule weighted_index replays: one uniform per offer, and
    index k replaces the pick when u * (running total) < w_k."""
    total, index = 0.0, None
    for k, weight in enumerate(weights, start=1):
        total += weight
        if rng.random() * total < weight:
            index = k
    return index


class Uniforms:
    """Given uniforms, served one at a time (``random()``) or as a block."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        block, self.values = self.values[:size], self.values[size:]
        return np.array(block)


class TestReservoir:
    def test_uniform_weights_sample_uniformly(self):
        rng = np.random.default_rng(11)
        n, draws = 5, 100_000
        counts = np.zeros(n)
        for _ in range(draws):
            counts[weighted_index(rng, np.ones(n)) - 1] += 1
        chi2 = float(((counts - draws / n) ** 2 / (draws / n)).sum())
        assert chi2 <= 18.46682695290317  # 0.999 quantile of chi-square, df = n - 1 = 4

    def test_two_to_one_odds(self):
        rng = np.random.default_rng(12)
        draws = 100_000
        hits = sum(weighted_index(rng, np.array([1.0, 3.0])) == 1 for _ in range(draws))
        p_hat = hits / draws
        se = math.sqrt(0.25 * 0.75 / draws)
        assert abs(p_hat - 0.25) <= 5 * se

    def test_matches_direct_categorical_sampling(self):
        weights = np.array([0.2, 1.0, 0.5, 2.3])
        rng = np.random.default_rng(13)
        draws = 60_000
        counts = np.zeros(weights.size)
        for _ in range(draws):
            counts[weighted_index(rng, weights) - 1] += 1
        expected = draws * weights / weights.sum()
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 <= 16.26623619623813  # 0.999 quantile of chi-square, df = 4 - 1 = 3

    def test_replays_the_online_rule_bit_for_bit(self):
        """Same index as the sequential rule on the same stream, over weights
        spanning ten decades, where a pairwise sum or an inverse-CDF draw
        would pick differently; the stream ends at the same state."""
        shape = np.random.default_rng(0)
        for seed in range(300):
            n = int(shape.integers(1, 400))
            weights = 10.0 ** shape.uniform(-5.0, 5.0, n)
            batch, online = np.random.default_rng(seed), np.random.default_rng(seed)
            assert weighted_index(batch, weights) == \
                online_reservoir_index(online, weights.tolist())
            assert batch.random() == online.random()

    def test_ties_and_last_bits_follow_the_online_rule(self):
        """Uniforms at each weight's share w_k / (w_1 + ... + w_k), moved one ulp
        down, up or not at all: where u * total ties w_k or rounds across it.
        Power-of-two weights make the ties exact."""
        draw = np.random.default_rng(1)
        for case, n in enumerate(draw.integers(1, 60, 400)):
            weights = (2.0 ** draw.integers(-8, 8, n) if case % 2
                       else 10.0 ** draw.uniform(-5.0, 5.0, n))
            shares = weights / np.cumsum(weights)
            u = np.nextafter(shares, draw.choice([0.0, 1.0, 2.0], n))
            u = np.minimum(u, np.nextafter(1.0, 0.0))  # uniforms lie in [0, 1)
            assert weighted_index(Uniforms(u), weights) == \
                online_reservoir_index(Uniforms(u), weights.tolist())


def test_estimation_only_trace_semantics(quad):
    T = 30
    sched = NoiseSchedule.constant(0.0, T)
    oracle = Oracle(quad, sched, seed=0)
    est = SecondMomentEMA(0.9)
    trace = run_estimation_only(oracle, quad.x_star, est)
    # zero noise at the minimizer: every sample is exactly zero
    assert np.all(trace == 0.0)
    assert oracle.query_count == T + 1


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(dim=st.one_of(st.integers(1, 64), st.just(400)), extra_rows=st.integers(0, 40),
       seed=st.integers(0, 2 ** 32 - 1),
       exponents=st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)).map(sorted))
def test_hot_path_forms_keep_the_bits(dim, extra_rows, seed, exponents):
    """Each form the loop and the code it calls use (runner's module docstring)
    equals the form it replaced, byte for byte, on this BLAS: H.dot(v) and H @ v
    for square and tall H, v.dot(v) and v @ v on whole vectors and on the two
    halves of one pair buffer, a product with a 0-d array and with the Python
    float or numpy scalar, and the non-convex gradient and 2x / (1 + x^2)^2.
    Entries have magnitudes from 10^lo to 10^hi, inside [1e-150, 1e150]."""
    lo, hi = exponents
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(lo, hi, shape)

    v, pair = draw(dim), draw(2 * dim)
    g1, g2 = pair[:dim], pair[dim:]
    vectors = (v, g1, g2, g1 - g2)
    for H in (draw(dim, dim), draw(dim + extra_rows, dim)):
        for u in vectors:
            assert _same_bits(H.dot(u), H @ u), "H.dot(v) != H @ v"
    for u in vectors:
        assert _same_bits(u.dot(u), u @ u), "v.dot(v) != v @ v"
    e = float(draw())
    for u in (*vectors, g1 + g2):
        assert _same_bits(u * np.array(e), e * u), "x * np.array(e) != e * x"
        assert _same_bits(np.array(e) * u, e * u), "np.array(e) * x != e * x"
        assert _same_bits(u * np.array(e), u * np.float64(e)), \
            "x * np.array(e) != x * np.float64(e)"
        assert _same_bits(np.array(0.5) * u, 0.5 * u), "np.array(0.5) * x != 0.5 * x"
    gradient = SmoothNonconvex(dim, np.zeros(dim)).gradient
    with np.errstate(over="ignore"):  # (1 + x^2)^2 overflows from |x| ~ 1e77
        for u in vectors:
            assert _same_bits(gradient(u), 2.0 * u / (1.0 + u * u) ** 2), \
                "non-convex gradient != 2x / (1 + x^2)^2"
