import math

import numpy as np
import pytest

from nonstat_opt import NoiseSchedule, Oracle, make_quadratic, make_smooth_nonconvex
from nonstat_opt.oracle import _BLOCK

DIM = 4
N_SAMPLES = 100_000


@pytest.fixture(scope="module")
def quad():
    return make_quadratic(seed=1, dim=DIM, n=16)


def test_zero_noise_returns_exact_gradient(quad):
    oracle = Oracle(quad, NoiseSchedule.constant(0.0, 5), seed=0)
    x = quad.start
    np.testing.assert_array_equal(oracle.query(x, 1), quad.gradient(x))
    g1, g2 = oracle.query_pair(x, 2)
    np.testing.assert_array_equal(g1, g2)


def test_unbiased_within_five_standard_errors(quad):
    level = 0.5
    oracle = Oracle(quad, NoiseSchedule.constant(level, 10), seed=7)
    x = quad.start
    true_grad = quad.gradient(x)
    total = np.zeros(DIM)
    for _ in range(N_SAMPLES):
        total += oracle.query(x, 3)
    mean = total / N_SAMPLES
    se = (level / math.sqrt(DIM)) / math.sqrt(N_SAMPLES)
    assert np.abs(mean - true_grad).max() <= 5 * se


def test_noise_energy_matches_squared_level(quad):
    level = 0.5
    oracle = Oracle(quad, NoiseSchedule.constant(level, 10), seed=8)
    x = quad.start
    true_grad = quad.gradient(x)
    acc = 0.0
    for _ in range(N_SAMPLES):
        d = oracle.query(x, 1) - true_grad
        acc += d @ d
    assert acc / N_SAMPLES == pytest.approx(level ** 2, rel=0.03)


def test_pair_difference_estimates_twice_the_variance(quad):
    oracle = Oracle(quad, NoiseSchedule.constant(1.0, 10), seed=9)
    x = quad.start
    acc = 0.0
    for _ in range(N_SAMPLES):
        g1, g2 = oracle.query_pair(x, 1)
        d = g1 - g2
        acc += d @ d / 2.0
    assert acc / N_SAMPLES == pytest.approx(1.0, rel=0.03)


def test_pair_noises_are_uncorrelated(quad):
    oracle = Oracle(quad, NoiseSchedule.constant(1.0, 10), seed=10)
    x = quad.start
    true_grad = quad.gradient(x)
    n = 20_000
    xi1 = np.zeros((n, DIM))
    xi2 = np.zeros((n, DIM))
    for i in range(n):
        g1, g2 = oracle.query_pair(x, 1)
        xi1[i] = g1 - true_grad
        xi2[i] = g2 - true_grad
    per_coord_var = 1.0 / DIM
    corr = (xi1 * xi2).mean(axis=0) / per_coord_var
    assert np.abs(corr).max() <= 3.0 / math.sqrt(n)


def test_pair_average_halves_the_noise_energy(quad):
    oracle = Oracle(quad, NoiseSchedule.constant(1.0, 10), seed=12)
    x = quad.start
    true_grad = quad.gradient(x)
    acc = 0.0
    for _ in range(N_SAMPLES):
        g1, g2 = oracle.query_pair(x, 1)
        d = 0.5 * (g1 + g2) - true_grad
        acc += d @ d
    assert acc / N_SAMPLES == pytest.approx(0.5, rel=0.03)


class TestEffectiveSecondMoment:
    def test_matches_monte_carlo_second_moment(self, quad):
        # E||g||^2 = level^2 + ||grad f(x)||^2: the noise is unbiased
        oracle = Oracle(quad, NoiseSchedule.constant(0.8, 10), seed=13)
        x = quad.start
        grad = quad.gradient(x)
        predicted = 0.8 ** 2 + grad @ grad
        acc = 0.0
        for _ in range(N_SAMPLES):
            g = oracle.query(x, 1)
            acc += g @ g
        assert acc / N_SAMPLES == pytest.approx(predicted, rel=0.03)


def test_fourth_moment_stays_under_max_level_fourth(quad):
    # Gaussian noise: E[(||g - grad||^2 - s^2)^2] = 2 s^4 / dim <= M^4 once
    # dim >= 2, justifying the concentration assumption behind the estimator.
    level = 1.0
    oracle = Oracle(quad, NoiseSchedule.constant(level, 10), seed=14)
    x = quad.x_star
    devs = np.zeros(N_SAMPLES)
    for i in range(N_SAMPLES):
        d = oracle.query(x, 1)
        devs[i] = d @ d - level ** 2
    fourth_central = float(np.mean(devs ** 2))
    assert fourth_central == pytest.approx(2 * level ** 4 / DIM, rel=0.1)
    assert fourth_central <= level ** 4


class TestBookkeeping:
    def test_query_counting(self, quad):
        oracle = Oracle(quad, NoiseSchedule.constant(1.0, 10), seed=0)
        oracle.query(quad.start, 1)
        assert oracle.query_count == 1
        oracle.query_pair(quad.start, 2)
        assert oracle.query_count == 3

    def test_same_seed_gives_bit_identical_streams(self, quad):
        sched = NoiseSchedule.piecewise_linear(20, 0.4)
        a = Oracle(quad, sched, seed=42)
        b = Oracle(quad, sched, seed=42)
        for k in range(1, 21):
            np.testing.assert_array_equal(a.query(quad.start, k),
                                          b.query(quad.start, k))

    def test_k_out_of_range_rejected(self, quad):
        oracle = Oracle(quad, NoiseSchedule.constant(1.0, 10), seed=0)
        with pytest.raises(ValueError):
            oracle.query(quad.start, 11)


class ReferenceStream:
    """Each query's expected gradients, from its own standard_normal call on a
    generator seeded as the oracle's, scaled and added as the oracle does."""

    def __init__(self, problem, schedule, seed):
        self.problem, self.schedule = problem, schedule
        self.rng = np.random.default_rng(seed)
        self.drawn = 0

    def next(self, x, k, pair):
        d = self.problem.dim
        noise = self.rng.standard_normal(2 * d if pair else d) * (
            self.schedule.level(k) / np.sqrt(d))
        self.drawn += noise.size
        true_grad = self.problem.gradient(x)
        if pair:
            return true_grad + noise[:d], true_grad + noise[d:]
        return (true_grad + noise,)


def assert_stream(oracle, ref, calls):
    """Run (k, pair) calls at moving points; every gradient equals the reference's."""
    rng = np.random.default_rng(99)
    for k, pair in calls:
        x = rng.standard_normal(oracle.problem.dim)
        got = oracle.query_pair(x, k) if pair else (oracle.query(x, k),)
        for g, want in zip(got, ref.next(x, k, pair), strict=True):
            assert (g == want).all()
    assert oracle.query_count == ref.drawn // oracle.problem.dim


class TestBlockDraws:
    """The oracle draws its normals in blocks of _BLOCK; each query still gets
    the values a draw of its own would have given it."""

    def test_mixed_queries_across_refills(self):
        dim = 7  # divides no block, so refills fall inside a query's values
        assert _BLOCK % dim and _BLOCK % (2 * dim)
        problem = make_quadratic(seed=3, dim=dim, n=20)
        sched = NoiseSchedule.piecewise_linear(50, 0.4)
        oracle, ref = Oracle(problem, sched, 5), ReferenceStream(problem, sched, 5)
        calls = [(k % 50 + 1, k % 3 == 1) for k in range(_BLOCK // dim * 3)]
        assert_stream(oracle, ref, calls)
        assert ref.drawn > 2 * _BLOCK

    def test_dimension_above_one_block(self):
        problem = make_smooth_nonconvex(_BLOCK + _BLOCK // 2 + 1, seed=2)
        sched = NoiseSchedule.constant(0.7, 5)
        oracle, ref = Oracle(problem, sched, 6), ReferenceStream(problem, sched, 6)
        assert_stream(oracle, ref, [(1, False), (2, True), (3, False), (4, True)])

    @pytest.mark.parametrize("pair", [False, True])
    def test_out_of_range_k_consumes_nothing(self, quad, pair):
        sched = NoiseSchedule.piecewise_linear(10, 0.5)
        oracle, ref = Oracle(quad, sched, 4), ReferenceStream(quad, sched, 4)
        assert_stream(oracle, ref, [(1, False), (2, True)])
        with pytest.raises(ValueError):
            oracle.query_pair(quad.start, 11) if pair else oracle.query(quad.start, 0)
        assert oracle.query_count == 3
        assert_stream(oracle, ref, [(3, pair), (4, not pair)])
