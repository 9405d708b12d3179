import math

import numpy as np
import pytest

from nonstat_opt import NoiseSchedule, Oracle, make_quadratic

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
