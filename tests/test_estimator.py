import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonstat_opt import (FirstMomentEMA, NoiseSchedule, PowerEMA,
                         SecondMomentEMA, SquaredNorms, VarianceEMA,
                         WindowAverage, default_beta, regret, regret_bound)


def mean_norm_gaussian(dim: int, total_std: float) -> float:
    """E||g|| for g with iid N(0, total_std^2/dim) coordinates (chi law)."""
    s = total_std / math.sqrt(dim)
    return s * math.sqrt(2.0) * math.gamma((dim + 1) / 2) / math.gamma(dim / 2)


class TestSecondMomentEMA:
    def test_initialize_with_squared_norm(self):
        est = SecondMomentEMA(0.9)
        est.initialize(np.array([3.0, 4.0]))
        assert est.value == 25.0
        est.initialize(np.zeros(2))
        assert est.value == 0.0

    def test_single_update(self):
        est = SecondMomentEMA(0.9)
        est.value = 4.0
        est.update(np.array([3.0, 0.0]))
        assert est.value == pytest.approx(4.5, rel=1e-15)

    def test_fixed_point(self):
        est = SecondMomentEMA(0.7)
        est.value = 9.0
        est.update(np.array([3.0, 0.0]))
        assert est.value == pytest.approx(9.0, rel=1e-15)

    def test_constant_stream_closed_form(self):
        # after n updates with constant sample c: value = c + beta^n (v0 - c)
        beta, v0, c, n = 0.8, 5.0, 2.0, 10
        est = SecondMomentEMA(beta)
        est.value = v0
        g = np.array([math.sqrt(c)])
        for _ in range(n):
            est.update(g)
        assert est.value == pytest.approx(c + beta ** n * (v0 - c), rel=1e-12)

    def test_initialize_is_unbiased_monte_carlo(self):
        rng = np.random.default_rng(4)
        est = SecondMomentEMA(0.9)
        acc = 0.0
        n = 100_000
        for _ in range(n):
            est.initialize(rng.standard_normal(2) / math.sqrt(2))
            acc += est.value
        assert acc / n == pytest.approx(1.0, rel=0.03)

    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(min_value=0, max_value=1e6),
           beta=st.floats(min_value=1e-6, max_value=1 - 1e-6),
           coord=st.floats(min_value=-1e3, max_value=1e3))
    def test_update_is_convex_combination(self, value, beta, coord):
        est = SecondMomentEMA(beta)
        est.value = value
        g = np.array([coord])
        sample = float(g @ g)
        est.update(g)
        lo, hi = min(value, sample), max(value, sample)
        assert lo - 1e-9 * (1 + hi) <= est.value <= hi + 1e-9 * (1 + hi)

    def test_steady_state_contraction(self):
        beta, v0, c, eps = 0.9, 10.0, 1.0, 1e-3
        steps = math.ceil(math.log(eps) / math.log(beta))
        est = SecondMomentEMA(beta)
        est.value = v0
        for _ in range(steps):
            est.update(np.array([1.0]))
        assert abs(est.value - c) <= eps * abs(v0 - c)

    def test_rejects_bad_beta(self):
        for beta in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                SecondMomentEMA(beta)


class TestVarianceEMA:
    def test_half_squared_difference_sample(self):
        est = VarianceEMA(1e-12)  # beta ~ 0: value becomes the raw sample
        est.value = 0.0
        est.update(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert est.value == pytest.approx(1.0, rel=1e-9)

    def test_identical_pair_just_decays(self):
        est = VarianceEMA(0.6)
        est.value = 2.0
        g = np.array([1.0, 2.0])
        est.update(g, g)
        assert est.value == pytest.approx(0.6 * 2.0, rel=1e-15)

    def test_initialize_from_pair(self):
        est = VarianceEMA(0.9)
        est.initialize(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert est.value == pytest.approx(1.0, rel=1e-15)


class TestFirstMomentEMA:
    def test_single_update(self):
        est = FirstMomentEMA(0.5)
        est.value = 1.0
        est.update(np.array([3.0, 0.0]))
        assert est.value == pytest.approx(2.0, rel=1e-15)

    def test_fixed_point(self):
        est = FirstMomentEMA(0.3)
        est.value = 3.0
        est.update(np.array([0.0, 3.0]))
        assert est.value == pytest.approx(3.0, rel=1e-15)

    def test_steady_state_matches_chi_mean(self):
        rng = np.random.default_rng(5)
        dim, sigma = 2, 1.0
        est = FirstMomentEMA(0.999)
        est.initialize(rng.standard_normal(dim) * sigma / math.sqrt(dim))
        acc, n, burn = 0.0, 60_000, 10_000
        for i in range(n + burn):
            est.update(rng.standard_normal(dim) * sigma / math.sqrt(dim))
            if i >= burn:
                acc += est.value
        assert acc / n == pytest.approx(mean_norm_gaussian(dim, sigma), rel=0.03)


class TestPowerEMA:
    def test_p2_recursion_equals_second_moment_ema(self):
        rng = np.random.default_rng(6)
        a, b = PowerEMA(0.9, 2.0), SecondMomentEMA(0.9)
        g0 = rng.standard_normal(3)
        a.initialize(g0)
        b.initialize(g0)
        for _ in range(50):
            g = rng.standard_normal(3)
            a.update(g)
            b.update(g)
            assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            PowerEMA(0.9, 0.0)


class TestWindowAverage:
    def test_two_sample_window(self):
        est = WindowAverage(2)
        est.push_sample(1.0)
        est.push_sample(3.0)
        assert est.value == 2.0

    def test_width_one_tracks_last_sample(self):
        est = WindowAverage(1)
        for s in (5.0, 0.25, 7.0):
            est.push_sample(s)
            assert est.value == s

    def test_rolls_off_old_samples(self):
        est = WindowAverage(3)
        for s in (1.0, 2.0, 3.0, 4.0):
            est.push_sample(s)
        assert est.value == pytest.approx(3.0, rel=1e-15)

    def test_update_uses_squared_norm(self):
        est = WindowAverage(2)
        est.initialize(np.array([3.0, 4.0]))
        assert est.value == 25.0
        with pytest.raises(ValueError):
            est.push_sample(-1.0)
        with pytest.raises(ValueError):
            WindowAverage(0)

    @settings(max_examples=200, deadline=None)
    @given(width=st.sampled_from([1, 3, 8, 100]),
           pushes=st.lists(st.floats(min_value=1e-300, max_value=1e300)
                           | st.sampled_from([0.0, 5e-324]),
                           min_size=1, max_size=300))
    def test_value_is_the_exact_mean_of_the_window(self, width, pushes):
        est = WindowAverage(width)
        for i, s in enumerate(pushes):
            est.push_sample(s)
            window = pushes[max(0, i + 1 - width):i + 1]
            assert est.value == math.fsum(window) / len(window)

    @pytest.mark.parametrize("pushes, values", [
        ([math.inf, 1.0, 2.0], [math.inf, math.inf, 1.5]),
        ([math.nan, 1.0, 2.0], [math.nan, math.nan, 1.5]),
        ([math.inf, math.nan, 1.0], [math.inf, math.nan, math.nan]),
        ([1e308, 1e308], [1e308, math.inf]),   # the sum rounds above the float range
    ], ids=["inf", "nan", "inf-then-nan", "overflow"])
    def test_non_finite_samples_leave_the_window(self, pushes, values):
        est = WindowAverage(2)
        for s, expected in zip(pushes, values):
            est.push_sample(s)
            assert est.value == expected or (math.isnan(est.value) and math.isnan(expected))

    def test_initialize_starts_a_new_window(self):
        est = WindowAverage(3)
        for s in (math.nan, math.inf, 1e308, 7.0):
            est.push_sample(s)
        est.initialize(np.array([3.0, 4.0]))
        assert est.value == 25.0
        est.push_sample(1.0)
        assert est.value == 13.0


class TestDenominator:
    """denominator(m) is m_hat + m, m_hat being the estimate in norm units."""

    @pytest.mark.parametrize("make", [lambda: SecondMomentEMA(0.9),
                                      lambda: VarianceEMA(0.9),
                                      lambda: WindowAverage(3)],
                             ids=["second-moment", "variance", "window"])
    def test_squared_kinds_take_the_root(self, make):
        est = make()
        est.value = 9.0
        assert est.denominator(0.5) == 3.5
        assert isinstance(est, SquaredNorms)

    def test_first_moment_is_already_a_norm(self):
        est = FirstMomentEMA(0.9)
        est.value = 3.0
        assert est.denominator(0.5) == 3.5
        assert not isinstance(est, SquaredNorms)

    def test_pnorm_adds_m_to_the_power_p(self):
        est = PowerEMA(0.9, 3.0)
        est.value = 19.0  # 19 + 2^3 = 3^3
        assert est.denominator(2.0) == pytest.approx(3.0, rel=1e-15)
        assert not isinstance(est, SquaredNorms)


# -- each kind against its formulas written out -----------------------------
# Each kind's sample, recurrence and denominator as its class stated them before
# the EMA kinds shared ``_EMA``'s recurrence and each sample was written once.
# The window's reference is its documented value, fsum(window) / len(window).

class WrittenSecondMoment:
    def __init__(self, beta, p, width):
        self.beta = beta

    def initialize(self, g):
        self.value = float(g @ g)

    def update(self, g):
        self.value = self.beta * self.value + (1.0 - self.beta) * float(g @ g)

    def denominator(self, m):
        return math.sqrt(self.value) + m


class WrittenFirstMoment(WrittenSecondMoment):
    def initialize(self, g):
        self.value = float(np.linalg.norm(g))

    def update(self, g):
        self.value = self.beta * self.value + (1.0 - self.beta) * float(np.linalg.norm(g))

    def denominator(self, m):
        return self.value + m


class WrittenVariance(WrittenSecondMoment):
    @staticmethod
    def _sample(g, g2):
        d = g - g2
        return float(d @ d) / 2.0

    def initialize(self, g, g2):
        self.value = self._sample(g, g2)

    def update(self, g, g2):
        self.value = self.beta * self.value + (1.0 - self.beta) * self._sample(g, g2)


class WrittenPower(WrittenSecondMoment):
    def __init__(self, beta, p, width):
        self.beta, self.p = beta, p

    def initialize(self, g):
        self.value = float(np.linalg.norm(g) ** self.p)

    def update(self, g):
        s = float(np.linalg.norm(g) ** self.p)
        self.value = self.beta * self.value + (1.0 - self.beta) * s

    def denominator(self, m):
        return float((self.value + np.float64(m) ** self.p) ** (1.0 / self.p))


class WrittenWindow(WrittenSecondMoment):
    def __init__(self, beta, p, width):
        self.width = width

    def initialize(self, g):
        self.samples = []
        self.update(g)

    def update(self, g):
        self.samples.append(float(g @ g))
        window = self.samples[-self.width:]
        self.value = math.fsum(window) / len(window)


WRITTEN_OUT = {
    "second-moment": (lambda beta, p, width: SecondMomentEMA(beta), WrittenSecondMoment),
    "first-moment": (lambda beta, p, width: FirstMomentEMA(beta), WrittenFirstMoment),
    "variance": (lambda beta, p, width: VarianceEMA(beta), WrittenVariance),
    "pnorm": (lambda beta, p, width: PowerEMA(beta, p), WrittenPower),
    "window": (lambda beta, p, width: WindowAverage(width), WrittenWindow),
}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(WRITTEN_OUT)), dim=st.integers(1, 50),
       draws=st.lists(st.tuples(st.integers(0, 2 ** 32 - 1), st.floats(-150.0, 150.0)),
                      min_size=1, max_size=30),
       beta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       p=st.floats(0.25, 4.0), m=st.floats(0.0, 1e150), width=st.integers(1, 10))
def test_each_kind_gives_its_written_out_bits(kind, dim, draws, beta, p, m, width):
    """Over gradient streams of magnitudes 1e-150 to 1e150, every kind's value
    and denominator(m) equal its written-out formulas' with ==, after
    initialize and after every update; for the first moment that is also
    numpy's norm ** 1.0 == norm."""
    build, written = WRITTEN_OUT[kind]
    est, ref = build(beta, p, width), written(beta, p, width)
    size = 2 if kind == "variance" else 1
    with np.errstate(over="ignore"):  # a huge norm ** p or m ** p is inf on both sides
        for step, (seed, exponent) in enumerate(draws):
            gs = np.random.default_rng(seed).uniform(-1.0, 1.0, (size, dim)) * 10.0 ** exponent
            for obj in (est, ref):
                (obj.initialize if step == 0 else obj.update)(*gs)
            assert est.value == ref.value
            assert est.denominator(m) == ref.denominator(m)


class TestDefaultBeta:
    def test_values(self):
        assert default_beta(1000) == pytest.approx(0.98, rel=1e-12)
        assert default_beta(8) == pytest.approx(0.5, rel=1e-12)
        assert default_beta(3) == pytest.approx(1 - 2 * 3 ** (-2 / 3), rel=1e-12)

    def test_rejects_tiny_horizons(self):
        for T in (0, 1, 2):
            with pytest.raises(ValueError):
                default_beta(T)


class TestRegret:
    def test_identical_sequences(self):
        assert regret([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_swapped_pair(self):
        assert regret([1.0, 2.0], [2.0, 1.0]) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            regret([1.0], [1.0, 2.0])

    def test_bound_anchor_value(self):
        # 2 (4 + 1) * 1000^(2/3) * ln(1000^(2/3)) with M = 1, D^2 = 4
        assert regret_bound(1.0, 4.0, 1000) == pytest.approx(4605.2, abs=0.5)


def test_noise_free_bias_chain():
    # Feeding exact squared levels, the estimation error at k is bounded by
    # the geometric mixture of past level changes.
    T, beta = 200, default_beta(200)
    sched = NoiseSchedule.piecewise_linear(T, 0.5)
    sq = sched.levels() ** 2
    est = SecondMomentEMA(beta)
    est.value = sq[0]
    for k in range(1, T + 1):
        chain = sum(beta ** (k - 1 - j) * abs(sq[j - 1] - sq[j])
                    for j in range(1, k))
        assert abs(est.value - sq[k - 1]) <= chain + 1e-12
        est.value = beta * est.value + (1 - beta) * sq[k - 1]
