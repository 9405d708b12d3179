import math

import numpy as np
import pytest

from nonstat_opt import (AdaptiveStep, FirstMomentEMA, NoiseSchedule,
                         PairedAdaptiveStep, PowerEMA, SecondMomentEMA,
                         VarianceEMA, WindowAverage, constant_baseline,
                         idealized_baseline, make_adaptive, make_quadratic,
                         make_smooth_nonconvex, make_variance_adaptive,
                         nonconvex_constant_baseline,
                         nonconvex_idealized_baseline, variance_m_base)


class TestConstantStepsize:
    def test_flat_schedule(self):
        assert constant_baseline(1.0, NoiseSchedule.constant(2.0, 25)).stepsize(1) == \
            pytest.approx(0.1, rel=1e-12)

    def test_recovers_root_t_scaling_for_unit_bound(self):
        # with all levels at the bound M = 1, eta = R / (M sqrt(T))
        assert constant_baseline(1.0, NoiseSchedule.constant(1.0, 100)).stepsize(1) == \
            pytest.approx(0.1, rel=1e-12)

    def test_two_point_schedule(self):
        assert constant_baseline(2.0, NoiseSchedule.custom([3.0, 4.0])).stepsize(2) == \
            pytest.approx(0.4, rel=1e-12)

    def test_rejects_zero_schedule(self):
        with pytest.raises(ValueError):
            constant_baseline(1.0, NoiseSchedule.constant(0.0, 10))


class TestIdealizedStepsize:
    def test_values(self):
        sched = NoiseSchedule.custom([0.5] * 50 + [1.0] * 50)
        policy = idealized_baseline(1.0, sched)
        assert policy.stepsize(1) == pytest.approx(0.2, rel=1e-12)
        assert policy.stepsize(100) == pytest.approx(0.1, rel=1e-12)

    def test_composed_with_schedule(self):
        sched = NoiseSchedule.piecewise_linear(100, 1.0)
        assert idealized_baseline(1.0, sched).stepsize(10) == \
            pytest.approx(10.0, rel=1e-12)

    def test_horizon_is_the_schedule_length(self):
        # a 10-level schedule at level 1 steps 1/sqrt(10) at every iteration
        policy = idealized_baseline(1.0, NoiseSchedule.constant(1.0, 10))
        for k in (1, 10):
            assert policy.stepsize(k) == pytest.approx(1 / math.sqrt(10), rel=1e-12)

    def test_rejects_zero_level(self):
        with pytest.raises(ValueError):
            idealized_baseline(1.0, NoiseSchedule.custom([1.0, 0.0]))


def adaptive_step(c, m, estimator, value):
    """The first stepsize of an adaptive policy whose estimator holds ``value``."""
    estimator.value = value
    return AdaptiveStep(c, m, estimator).stepsize(1)


class TestAdaptiveStepsize:
    def test_second_moment_kind(self):
        assert adaptive_step(0.1, 0.0, SecondMomentEMA(0.9), 4.0) == \
            pytest.approx(0.05, rel=1e-12)

    def test_correction_constant_prevents_blowup(self):
        assert adaptive_step(0.1, 0.5, SecondMomentEMA(0.9), 0.0) == \
            pytest.approx(0.2, rel=1e-12)

    def test_pnorm_kind(self):
        # estimate 3 stored as 3^p with p = 2, correction 4: (9 + 16)^(1/2) = 5
        assert adaptive_step(1.0, 4.0, PowerEMA(0.9, 2.0), 9.0) == \
            pytest.approx(0.2, rel=1e-12)

    def test_pnorm_p2_with_no_correction_matches_second_moment(self):
        rng = np.random.default_rng(0)
        for value in rng.uniform(0.01, 100.0, size=25):
            a = adaptive_step(1.0, 0.0, SecondMomentEMA(0.9), value)
            b = adaptive_step(1.0, 0.0, PowerEMA(0.9, 2.0), value)
            assert abs(a - b) <= 1e-12 * a

    def test_first_moment_kind(self):
        assert adaptive_step(1.0, 1.0, FirstMomentEMA(0.9), 3.0) == \
            pytest.approx(0.25, rel=1e-12)

    def test_degenerate_denominator_rejected(self):
        # a zero estimate with no correction, and an overflowed estimate
        for value in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="degenerate stepsize denominator"):
                adaptive_step(1.0, 0.0, SecondMomentEMA(0.9), value)

    def test_paired_policy_steps_through_the_same_rule(self):
        est = VarianceEMA(0.9)
        est.value = 4.0
        assert PairedAdaptiveStep(0.1, 0.5, est).stepsize(1) == \
            pytest.approx(0.04, rel=1e-12)
        est.value = math.inf
        with pytest.raises(ValueError, match="degenerate stepsize denominator"):
            PairedAdaptiveStep(0.1, 0.5, est).stepsize(1)


class TestAdaptiveDefaults:
    def test_numerator_scale(self):
        assert make_adaptive(2.0, 1.0, 400).c == pytest.approx(0.1, rel=1e-12)

    def test_correction_constant_near_e_to_nine(self):
        # T = 8103 ~ e^9: m = 2 e^-1 * 9^(1/3)
        assert make_adaptive(1.0, 1.0, 8103).m == pytest.approx(1.5307, abs=1e-3)

    def test_decay(self):
        assert make_adaptive(1.0, 1.0, 1000).estimator.beta == \
            pytest.approx(0.98, rel=1e-12)

    def test_coefficient_override(self):
        m2 = make_adaptive(1.0, 1.0, 10 ** 6, m_coeff=2.0).m
        m8 = make_adaptive(1.0, 1.0, 10 ** 6, m_coeff=8.0).m
        assert m8 == pytest.approx(4 * m2, rel=1e-12)


class TestFirstMomentDefaults:
    def test_formula(self):
        T = 10 ** 6
        policy = make_adaptive(2.0, 1.5, T, estimator=FirstMomentEMA)
        assert policy.c == pytest.approx(2.0 / 1000.0, rel=1e-12)
        assert policy.m == pytest.approx(8 * 1.5 * T ** (-1 / 6)
                                         * math.sqrt(math.log(T)), rel=1e-12)
        assert policy.estimator.beta == pytest.approx(1 - 2 * T ** (-2 / 3), rel=1e-12)


@pytest.mark.parametrize("T", [3, 1000, 10 ** 5, 1_465_238, 1_465_239, 2 * 10 ** 6])
def test_regime_warning_boundary(T):
    """Both rules share the regime 2 T^(-1/9) ln(T)^(1/3) <= 1, whose cube is
    the first-moment form 8 ln T <= T^(1/3): both fail it exactly up to
    1,465,238, the README's "about 1.47 million". Both rules build at every T."""
    below = T <= 1_465_238
    assert (variance_m_base(1.0, T, 2.0) > 1.0) == below
    assert (8.0 * math.log(T) > T ** (1.0 / 3.0)) == below
    for estimator in (SecondMomentEMA, FirstMomentEMA):
        assert make_adaptive(1.0, 1.0, T, estimator=estimator).m > 0


@pytest.mark.parametrize("build, message", [
    (lambda: AdaptiveStep(math.nan, 1.0, SecondMomentEMA(0.9)), "need finite c > 0"),
    (lambda: AdaptiveStep(1.0, math.inf, SecondMomentEMA(0.9)), "need finite c > 0"),
    (lambda: PairedAdaptiveStep(1.0, math.nan, VarianceEMA(0.9)), "need finite c > 0"),
    (lambda: PowerEMA(0.9, math.nan), "power p must be positive and finite"),
    (lambda: PowerEMA(0.9, math.inf), "power p must be positive and finite"),
    (lambda: make_adaptive(1.0, 1.0, 0), "horizon must be at least 3"),
    (lambda: make_adaptive(1.0, 1.0, -5, estimator=FirstMomentEMA),
     "horizon must be at least 3"),
    (lambda: make_variance_adaptive(make_quadratic(seed=0, dim=4, n=8), 1.0, 0),
     "horizon must be at least 3"),
    (lambda: make_variance_adaptive(make_quadratic(seed=0, dim=4, n=8), 1.0, -5),
     "horizon must be at least 3"),
], ids=["c-nan", "m-inf", "paired-m-nan", "p-nan", "p-inf", "adaptive-T0",
        "first-moment-T-5", "variance-T0", "variance-T-5"])
def test_non_finite_parameters_and_bad_horizons_are_value_errors(build, message):
    """A non-finite c, m or p, or a horizon below 3, is refused at construction,
    not met as an overflow at iteration 1, a ZeroDivisionError or a math
    domain error."""
    with pytest.raises(ValueError, match=message):
        build()


def variance_correction(c, L, max_level, T=1000):
    """The correction m of make_variance_adaptive with c given, on a problem
    of smoothness L (with c given, it reads only L and step_cap())."""
    problem = make_smooth_nonconvex(4, radius=1.0, seed=0)
    problem.L = L
    return make_variance_adaptive(problem, max_level, T, c=c).m


class TestVarianceAdaptiveCorrection:
    def test_cap_at_boundary(self):
        m = variance_correction(0.1, 1.0, max_level=0.0)  # m_base = 0
        assert m == pytest.approx(0.2, rel=1e-12)
        assert 0.1 / m == pytest.approx(0.5, rel=1e-12)  # max step = 1/(2L)

    def test_additivity(self):
        assert variance_correction(0.1, 2.0, max_level=1.0) == \
            pytest.approx(variance_m_base(1.0, 1000, coeff=8.0) + 0.4, rel=1e-12)

    def test_with_noise_base(self):
        assert variance_correction(0.05, 1.0, max_level=1.0) == \
            pytest.approx(7.173, abs=2e-3)


class TestNonconvexStepsizes:
    """The non-convex baselines on smooth_nonconvex (L = 2), delta = f(x_1) - f*."""

    @pytest.fixture()
    def prob(self):
        return make_smooth_nonconvex(4, radius=1.0, seed=0)

    def test_constant_formula(self, prob):
        sched = NoiseSchedule.constant(1.0, 50)
        policy = nonconvex_constant_baseline(prob, sched)
        expected = math.sqrt(2.0 * prob.initial_gap() / (prob.L * 50.0))
        assert policy.stepsize(1) == pytest.approx(expected, rel=1e-12)
        assert policy.stepsize(50) == policy.stepsize(1)

    def test_idealized_formula(self, prob):
        sched = NoiseSchedule.constant(2.0, 50)
        policy = nonconvex_idealized_baseline(prob, sched)
        expected = 0.5 * math.sqrt(2.0 * prob.initial_gap() / (prob.L * 50.0))
        assert policy.stepsize(1) == pytest.approx(expected, rel=1e-12)

    def test_noise_floor_keeps_steps_under_cap(self, prob):
        # levels >= sqrt(8 L delta / T) imply the idealized step <= 1/(2L)
        T = 50
        floor = math.sqrt(8 * prob.L * prob.initial_gap()) / math.sqrt(T)
        policy = nonconvex_idealized_baseline(prob, NoiseSchedule.constant(floor, T))
        etas = [policy.stepsize(k) for k in range(1, T + 1)]
        assert max(etas) <= 1.0 / (2 * prob.L) * (1 + 1e-12)

    def test_clipping_warns(self, prob):
        """A step the raw formula puts above 1/(2L) is clipped to step_cap()
        exactly, which is how a caller tells a clipped step."""
        sched = NoiseSchedule.constant(1e-6, 50)
        policy = nonconvex_idealized_baseline(prob, sched)
        etas = [policy.stepsize(k) for k in range(1, 51)]
        assert max(etas) == pytest.approx(1.0 / (2 * prob.L), rel=1e-12)
        assert max(etas) == prob.step_cap()


class TestPolicyObjects:
    def test_emitted_stepsizes_positive_and_finite(self):
        T = 50
        sched = NoiseSchedule.piecewise_linear(T, 0.5)
        prob = make_quadratic(seed=0, dim=4, n=8)
        policies = [
            make_adaptive(1.0, 1.0, T),
            make_adaptive(1.0, 1.0, T, estimator=FirstMomentEMA),
            make_adaptive(1.0, 1.0, T, estimator=PowerEMA, p=3.0),
            make_adaptive(1.0, 1.0, T, estimator=WindowAverage, window=5),
            make_variance_adaptive(prob, 1.0, T),
        ]
        from nonstat_opt import Oracle
        for policy in policies:
            oracle = Oracle(prob, sched, seed=1)
            policy.init(oracle, prob.start)
            for k in range(1, T + 1):
                eta = policy.stepsize(k)
                assert eta > 0 and math.isfinite(eta)
                if policy.uses_pairs:
                    policy.observe(*oracle.query_pair(prob.start, k))
                else:
                    policy.observe(oracle.query(prob.start, k))

    def test_variance_adaptive_default_scale_nonconvex(self):
        T = 1000
        prob = make_smooth_nonconvex(6, radius=1.0, seed=0)
        policy = make_variance_adaptive(prob, 1.0, T)
        expected_c = math.sqrt(2 * prob.initial_gap() / (prob.L * T))
        assert policy.c == pytest.approx(expected_c, rel=1e-12)
        assert policy.c / policy.m <= 1.0 / (2 * prob.L)
