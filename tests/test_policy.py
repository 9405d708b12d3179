import math
import warnings

import numpy as np
import pytest

from nonstat_opt import (AdaptiveStep, FirstMomentEMA, NoiseSchedule,
                         PairedAdaptiveStep, PowerEMA, SecondMomentEMA,
                         VarianceEMA, WindowAverage, adaptive_defaults,
                         constant_stepsize, first_moment_defaults,
                         idealized_stepsize, make_adaptive, make_quadratic,
                         make_smooth_nonconvex, make_variance_adaptive,
                         nonconvex_constant_baseline,
                         nonconvex_idealized_baseline,
                         variance_adaptive_correction, variance_m_base)


class TestConstantStepsize:
    def test_flat_schedule(self):
        assert constant_stepsize(1.0, NoiseSchedule.constant(2.0, 25)) == \
            pytest.approx(0.1, rel=1e-12)

    def test_recovers_root_t_scaling_for_unit_bound(self):
        # with all levels at the bound M = 1, eta = R / (M sqrt(T))
        assert constant_stepsize(1.0, NoiseSchedule.constant(1.0, 100)) == \
            pytest.approx(0.1, rel=1e-12)

    def test_two_point_schedule(self):
        assert constant_stepsize(2.0, NoiseSchedule.custom([3.0, 4.0])) == \
            pytest.approx(0.4, rel=1e-12)

    def test_rejects_zero_schedule(self):
        with pytest.raises(ValueError):
            constant_stepsize(1.0, NoiseSchedule.constant(0.0, 10))


class TestIdealizedStepsize:
    def test_values(self):
        assert idealized_stepsize(1.0, 100, 0.5) == pytest.approx(0.2, rel=1e-12)
        assert idealized_stepsize(1.0, 100, 1.0) == pytest.approx(0.1, rel=1e-12)

    def test_composed_with_schedule(self):
        sched = NoiseSchedule.piecewise_linear(100, 1.0)
        assert idealized_stepsize(1.0, 100, sched.level(10)) == \
            pytest.approx(10.0, rel=1e-12)

    def test_rejects_zero_level(self):
        with pytest.raises(ValueError):
            idealized_stepsize(1.0, 100, 0.0)


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
        c, _, _ = adaptive_defaults(2.0, 1.0, 400)
        assert c == pytest.approx(0.1, rel=1e-12)

    def test_correction_constant_near_e_to_nine(self):
        # T = 8103 ~ e^9: m = 2 e^-1 * 9^(1/3)
        _, m, _ = adaptive_defaults(1.0, 1.0, 8103)
        assert m == pytest.approx(1.5307, abs=1e-3)

    def test_decay(self):
        _, _, beta = adaptive_defaults(1.0, 1.0, 1000)
        assert beta == pytest.approx(0.98, rel=1e-12)

    def test_warns_below_guarantee_regime(self):
        with pytest.warns(RuntimeWarning):
            adaptive_defaults(1.0, 1.0, 100)

    def test_coefficient_override(self):
        _, m2, _ = adaptive_defaults(1.0, 1.0, 10 ** 6, m_coeff=2.0)
        _, m8, _ = adaptive_defaults(1.0, 1.0, 10 ** 6, m_coeff=8.0)
        assert m8 == pytest.approx(4 * m2, rel=1e-12)


class TestFirstMomentDefaults:
    def test_formula(self):
        T = 10 ** 6
        c, m, beta = first_moment_defaults(2.0, 1.5, T)
        assert c == pytest.approx(2.0 / 1000.0, rel=1e-12)
        assert m == pytest.approx(8 * 1.5 * T ** (-1 / 6)
                                  * math.sqrt(math.log(T)), rel=1e-12)
        assert beta == pytest.approx(1 - 2 * T ** (-2 / 3), rel=1e-12)

    def test_warns_below_regime(self):
        with pytest.warns(RuntimeWarning):
            first_moment_defaults(1.0, 1.0, 1000)


@pytest.mark.parametrize("T", [3, 1000, 10 ** 5, 1_465_238, 1_465_239, 2 * 10 ** 6])
def test_regime_warning_boundary(T):
    """Both rules share the regime 2 T^(-1/9) ln(T)^(1/3) <= 1, whose cube is
    the first-moment form 8 ln T <= T^(1/3): both warn exactly up to 1,465,238."""
    for defaults in (adaptive_defaults, first_moment_defaults):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            defaults(1.0, 1.0, T)
        assert (len(caught) == 1) == (T <= 1_465_238), (defaults.__name__, T)


class TestVarianceAdaptiveCorrection:
    def test_cap_at_boundary(self):
        m = variance_adaptive_correction(0.1, 1.0, 0.0)
        assert m == pytest.approx(0.2, rel=1e-12)
        assert 0.1 / m == pytest.approx(0.5, rel=1e-12)  # max step = 1/(2L)

    def test_additivity(self):
        assert variance_adaptive_correction(0.1, 2.0, 0.3) == \
            pytest.approx(0.7, rel=1e-12)

    def test_with_noise_base(self):
        m = variance_adaptive_correction(
            0.05, 1.0, variance_m_base(1.0, 1000, coeff=8.0))
        assert m == pytest.approx(7.173, abs=2e-3)


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
        sched = NoiseSchedule.constant(1e-6, 50)
        with pytest.warns(RuntimeWarning):
            policy = nonconvex_idealized_baseline(prob, sched)
        etas = [policy.stepsize(k) for k in range(1, 51)]
        assert max(etas) == pytest.approx(1.0 / (2 * prob.L), rel=1e-12)


class TestPolicyObjects:
    def test_emitted_stepsizes_positive_and_finite(self):
        T = 50
        sched = NoiseSchedule.piecewise_linear(T, 0.5)
        prob = make_quadratic(seed=0, dim=4, n=8)
        with pytest.warns(RuntimeWarning):
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
