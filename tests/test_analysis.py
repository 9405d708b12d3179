import math

import numpy as np
import pytest

from nonstat_opt import (NoiseSchedule, RunRecord, adaptive_bound,
                         bound_constant, bound_idealized, bound_report,
                         classify_regime, fit_slope, regret_from_run,
                         stationarity_bound, suboptimality_bound)
from nonstat_opt.analysis import (REGIME_BEATS_CONSTANT_ONLY,
                                  REGIME_MATCHES_IDEALIZED,
                                  adaptive_stationarity_bound)


class TestBaselineBounds:
    def test_constant_flat_schedule(self):
        assert bound_constant(1.0, NoiseSchedule.constant(1.0, 100)) == \
            pytest.approx(0.2, rel=1e-12)

    def test_constant_two_levels(self):
        assert bound_constant(1.0, NoiseSchedule.custom([3.0, 4.0])) == \
            pytest.approx(5.0, rel=1e-12)

    def test_constant_matches_direct_summation(self):
        sched = NoiseSchedule.piecewise_linear(100, 1.0)
        direct = math.sqrt(sum(sched.level(k) ** 2 for k in range(1, 101)))
        assert bound_constant(1.0, sched) == pytest.approx(2 * direct / 100,
                                                           rel=1e-12)

    def test_idealized_equals_constant_on_flat(self):
        sched = NoiseSchedule.constant(1.0, 100)
        assert bound_idealized(1.0, sched) == pytest.approx(0.2, rel=1e-12)

    def test_idealized_two_levels(self):
        assert bound_idealized(1.0, NoiseSchedule.custom([1.0, 2.0])) == \
            pytest.approx(2 * math.sqrt(2) / 1.5, rel=1e-12)

    def test_idealized_strictly_better_on_ramp(self):
        sched = NoiseSchedule.piecewise_linear(100, 1.0)
        assert bound_idealized(1.0, sched) < bound_constant(1.0, sched)

    def test_jensen_ordering_on_random_schedules(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            T = int(rng.integers(2, 60))
            levels = np.exp(rng.uniform(-3, 3, size=T))
            sched = NoiseSchedule.custom(levels)
            bc, bi = bound_constant(1.0, sched), bound_idealized(1.0, sched)
            assert bi <= bc * (1 + 1e-12)

    def test_rate_jensen_comparison(self):
        # harmonic-mean level never exceeds the root-mean-square level
        rng = np.random.default_rng(2)
        for _ in range(100):
            levels = np.exp(rng.uniform(-2, 2, size=30))
            harmonic = levels.size / np.sum(1.0 / levels)
            rms = math.sqrt(float(np.mean(levels ** 2)))
            assert harmonic <= rms * (1 + 1e-12)


class TestGeneralBound:
    def test_direct_evaluation(self):
        sched = NoiseSchedule.constant(1.0, 100)
        etas = np.full(100, 0.1)
        assert suboptimality_bound(1.0, sched, etas) == pytest.approx(0.2,
                                                                      rel=1e-12)

    def test_constant_substitution_reproduces_tuned_rate(self):
        sched = NoiseSchedule.piecewise_linear(50, 0.5)
        radius = 2.0
        eta = radius / math.sqrt(float(np.sum(sched.levels() ** 2)))
        etas = np.full(50, eta)
        assert suboptimality_bound(radius, sched, etas) == \
            pytest.approx(bound_constant(radius, sched), rel=1e-12)

    def test_idealized_substitution_reproduces_idealized_rate(self):
        sched = NoiseSchedule.piecewise_linear(50, 0.5)
        radius = 2.0
        etas = radius / (math.sqrt(50) * sched.levels())
        assert suboptimality_bound(radius, sched, etas) == \
            pytest.approx(bound_idealized(radius, sched), rel=1e-12)

    def test_tuned_constant_step_minimizes_the_bound(self):
        sched = NoiseSchedule.piecewise_linear(60, 0.4)
        radius = 1.5
        eta_star = radius / math.sqrt(float(np.sum(sched.levels() ** 2)))
        best = suboptimality_bound(radius, sched, np.full(60, eta_star))
        for factor in (0.25, 0.5, 0.9, 1.1, 2.0, 4.0):
            other = suboptimality_bound(radius, sched, np.full(60, factor * eta_star))
            assert best <= other * (1 + 1e-12)


class TestAdaptiveBound:
    def test_zero_correction_flat_schedule(self):
        sched = NoiseSchedule.constant(1.0, 100)
        # harmonic sum is T, so the bound is constant * 2R/sqrt(T)
        assert adaptive_bound(1.0, sched, 0.0, 4.0) == pytest.approx(0.8,
                                                                     rel=1e-12)

    def test_monotone_in_correction(self):
        sched = NoiseSchedule.piecewise_linear(100, 0.3)
        values = [adaptive_bound(1.0, sched, m, 32.0) for m in (0.0, 0.5, 2.0, 50.0)]
        assert values == sorted(values)

    def test_envelope_against_idealized(self):
        sched = NoiseSchedule.piecewise_linear(10_000, 0.05)
        m = 1.5
        bound = adaptive_bound(1.0, sched, m, 4.0)
        envelope = 4.0 * (1 + m / sched.min_level()) * bound_idealized(1.0, sched)
        assert bound <= envelope * (1 + 1e-12)

    def test_selectable_constants_scale_linearly(self):
        sched = NoiseSchedule.piecewise_linear(100, 0.3)
        b4 = adaptive_bound(1.0, sched, 1.0, 4.0)
        assert adaptive_bound(1.0, sched, 1.0, 32.0) == pytest.approx(8 * b4)
        assert adaptive_bound(1.0, sched, 1.0, 12.0) == pytest.approx(3 * b4)

    @pytest.mark.parametrize("bound", [adaptive_bound, adaptive_stationarity_bound])
    @pytest.mark.parametrize("level, m", [(0.0, 0.0), (1.0, -0.5)],
                             ids=["zero-level-and-m", "negative-m"])
    def test_degenerate_correction_rejected(self, bound, level, m):
        # both rates divide by sum 1/(level_k + m); the nonconvex one used to
        # return 0.0 on a zero harmonic term and accept m < 0
        args = (1.0,) if bound is adaptive_bound else (1.0, 2.0)
        with pytest.raises(ValueError):
            bound(*args, NoiseSchedule.constant(level, 10), m)


class TestRegimes:
    def test_flat_schedule_matches_idealized(self):
        assert classify_regime(NoiseSchedule.constant(1.0, 100)) == \
            REGIME_MATCHES_IDEALIZED

    def test_small_alpha_matches_idealized(self):
        sched = NoiseSchedule.piecewise_linear(10_000, 0.05)
        assert classify_regime(sched) == REGIME_MATCHES_IDEALIZED

    def test_large_alpha_beats_constant_only(self):
        sched = NoiseSchedule.piecewise_linear(10_000, 0.3)
        assert classify_regime(sched) == REGIME_BEATS_CONSTANT_ONLY

    def test_monotone_transition_in_alpha(self):
        T = 10_000
        labels = [classify_regime(NoiseSchedule.piecewise_linear(T, a))
                  for a in (0.0, 0.05, 0.10, 0.12, 0.3, 0.8)]
        # once the label leaves matches-idealized it never returns
        first_other = next((i for i, lab in enumerate(labels)
                            if lab != REGIME_MATCHES_IDEALIZED), len(labels))
        assert all(lab != REGIME_MATCHES_IDEALIZED
                   for lab in labels[first_other:])
        assert labels[0] == REGIME_MATCHES_IDEALIZED
        assert labels[-1] == REGIME_BEATS_CONSTANT_ONLY

    def test_report_is_consistent(self):
        sched = NoiseSchedule.piecewise_linear(1000, 0.2)
        report = bound_report(1.0, sched, m=0.5)
        assert report.idealized_bound <= report.constant_bound


class TestSlopeFit:
    def test_exact_power_law(self):
        fit = fit_slope([(100, 0.1), (10_000, 0.01)])
        assert fit.slope == pytest.approx(-0.5, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_flat_metrics(self):
        fit = fit_slope([(10, 2.0), (100, 2.0), (1000, 2.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_noisy_power_law_recovers_exponent(self):
        rng = np.random.default_rng(3)
        ts = np.logspace(2, 5, 5)
        metrics = ts ** -0.75 * np.exp(rng.normal(0, 0.01, size=ts.size))
        fit = fit_slope(list(zip(ts, metrics)))
        assert -0.80 <= fit.slope <= -0.70

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_slope([(100, 1.0)])
        with pytest.raises(ValueError):
            fit_slope([(100, 1.0), (200, -1.0)])
        with pytest.raises(ValueError):
            fit_slope([(100, 1.0), (100, 2.0)])

    def test_ratio_of_baseline_bounds_scales_as_alpha(self):
        # constant/idealized rate ratio grows like T^alpha on the ramp model
        alpha = 0.4
        points = []
        for T in (1000, 3000, 10_000, 30_000, 100_000):
            sched = NoiseSchedule.piecewise_linear(T, alpha)
            points.append((T, bound_constant(1.0, sched)
                           / bound_idealized(1.0, sched)))
        fit = fit_slope(points)
        assert abs(fit.slope - alpha) <= 0.05


class TestRegretFromRun:
    @staticmethod
    def _record(trace, kind="second-moment"):
        return RunRecord(policy="adaptive", seed=0, horizon=len(trace),
                         stepsizes=np.ones(len(trace)),
                         estimator_trace=np.asarray(trace, dtype=float),
                         estimator_kind=kind)

    def test_hand_trace(self):
        sched = NoiseSchedule.custom([1.0, 1.0])
        rec = self._record([1.0, 4.0])
        assert regret_from_run(rec, sched) == pytest.approx(3.0)

    def test_missing_trace_rejected(self):
        rec = RunRecord(policy="constant", seed=0, horizon=2,
                        stepsizes=np.ones(2))
        with pytest.raises(ValueError):
            regret_from_run(rec, NoiseSchedule.custom([1.0, 1.0]))

    def test_unsquared_kind_rejected(self):
        rec = self._record([1.0, 1.0], kind="first-moment")
        with pytest.raises(ValueError):
            regret_from_run(rec, NoiseSchedule.custom([1.0, 1.0]))
