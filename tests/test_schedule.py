import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nonstat_opt import NoiseSchedule


class TestPiecewiseLinear:
    def test_plateau_value(self):
        s = NoiseSchedule.piecewise_linear(100, 1.0)
        assert s.level(50) == 1.0

    def test_floor_value(self):
        s = NoiseSchedule.piecewise_linear(100, 1.0)
        assert s.level(10) == pytest.approx(0.01, rel=1e-15)

    def test_upward_ramp_value(self):
        # gamma = 5(1 - 10^-2)/100 = 0.0495; level(30) = gamma*(30-40) + 1
        s = NoiseSchedule.piecewise_linear(100, 1.0)
        assert s.level(30) == pytest.approx(0.505, rel=1e-15)

    def test_alpha_zero_is_flat(self):
        s = NoiseSchedule.piecewise_linear(50, 0.0)
        assert all(s.level(k) == 1.0 for k in range(1, 51))

    def test_extremes(self):
        s = NoiseSchedule.piecewise_linear(100, 0.7)
        assert s.max_level() == 1.0
        assert s.min_level() == pytest.approx(100 ** -0.7, rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(chunks=st.integers(min_value=1, max_value=100),
           alpha=st.floats(min_value=0.0, max_value=2.0))
    def test_reflection_symmetry(self, chunks, alpha):
        # With the horizon divisible by 5 the profile is a reflection around
        # T/2: level(k) == level(T - k) for every interior k. Where a ramp
        # endpoint meets the floor the two sides compute the same quantity
        # along different float paths, hence the tiny absolute tolerance.
        T = 5 * chunks
        levels = NoiseSchedule.piecewise_linear(T, alpha).levels()
        ks = np.arange(1, T)
        np.testing.assert_allclose(levels[ks - 1], levels[T - ks - 1],
                                   rtol=1e-12, atol=1e-14)

    def test_rejects_small_horizon_and_bad_k(self):
        with pytest.raises(ValueError):
            NoiseSchedule.piecewise_linear(4, 0.5)
        s = NoiseSchedule.piecewise_linear(10, 0.5)
        with pytest.raises(ValueError):
            s.level(0)
        with pytest.raises(ValueError):
            s.level(11)

    def test_all_levels_positive(self):
        for alpha in (0.0, 0.3, 1.0, 2.0):
            s = NoiseSchedule.piecewise_linear(23, alpha)
            assert s.levels().min() > 0


class TestAdversarialSpike:
    def test_spike_at_midpoint(self):
        s = NoiseSchedule.adversarial_spike(100, 0.3)
        assert s.level(50) == 1.0

    def test_floor_elsewhere(self):
        s = NoiseSchedule.adversarial_spike(100, 0.3)
        assert s.level(7) == pytest.approx(100 ** -0.3, rel=1e-15)

    def test_alpha_zero_is_flat(self):
        s = NoiseSchedule.adversarial_spike(100, 0.0)
        assert s.level(7) == 1.0 and s.level(50) == 1.0

    def test_rejects_horizon_below_two(self):
        with pytest.raises(ValueError):
            NoiseSchedule.adversarial_spike(1, 0.3)

    def test_variation_is_two_jumps(self):
        s = NoiseSchedule.adversarial_spike(100, 0.3)
        summ = s.summary()
        assert summ.max_level == 1.0
        assert summ.total_variation_sq == pytest.approx(2 * (1 - 100 ** -0.6),
                                                        rel=1e-12)


class TestLevelArray:
    @pytest.mark.parametrize("make", [
        lambda: NoiseSchedule.constant(0.7, 37),
        lambda: NoiseSchedule.piecewise_linear(37, 0.42),
        lambda: NoiseSchedule.adversarial_spike(37, 0.42),
        lambda: NoiseSchedule.custom(np.linspace(0.1, 3.0, 37)),
    ], ids=["constant", "piecewise_linear", "adversarial_spike", "custom"])
    def test_scalar_matches_vector(self, make):
        s = make()
        vec = s.levels()
        assert vec.shape == (s.horizon,) == (37,)
        assert all(s.level(k) == vec[k - 1] for k in range(1, 38))

    def test_levels_are_read_only(self):
        levels = NoiseSchedule.piecewise_linear(20, 0.5).levels()
        with pytest.raises(ValueError):
            levels[0] = 5.0

    def test_custom_copies_the_callers_array(self):
        values = np.array([0.5, 1.0, 2.0])
        s = NoiseSchedule.custom(values)
        values[0] = 9.0
        assert s.level(1) == 0.5 and s.levels()[0] == 0.5
        assert s.levels() is not values


class TestSummaries:
    def test_constant_summary(self):
        summ = NoiseSchedule.constant(2.0, 10).summary()
        assert (summ.max_level, summ.min_level, summ.total_variation_sq) == (2, 2, 0)
        assert summ.within_variation_bound

    def test_piecewise_summary(self):
        summ = NoiseSchedule.piecewise_linear(100, 1.0).summary()
        assert summ.max_level == 1.0
        assert summ.min_level == pytest.approx(0.01, rel=1e-15)
        # one monotone rise and one monotone fall of the squared level
        assert summ.total_variation_sq == pytest.approx(2 * (1 - 1e-4), rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(min_value=1e-3, max_value=1e3),
                           min_size=1, max_size=40))
    # numpy's array square gives 615946.8788461714 here, x ** 2 ...715
    @example(values=[1.0, 784.823469861963])
    def test_variation_matches_naive_recomputation(self, values):
        s = NoiseSchedule.custom(values)
        total = 0.0
        for k in range(1, s.horizon):
            total += abs(s.level(k) ** 2 - s.level(k + 1) ** 2)
        assert s.total_variation_sq() == total

    def test_max_min_ratio_drives_regimes(self):
        for T, alpha in ((100, 0.5), (1000, 0.25)):
            s = NoiseSchedule.piecewise_linear(T, alpha)
            assert s.max_level() / s.min_level() == pytest.approx(T ** alpha,
                                                                  rel=1e-12)


class TestCustomSchedules:
    def test_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text("0.5\n1.25\n2.0\n", encoding="utf-8")
        s = NoiseSchedule.from_file(path)
        assert s.horizon == 3
        assert [s.level(k) for k in (1, 2, 3)] == [0.5, 1.25, 2.0]

    def test_file_rejects_nonpositive_and_garbage(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\n0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            NoiseSchedule.from_file(bad)
        bad.write_text("1.0\nnot-a-number\n", encoding="utf-8")
        with pytest.raises(ValueError):
            NoiseSchedule.from_file(bad)
        bad.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            NoiseSchedule.from_file(bad)

    def test_zero_levels_allowed_programmatically(self):
        # zero-noise schedules are a test fixture for exact-gradient paths
        s = NoiseSchedule.constant(0.0, 5)
        assert s.level(3) == 0.0
