import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonstat_opt import (Quadratic, make_quadratic, make_smooth_nonconvex,
                         power_iteration)


def central_difference(problem, x, h=1e-5):
    """Independent gradient check via central finite differences."""
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (problem.value(x + step) - problem.value(x - step)) / (2 * h)
    return grad


class TestQuadratic:
    def test_half_squared_norm_case(self):
        # A = sqrt(2) * I with two rows makes f(x) = ||x||^2 / 2 exactly.
        A = math.sqrt(2.0) * np.eye(2)
        prob = Quadratic(A, np.zeros(2), np.ones(2))
        x = np.array([3.0, 4.0])
        assert prob.value(x) == pytest.approx(12.5, rel=1e-12)
        np.testing.assert_allclose(prob.gradient(x), x, rtol=1e-12)

    def test_gradient_vanishes_at_minimizer(self):
        prob = make_quadratic(seed=5, dim=8, n=30)
        assert np.abs(prob.gradient(prob.x_star)).max() <= 1e-10
        assert prob.f_star == 0.0
        assert prob.value(prob.x_star) == 0.0

    def test_radius_is_exact_by_construction(self):
        prob = make_quadratic(seed=5, dim=8, n=30, radius=2.5)
        assert prob.radius == pytest.approx(2.5, rel=1e-12)

    def test_power_iteration_matches_dense_eigensolve(self):
        for seed in (0, 1, 2):
            prob = make_quadratic(seed=seed, dim=3, n=12)
            dense = float(np.linalg.eigvalsh(prob.hessian).max())
            assert prob.L == pytest.approx(dense, rel=1e-6)

    def test_power_iteration_standalone(self):
        rng = np.random.default_rng(9)
        B = rng.standard_normal((6, 6))
        H = B @ B.T
        assert power_iteration(H) == pytest.approx(
            float(np.linalg.eigvalsh(H).max()), rel=1e-6)

    @pytest.mark.parametrize("scale", [1e70, 1e80])
    def test_power_iteration_at_a_huge_scale(self, scale):
        """Above ~1e154 the first product's squared norm overflowed and L read 0."""
        A = scale * np.random.default_rng(0).standard_normal((6, 3))
        H = A.T @ A / 6
        assert power_iteration(H) == pytest.approx(
            float(np.linalg.eigvalsh(H).max()), rel=1e-9)

    def test_power_iteration_takes_the_unscaled_steps(self):
        """Below the overflow range the power-of-two scaling moves no bit of L:
        each result equals the unscaled iteration's, written out here."""
        def unscaled(matrix):
            v = np.random.default_rng(12345).standard_normal(matrix.shape[0])
            v /= np.linalg.norm(v)
            lam, w = 0.0, matrix @ v
            for _ in range(10_000):
                v = w / np.linalg.norm(w)
                w = matrix @ v
                new_lam = float(v @ w)
                if abs(new_lam - lam) <= 1e-12 * max(1.0, abs(new_lam)):
                    return new_lam
                lam = new_lam
            return lam

        rng = np.random.default_rng(1)
        for _ in range(100):
            dim = int(rng.integers(2, 12))
            B = rng.standard_normal((dim, dim)) * 10.0 ** rng.uniform(-4, 3)
            assert power_iteration(B @ B.T) == unscaled(B @ B.T)

    def test_power_iteration_of_zero_is_zero(self):
        assert power_iteration(np.zeros((3, 3))) == 0.0

    def test_suboptimality_equals_quadratic_form_and_is_nonnegative(self):
        prob = make_quadratic(seed=2, dim=6, n=24)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = prob.x_star + rng.standard_normal(6)
            d = x - prob.x_star
            gap = prob.value(x) - prob.f_star
            assert gap >= 0.0
            assert gap == pytest.approx(0.5 * d @ (prob.hessian @ d), rel=1e-10)

    def test_rejects_underdetermined(self):
        with pytest.raises(ValueError):
            make_quadratic(seed=0, dim=5, n=4)

    def test_conditioned_spectrum(self):
        prob = make_quadratic(seed=0, dim=10, n=20, cond=1e4)
        eigs = np.linalg.eigvalsh(prob.hessian)
        assert eigs.max() == pytest.approx(1.0, rel=1e-8)
        assert eigs.min() == pytest.approx(1e-4, rel=1e-6)
        with pytest.raises(ValueError):
            make_quadratic(seed=0, dim=4, n=8, cond=0.5)


class TestSmoothNonconvex:
    def test_global_minimum_at_origin(self):
        prob = make_smooth_nonconvex(4)
        origin = np.zeros(4)
        assert prob.value(origin) == 0.0
        np.testing.assert_array_equal(prob.gradient(origin), origin)

    def test_one_dimensional_point(self):
        prob = make_smooth_nonconvex(1)
        x = np.array([1.0])
        assert prob.value(x) == pytest.approx(0.5, rel=1e-15)
        # f'(t) = 2t / (1 + t^2)^2 evaluated at 1
        assert prob.gradient(x)[0] == pytest.approx(0.5, rel=1e-15)

    def test_finite_difference_spot_check(self):
        prob = make_smooth_nonconvex(2)
        x = np.array([0.3, -1.7])
        fd = central_difference(prob, x)
        np.testing.assert_allclose(prob.gradient(x), fd, rtol=1e-5)

    def test_smoothness_constant_two(self):
        prob = make_smooth_nonconvex(5)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(-4, 4, size=5)
            y = rng.uniform(-4, 4, size=5)
            lhs = np.linalg.norm(prob.gradient(x) - prob.gradient(y))
            assert lhs <= 2.0 * np.linalg.norm(x - y) * (1 + 1e-12)


@pytest.mark.parametrize("factory", [
    lambda: make_quadratic(seed=11, dim=7, n=21),
    lambda: make_smooth_nonconvex(7, seed=11),
])
def test_gradient_matches_finite_differences_everywhere(factory):
    prob = factory()
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = prob.x_star + rng.uniform(-2, 2, size=prob.dim)
        fd = central_difference(prob, x)
        analytic = prob.gradient(x)
        denom = max(np.linalg.norm(fd), 1e-8)
        assert np.linalg.norm(analytic - fd) / denom <= 1e-5


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 12), extra_rows=st.integers(0, 12),
       seed=st.integers(0, 2 ** 32 - 1),
       scales=st.tuples(st.floats(-60.0, 60.0), st.floats(-100.0, 100.0),
                        st.floats(-100.0, 100.0)),
       radius=st.sampled_from([0.0, 0.5, 3.0]), cond=st.sampled_from([None, 1e4]))
def test_every_quadratic_is_at_its_optimum(dim, extra_rows, seed, scales, radius,
                                           cond):
    """A quadratic sets b = A x_star, so over shapes n >= d, entries of A from
    1e-60 to 1e60 and of x_star and the start from 1e-100 to 1e100, f* and
    f(x_star) are 0 and the gradient at x_star is 0, with ==. Both factories
    at radius 0 start at x_star bit for bit."""
    rng = np.random.default_rng(seed)
    a_scale, x_scale, start_scale = (10.0 ** e for e in scales)
    A = a_scale * rng.standard_normal((dim + extra_rows, dim))
    x_star = x_scale * rng.standard_normal(dim)
    prob = Quadratic(A, x_star, start_scale * rng.standard_normal(dim))
    assert prob.f_star == 0.0
    assert prob.value(prob.x_star) == 0.0
    assert np.all(prob.gradient(prob.x_star) == 0.0)

    for made in (make_quadratic(seed % 1000, dim, dim + extra_rows, radius, cond),
                 make_smooth_nonconvex(dim, radius, seed % 1000)):
        assert made.radius == pytest.approx(radius, rel=1e-12)
        if radius == 0.0:
            assert made.start.tobytes() == made.x_star.tobytes()
            assert made.radius == 0.0
