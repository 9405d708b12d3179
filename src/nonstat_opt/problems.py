"""Benchmark objectives with known minimizers.

Both problems expose value/gradient callables plus the metadata the stepsize
rules need: the minimizer, the minimum value, the distance of the start point
from the minimizer, and a gradient-Lipschitz constant.
"""
from __future__ import annotations

import math

import numpy as np

_ONE = np.array(1.0)
_ONE.flags.writeable = False


def power_iteration(matrix: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration, from a
    fixed start (seed 12345) to a 1e-12 relative tolerance or 10,000 steps.

    The iteration runs on matrix * 2^-e, e the binary exponent of its largest
    |entry|, so no product or norm overflows. Scaling by a power of two is
    exact, so every step, and the tolerance test in the scaled units, is the
    unscaled matrix's; the result is scaled back by 2^e."""
    _, e = math.frexp(float(np.max(np.abs(matrix), initial=0.0)))
    matrix = np.ldexp(matrix, -e)
    one = math.ldexp(1.0, min(-e, 1023))  # 1.0 scaled; 1e-12 * 2^1023 passes any step
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(matrix.shape[0])
    v /= np.linalg.norm(v)
    lam, w = 0.0, matrix @ v
    for _ in range(10_000):
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        w = matrix @ v  # the Rayleigh quotient's product is the next step's w
        new_lam = float(v @ w)
        if abs(new_lam - lam) <= 1e-12 * max(one, abs(new_lam)):
            return float(np.ldexp(new_lam, e))
        lam = new_lam
    return float(np.ldexp(lam, e))


class Problem:
    """Differentiable objective with a known optimum."""

    convex: bool = False

    def __init__(self, x_star: np.ndarray, f_star: float, start: np.ndarray,
                 L: float | None):
        self.x_star = np.asarray(x_star, dtype=float)
        self.dim = self.x_star.size
        self.f_star = float(f_star)
        self.start = np.asarray(start, dtype=float)
        self.L = L
        self.radius = float(np.linalg.norm(self.start - self.x_star))

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def initial_gap(self) -> float:
        """f(start) - f*, the quantity the nonconvex stepsizes are tuned to."""
        return self.value(self.start) - self.f_star

    def step_cap(self) -> float:
        """1/(2L), the largest step the non-convex guarantees allow."""
        if self.L is None or self.L <= 0:
            raise ValueError(f"the smoothness cap 1/(2L) needs a positive L, got {self.L}")
        return 1.0 / (2.0 * self.L)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(dim={self.dim}, L={self.L})"


def _start_point(x_star: np.ndarray, radius: float, rng) -> np.ndarray:
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    u = rng.standard_normal(x_star.size)
    u /= np.linalg.norm(u)
    return x_star + radius * u


class Quadratic(Problem):
    """Least squares f(x) = ||Ax - b||^2 / (2n) with b = A x_star, so f* = 0."""

    convex = True

    def __init__(self, A: np.ndarray, x_star: np.ndarray, start: np.ndarray):
        A = np.asarray(A, dtype=float)
        self.A = A
        self.b = A @ x_star
        self.n = A.shape[0]
        self.hessian = A.T @ A / self.n
        L = power_iteration(self.hessian)
        super().__init__(x_star, 0.0, start, L)

    def value(self, x: np.ndarray) -> float:
        r = self.A.dot(np.asarray(x, dtype=float)) - self.b
        return float(r.dot(r)) / (2.0 * self.n)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        # A^T (A x - b) / n with b = A x_star, which the constructor sets: the
        # true gradient, zero at x_star.
        return self.hessian.dot(np.asarray(x, dtype=float) - self.x_star)


def make_quadratic(seed: int, dim: int, n: int, radius: float = 1.0,
                   cond: float | None = None) -> Quadratic:
    """Random noiseless linear regression built at x_true: b = A @ x_true, f* = 0.

    With ``cond`` set, the design matrix gets log-spaced singular values
    giving the curvature matrix condition number ``cond`` and largest
    eigenvalue 1; without it the entries are plain standard normals. The
    ill-conditioned variant spreads curvature over many scales, which keeps
    averaged SGD in the noise-dominated regime the rate bounds describe
    instead of the fast strongly-convex regime a well-conditioned problem
    falls into.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if n < dim:
        raise ValueError(f"need n >= dim for a unique minimizer, got n={n}, dim={dim}")
    rng = np.random.default_rng(seed)
    if cond is None:
        A = rng.standard_normal((n, dim))
    else:
        if cond < 1:
            raise ValueError(f"condition number must be >= 1, got {cond}")
        eigs = np.logspace(0.0, -np.log10(cond), dim)
        left, _ = np.linalg.qr(rng.standard_normal((n, dim)))
        right, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        A = left @ np.diag(np.sqrt(n * eigs)) @ right.T
    x_true = rng.standard_normal(dim)
    start = _start_point(x_true, radius, rng)
    return Quadratic(A, x_true, start)


class SmoothNonconvex(Problem):
    """f(x) = sum_i x_i^2 / (1 + x_i^2), bounded, nonconvex, 2-smooth.

    Each coordinate's second derivative is (2 - 6t^2) / (1 + t^2)^3, which
    lies in [-1/2, 2], so the gradient is Lipschitz with constant 2.
    """

    convex = False

    def __init__(self, dim: int, start: np.ndarray):
        super().__init__(np.zeros(dim), 0.0, start, 2.0)

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        sq = x * x
        return float(np.sum(sq / (1.0 + sq)))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = _ONE + x * x
        return (x + x) / (t * t)  # x + x is 2x exactly


def make_smooth_nonconvex(dim: int, radius: float = 1.0,
                          seed: int = 0) -> SmoothNonconvex:
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rng = np.random.default_rng(seed)
    start = _start_point(np.zeros(dim), radius, rng)
    return SmoothNonconvex(dim, start)
