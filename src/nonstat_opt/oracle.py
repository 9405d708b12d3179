"""Stochastic gradient oracle with schedule-driven noise intensity.

The oracle returns the true gradient plus isotropic Gaussian noise whose
total variance at iteration k equals ``schedule.level(k)**2`` (per-coordinate
standard deviation ``level / sqrt(dim)``), so the injected noise energy is
dimension independent. Every draw advances a seeded generator, making query
streams bit-reproducible, and every draw is counted.

level(k) is the standard deviation of the injected noise, not the root
second moment of the returned gradient, which also holds ||grad f(x_k)||^2;
the ``run`` command reports the ratio ||grad f||^2 / level^2 so the gap
stays visible.
"""
from __future__ import annotations

import numpy as np


class Oracle:
    """Unbiased gradient source: problem + schedule + seeded randomness."""

    def __init__(self, problem, schedule, seed: int):
        self.problem = problem
        self.schedule = schedule
        self.seed = int(seed)
        self.query_count = 0
        self._rng = np.random.default_rng(self.seed)
        self._sqrt_dim = np.sqrt(problem.dim)

    def _noise(self, k: int, shape) -> np.ndarray:
        scale = self.schedule.level(k) / self._sqrt_dim
        return self._rng.standard_normal(shape) * scale

    def query(self, x: np.ndarray, k: int, with_true: bool = False):
        """One stochastic gradient at (x, k). Counts as a single query."""
        true_grad = self.problem.gradient(x)
        g = true_grad + self._noise(k, self.problem.dim)
        self.query_count += 1
        if with_true:
            return g, true_grad
        return g

    def query_pair(self, x: np.ndarray, k: int, with_true: bool = False):
        """Two independent stochastic gradients at the same (x, k)."""
        true_grad = self.problem.gradient(x)
        # one (2, dim) draw yields the same stream as two dim-long draws
        noise = self._noise(k, (2, self.problem.dim))
        g1 = true_grad + noise[0]
        g2 = true_grad + noise[1]
        self.query_count += 2
        if with_true:
            return g1, g2, true_grad
        return g1, g2
