"""Stochastic gradient oracle with schedule-driven noise intensity.

The oracle returns the true gradient plus isotropic Gaussian noise whose
total variance at iteration k equals ``schedule.level(k)**2`` (per-coordinate
standard deviation ``level / sqrt(dim)``), so the injected noise energy is
dimension independent. Every draw advances a seeded generator, making query
streams bit-reproducible, and every draw is counted.

The generator is called once per block of ``_BLOCK`` standard normals, not
once per query: a draw of a + b normals is the draw of a followed by the draw
of b, so each query takes the values a per-query draw would have given it.

level(k) is the standard deviation of the injected noise, not the root
second moment of the returned gradient, which also holds ||grad f(x_k)||^2;
the ``run`` command reports the ratio ||grad f||^2 / level^2 so the gap
stays visible.
"""
from __future__ import annotations

import numpy as np

_BLOCK = 1 << 14  # standard normals per generator call (128 KiB), more if a query needs more


class Oracle:
    """Unbiased gradient source: problem + schedule + seeded randomness."""

    def __init__(self, problem, schedule, seed: int):
        self.problem = problem
        self.schedule = schedule
        self.seed = int(seed)
        self.query_count = 0
        self._rng = np.random.default_rng(self.seed)
        self._sqrt_dim = float(np.sqrt(problem.dim))
        self._scale = np.zeros(())  # level(k) / sqrt(dim)
        self._normals = np.empty(0)  # drawn and not yet used: _normals[_next:]
        self._next = 0

    def _noise(self, k: int, n: int) -> np.ndarray:
        """The stream's next n standard normals times level(k) / sqrt(dim)."""
        self._scale[()] = self.schedule.level(k) / self._sqrt_dim  # a bad k takes nothing
        start, end = self._next, self._next + n
        if end > self._normals.size:  # the unused values lead the refilled buffer
            left = self._normals[start:]
            self._normals = np.concatenate(
                (left, self._rng.standard_normal(max(_BLOCK, n - left.size))))
            start, end = 0, n
        self._next = end
        return self._normals[start:end] * self._scale

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
        dim = self.problem.dim
        noise = self._noise(k, 2 * dim)
        g1 = true_grad + noise[:dim]
        g2 = true_grad + noise[dim:]
        self.query_count += 2
        if with_true:
            return g1, g2, true_grad
        return g1, g2
