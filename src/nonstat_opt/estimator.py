"""Online estimators of the gradient noise level.

The exponential-moving-average estimators store the quantity in the power it
is averaged in (squared norms for the second-moment and variance kinds, p-th
powers for the p-norm kind) and leave root-taking to the stepsize rule, so no
precision is lost to repeated round trips.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np

# Kinds whose value holds squared norms, so it is comparable to level_k^2.
SQUARED_KINDS = ("second-moment", "variance", "window")


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"decay beta must lie in (0, 1), got {beta}")
    return beta


class SecondMomentEMA:
    """value tracks an EMA of ||g||^2."""

    kind = "second-moment"

    def __init__(self, beta: float):
        self.beta = _check_beta(beta)
        self.value = 0.0

    def initialize(self, g: np.ndarray) -> None:
        self.value = float(g @ g)

    def update(self, g: np.ndarray) -> None:
        self.value = self.beta * self.value + (1.0 - self.beta) * float(g @ g)


class FirstMomentEMA:
    """value tracks an EMA of ||g||."""

    kind = "first-moment"

    def __init__(self, beta: float):
        self.beta = _check_beta(beta)
        self.value = 0.0

    def initialize(self, g: np.ndarray) -> None:
        self.value = float(np.linalg.norm(g))

    def update(self, g: np.ndarray) -> None:
        self.value = self.beta * self.value + (1.0 - self.beta) * float(np.linalg.norm(g))


class VarianceEMA:
    """value tracks an EMA of ||g - g'||^2 / 2 over independent same-point pairs."""

    kind = "variance"

    def __init__(self, beta: float):
        self.beta = _check_beta(beta)
        self.value = 0.0

    @staticmethod
    def _sample(g: np.ndarray, g2: np.ndarray) -> float:
        d = g - g2
        return float(d @ d) / 2.0

    def initialize(self, g: np.ndarray, g2: np.ndarray) -> None:
        self.value = self._sample(g, g2)

    def update(self, g: np.ndarray, g2: np.ndarray) -> None:
        self.value = self.beta * self.value + (1.0 - self.beta) * self._sample(g, g2)


class PowerEMA:
    """value tracks an EMA of ||g||^p (Adamax-style generalisation)."""

    kind = "pnorm"

    def __init__(self, beta: float, p: float):
        if p <= 0:
            raise ValueError(f"power p must be positive, got {p}")
        self.beta = _check_beta(beta)
        self.p = float(p)
        self.value = 0.0

    def initialize(self, g: np.ndarray) -> None:
        self.value = float(np.linalg.norm(g)) ** self.p

    def update(self, g: np.ndarray) -> None:
        s = float(np.linalg.norm(g)) ** self.p
        self.value = self.beta * self.value + (1.0 - self.beta) * s


class WindowAverage:
    """value is the plain mean of the last W raw samples of ||g||^2.

    Averaging raw samples (rather than past estimates) is what removes the
    logarithmic factor the EMA pays for its non-uniform error accumulation;
    the price is O(W) memory.
    """

    kind = "window"

    def __init__(self, width: int):
        width = int(width)
        if width < 1:
            raise ValueError(f"window width must be at least 1, got {width}")
        self.width = width
        self._buffer: deque[float] = deque(maxlen=width)
        self.value = 0.0

    def push_sample(self, sample: float) -> None:
        sample = float(sample)
        if sample < 0:
            raise ValueError("window samples must be nonnegative")
        self._buffer.append(sample)
        self.value = sum(self._buffer) / len(self._buffer)

    def initialize(self, g: np.ndarray) -> None:
        self._buffer.clear()
        self.push_sample(float(g @ g))

    def update(self, g: np.ndarray) -> None:
        self.push_sample(float(g @ g))


def default_beta(horizon: int) -> float:
    """Decay 1 - 2 T^(-2/3), balancing estimator bias against variance."""
    horizon = int(horizon)
    if horizon < 3:
        raise ValueError(f"horizon must be at least 3 for a valid decay, got {horizon}")
    return 1.0 - 2.0 * float(horizon) ** (-2.0 / 3.0)


def regret(estimates, truth) -> float:
    """Cumulative absolute estimation error sum_k |estimate_k - truth_k|."""
    estimates = np.asarray(estimates, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimates.shape != truth.shape:
        raise ValueError(
            f"length mismatch: {estimates.shape} estimates vs {truth.shape} truths")
    return float(np.abs(estimates - truth).sum())


def regret_bound(max_level: float, variation_sq: float, horizon: int) -> float:
    """Sublinear cap 2 (D^2 + M^2) T^(2/3) ln(T^(2/3)) on the EMA regret.

    Holds for the second-moment EMA run with ``default_beta`` on schedules
    whose squared-level total variation is at most ``variation_sq``.
    """
    t23 = float(horizon) ** (2.0 / 3.0)
    return 2.0 * (variation_sq + max_level ** 2) * t23 * math.log(t23)
