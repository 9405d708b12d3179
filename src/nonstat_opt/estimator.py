"""Online estimators of the gradient noise level.

Each estimator is one per-step noise statistic, ``sample(*gs)``, and one
average of it: ``_EMA``'s recurrence for the exponential-moving-average kinds,
the plain mean of the last W samples for the window kind. The EMA kinds keep
the statistic in the power it is averaged in (squared norms, or p-th powers for
the p-norm kind, whose p = 1 is the first moment) and take the root only in
``denominator``, once per step, so no precision is lost to repeated round trips.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np


# Each kind states its sample and ``denominator(m)`` (m_hat + m) once and binds
# ``_EMA.update`` in its own __dict__, where perfbench/tracer.py times it per kind.

class _EMA:
    """value tracks an exponential moving average of ``sample(*gs)``, decay beta."""

    def __init__(self, beta: float):
        beta = float(beta)
        if not 0.0 < beta < 1.0:
            raise ValueError(f"decay beta must lie in (0, 1), got {beta}")
        self.beta = beta
        self.value = 0.0

    def initialize(self, *gs: np.ndarray) -> None:
        self.value = self.sample(*gs)

    def update(self, *gs: np.ndarray) -> None:
        self.value = self.beta * self.value + (1.0 - self.beta) * self.sample(*gs)


class SquaredNorms:
    """value holds squared norms, comparable to level_k^2; its root is m_hat."""

    @staticmethod
    def sample(g: np.ndarray) -> float:
        return float(g.dot(g))

    def denominator(self, m: float) -> float:
        return math.sqrt(self.value) + m


class SecondMomentEMA(_EMA, SquaredNorms):
    """value tracks an EMA of ||g||^2."""

    update = _EMA.update


class VarianceEMA(_EMA, SquaredNorms):
    """value tracks an EMA of ||g - g'||^2 / 2 over independent same-point pairs."""

    @staticmethod
    def sample(g: np.ndarray, g2: np.ndarray) -> float:
        d = g - g2
        return float(d.dot(d)) / 2.0

    update = _EMA.update


class PowerEMA(_EMA):
    """value tracks an EMA of ||g||^p (Adamax-style generalisation)."""

    def __init__(self, beta: float, p: float):
        if not (p > 0 and math.isfinite(p)):
            raise ValueError(f"power p must be positive and finite, got {p}")
        super().__init__(beta)
        self.p = float(p)
        self._inv_p = 1.0 / self.p

    def sample(self, g: np.ndarray) -> float:
        return float(np.linalg.norm(g) ** self.p)

    update = _EMA.update

    def denominator(self, m: float) -> float:
        return float((self.value + np.float64(m) ** self.p) ** self._inv_p)


class FirstMomentEMA(PowerEMA):
    """value tracks an EMA of ||g||: PowerEMA at p = 1, where x ** 1.0 == x."""

    def __init__(self, beta: float):
        super().__init__(beta, 1.0)

    update = _EMA.update


class WindowAverage(SquaredNorms):
    """value is the plain mean of the last W raw samples of ||g||^2.

    Averaging raw samples (rather than past estimates) is what removes the
    logarithmic factor the EMA pays for its non-uniform error accumulation;
    the price is O(W) memory. An update takes O(1) time: the window's finite
    samples are summed exactly, as an integer count of 2^-scale, where 2^-scale
    is the finest unit of any sample since ``initialize`` (a double is a whole
    multiple of 2^-k for the 2^k its ``as_integer_ratio`` gives, k <= 1074).
    So value equals ``math.fsum(window) / len(window)`` on every CPython, and
    is ``inf`` when that sum rounds above the float range. While the window
    holds an ``inf`` or ``nan``, value is the float sum's ``inf`` or ``nan``.
    """

    def __init__(self, width: int):
        width = int(width)
        if width < 1:
            raise ValueError(f"window width must be at least 1, got {width}")
        self._buffer: deque[float] = deque(maxlen=width)
        self._clear()
        self.value = 0.0

    def _clear(self) -> None:
        self._buffer.clear()
        self._units = 0        # exact sum of the finite samples, in 2^-scale
        self._scale = 0
        self._non_finite = 0

    def push_sample(self, sample: float) -> None:
        sample = float(sample)
        if sample < 0:
            raise ValueError("window samples must be nonnegative")
        buffer = self._buffer
        if len(buffer) == buffer.maxlen:
            evicted = buffer[0]                # the sample that append drops
            if math.isfinite(evicted):
                n, d = evicted.as_integer_ratio()   # d divides 2^scale
                self._units -= n << (self._scale + 1 - d.bit_length())
            else:
                self._non_finite -= 1
        buffer.append(sample)
        if math.isfinite(sample):
            n, d = sample.as_integer_ratio()
            k = d.bit_length() - 1
            if k > self._scale:                # a finer unit: rescale the sum
                self._units <<= k - self._scale
                self._scale = k
            self._units += n << (self._scale - k)
        else:
            self._non_finite += 1
        if self._non_finite:
            self.value = sum(buffer) / len(buffer)
        else:
            try:
                self.value = (self._units / (1 << self._scale)) / len(buffer)
            except OverflowError:              # the sum rounds above the float range
                self.value = math.inf

    def initialize(self, g: np.ndarray) -> None:
        self._clear()
        self.push_sample(self.sample(g))

    def update(self, g: np.ndarray) -> None:
        self.push_sample(self.sample(g))


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
