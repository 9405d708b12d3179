"""Deterministic noise-level schedules for stochastic gradient oracles.

A schedule assigns a noise level to every iteration index k in [1, T]. Each
constructor computes the whole length-T level array once and stores it
read-only: ``levels()`` returns that array and ``level(k)`` indexes a float
list copy of it, so every reader sees the same values.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

KINDS = ("constant", "piecewise_linear", "adversarial_spike", "custom")


@dataclass(frozen=True)
class ScheduleSummary:
    """Headline statistics of a schedule.

    ``total_variation_sq`` is the accumulated absolute change of the squared
    levels across consecutive iterations. ``within_variation_bound`` flags
    whether it stays below four times the squared maximum level, the regime
    the adaptive-stepsize guarantees assume.
    """

    max_level: float
    min_level: float
    total_variation_sq: float
    within_variation_bound: bool


def _floor(horizon: int, alpha: float, min_horizon: int, kind: str) -> float:
    """The low level T^-alpha of the alpha-parameterised kinds."""
    if horizon < min_horizon:
        raise ValueError(f"{kind} needs a horizon of at least {min_horizon}")
    if alpha is None or alpha < 0:
        raise ValueError("alpha must be a nonnegative real")
    return float(horizon) ** (-alpha)


class NoiseSchedule:
    """Noise level as a deterministic function of the iteration index.

    Supported kinds, one constructor each:

    * ``constant`` -- one level for every iteration.
    * ``piecewise_linear`` -- low floor ``T^-alpha`` on the first and last
      fifth of the horizon, a plateau at 1 on the middle fifth, and linear
      ramps with slope ``+-gamma`` in between, ``gamma = 5(1 - T^-alpha)/T``.
      Segment boundaries are ``floor(T/5)``, ``floor(2T/5)``, ``floor(3T/5)``
      and ``floor(4T/5)``.
    * ``adversarial_spike`` -- flat at ``T^-alpha`` except for a single spike
      to 1 at ``k = floor(T/2)``.
    * ``custom`` -- explicit per-iteration values.
    """

    def __init__(self, levels):
        levels = np.array(levels, dtype=float)  # a copy the caller cannot reach
        if levels.ndim != 1 or levels.size == 0:
            raise ValueError("a schedule needs one level per iteration, horizon >= 1")
        if not np.all(np.isfinite(levels)) or np.any(levels < 0):
            raise ValueError("levels must be finite and >= 0")
        levels.flags.writeable = False
        self.horizon = levels.size
        self._levels = levels
        self._list = levels.tolist()

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, level: float, horizon: int) -> "NoiseSchedule":
        return cls(np.full(int(horizon), float(level)))

    @classmethod
    def piecewise_linear(cls, horizon: int, alpha: float) -> "NoiseSchedule":
        # Ramps are clamped below at the floor: integer segment rounding can
        # otherwise push the last ramp point under the floor (or below zero)
        # when the horizon is not divisible by 5.
        T = int(horizon)
        floor = _floor(T, alpha, 5, "piecewise_linear")
        ks = np.arange(1, T + 1)
        b1, b2, b3, b4 = T // 5, (2 * T) // 5, (3 * T) // 5, (4 * T) // 5
        gamma = 5.0 * (1.0 - floor) / T
        up = np.maximum(gamma * (ks - b2) + 1.0, floor)
        down = np.maximum(gamma * (b3 - ks) + 1.0, floor)
        return cls(np.select(
            [ks <= b1, ks <= b2, ks <= b3, ks <= b4],
            [np.full(T, floor), up, np.ones(T), down],
            default=floor))

    @classmethod
    def adversarial_spike(cls, horizon: int, alpha: float) -> "NoiseSchedule":
        T = int(horizon)
        levels = np.full(T, _floor(T, alpha, 2, "adversarial_spike"))
        levels[T // 2 - 1] = 1.0
        return cls(levels)

    @classmethod
    def custom(cls, values) -> "NoiseSchedule":
        return cls(values)

    @classmethod
    def from_file(cls, path) -> "NoiseSchedule":
        """Load a custom schedule: one positive decimal per line, no header."""
        text = Path(path).read_text(encoding="utf-8")
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError(f"schedule file {path} is empty")
        try:
            values = np.array([float(ln) for ln in lines])
        except ValueError as exc:
            raise ValueError(f"schedule file {path}: {exc}") from None
        if np.any(values <= 0) or not np.all(np.isfinite(values)):
            raise ValueError(f"schedule file {path}: levels must be positive decimals")
        return cls.custom(values)

    # -- evaluation ------------------------------------------------------

    def level(self, k: int) -> float:
        """Noise level at iteration k, 1-indexed."""
        if not 1 <= k <= self.horizon:
            raise ValueError(f"iteration index {k} outside [1, {self.horizon}]")
        return self._list[k - 1]

    def levels(self) -> np.ndarray:
        """The read-only levels of iterations 1..T."""
        return self._levels

    # -- summaries ---------------------------------------------------------

    def max_level(self) -> float:
        return float(self._levels.max())

    def min_level(self) -> float:
        return float(self._levels.min())

    def total_variation_sq(self) -> float:
        # A plain sequential sum of level(k) ** 2 terms, which the tests recompute
        # exactly; numpy's array square (x * x) can differ from x ** 2 by an ulp.
        total = 0.0
        prev = None
        for v in [level ** 2 for level in self._list]:
            if prev is not None:
                total += abs(prev - v)
            prev = v
        return total

    def summary(self) -> ScheduleSummary:
        m = self.max_level()
        d_sq = self.total_variation_sq()
        return ScheduleSummary(
            max_level=m,
            min_level=self.min_level(),
            total_variation_sq=d_sq,
            within_variation_bound=bool(d_sq <= 4.0 * m * m),
        )
