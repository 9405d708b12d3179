"""Deterministic noise-level schedules for stochastic gradient oracles.

A schedule assigns a noise level to every iteration index k in [1, T].
Formula-based schedules build no length-T table at construction, so
horizons up to 10^6 stay cheap to construct and summarise; ``level(k)``
caches ``levels()`` as a float list (32 bytes per iteration) on first use.
"""
from __future__ import annotations

import math
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


class NoiseSchedule:
    """Noise level as a deterministic function of the iteration index.

    Supported kinds:

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

    def __init__(self, kind: str, horizon: int, *, alpha: float | None = None,
                 level: float | None = None,
                 values: np.ndarray | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown schedule kind: {kind!r}")
        horizon = int(horizon)
        if horizon < 1:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if kind == "piecewise_linear" and horizon < 5:
            raise ValueError("piecewise_linear needs a horizon of at least 5")
        if kind == "adversarial_spike" and horizon < 2:
            raise ValueError("adversarial_spike needs a horizon of at least 2")
        if kind in ("piecewise_linear", "adversarial_spike"):
            if alpha is None or alpha < 0:
                raise ValueError("alpha must be a nonnegative real")
        if kind == "constant":
            if level is None or level < 0 or not math.isfinite(level):
                raise ValueError("constant schedule needs a finite level >= 0")
        if kind == "custom":
            values = np.asarray(values, dtype=float)
            if values.ndim != 1 or values.size != horizon:
                raise ValueError("custom schedule needs one value per iteration")
            if not np.all(np.isfinite(values)) or np.any(values < 0):
                raise ValueError("custom levels must be finite and >= 0")
        self.kind = kind
        self.horizon = horizon
        self.alpha = float(alpha) if alpha is not None else None
        self._level = float(level) if level is not None else None
        self._values = values
        self._table = None  # levels() as a list, built by the first level() call

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, level: float, horizon: int) -> "NoiseSchedule":
        return cls("constant", horizon, level=level)

    @classmethod
    def piecewise_linear(cls, horizon: int, alpha: float) -> "NoiseSchedule":
        return cls("piecewise_linear", horizon, alpha=alpha)

    @classmethod
    def adversarial_spike(cls, horizon: int, alpha: float) -> "NoiseSchedule":
        return cls("adversarial_spike", horizon, alpha=alpha)

    @classmethod
    def custom(cls, values) -> "NoiseSchedule":
        values = np.asarray(values, dtype=float)
        return cls("custom", values.size, values=values)

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
        if self._table is None:
            self._table = self.levels().tolist()
        return self._table[k - 1]

    def levels(self, ks=None) -> np.ndarray:
        """Vectorised levels; defaults to the full horizon 1..T."""
        if ks is None:
            ks = np.arange(1, self.horizon + 1)
        ks = np.asarray(ks)
        if ks.size and (ks.min() < 1 or ks.max() > self.horizon):
            raise ValueError("iteration indices outside the horizon")
        if self.kind == "constant":
            return np.full(ks.shape, self._level)
        if self.kind == "custom":
            return self._values[ks - 1].copy()
        if self.kind == "adversarial_spike":
            floor = float(self.horizon) ** (-self.alpha)
            out = np.full(ks.shape, floor)
            out[ks == self.horizon // 2] = 1.0
            return out
        # Ramps are clamped below at the floor: integer segment rounding can
        # otherwise push the last ramp point under the floor (or below zero)
        # when the horizon is not divisible by 5.
        T = self.horizon
        b1, b2, b3, b4 = T // 5, (2 * T) // 5, (3 * T) // 5, (4 * T) // 5
        floor = float(T) ** (-self.alpha)
        gamma = 5.0 * (1.0 - floor) / T
        up = np.maximum(gamma * (ks - b2) + 1.0, floor)
        down = np.maximum(gamma * (b3 - ks) + 1.0, floor)
        return np.select(
            [ks <= b1, ks <= b2, ks <= b3, ks <= b4],
            [np.full(ks.shape, floor), up, np.ones(ks.shape), down],
            default=floor,
        )

    # -- summaries ---------------------------------------------------------

    def max_level(self) -> float:
        return float(self.levels().max())

    def min_level(self) -> float:
        return float(self.levels().min())

    def total_variation_sq(self) -> float:
        # Plain sequential accumulation: the reference recomputation in tests
        # must reproduce this sum exactly, so no pairwise/compensated tricks.
        sq = self.levels() ** 2
        total = 0.0
        prev = None
        for v in sq.tolist():
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

    def __repr__(self) -> str:  # pragma: no cover
        extra = ""
        if self.alpha is not None:
            extra = f", alpha={self.alpha}"
        if self._level is not None:
            extra = f", level={self._level}"
        return f"NoiseSchedule({self.kind}, T={self.horizon}{extra})"
