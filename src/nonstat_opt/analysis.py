"""Numeric evaluation of the convergence guarantees on concrete schedules.

Everything here is a pure function of schedules, stepsize sequences and run
records: rate bounds for the two baselines and the adaptive method, the
general weighted-SGD bound they specialize, regime classification for the
adaptive rate, estimator regret extraction, and log-log slope fitting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import SQUARED_KINDS, regret

REGIME_MATCHES_IDEALIZED = "matches-idealized"
REGIME_BEATS_CONSTANT_ONLY = "beats-constant-only"
REGIME_INCONCLUSIVE = "inconclusive"


def _weighted_bound(head: float, weight: float, schedule, etas) -> float:
    """(head + weight * sum eta_k^2 m_k^2) / sum eta_k over the whole horizon."""
    etas = np.asarray(etas, dtype=float)
    if np.any(etas <= 0):
        raise ValueError("stepsizes must be positive")
    levels = schedule.levels()
    if etas.size != levels.size:
        raise ValueError("stepsize sequence must cover the whole horizon")
    return (head + weight * float(np.sum(etas ** 2 * levels ** 2))) / float(etas.sum())


def _harmonic(schedule, m: float) -> float:
    """sum_k 1 / (m_k + m): the idealized (m = 0) and adaptive rates divide by it."""
    if m < 0:
        raise ValueError("correction constant must be nonnegative")
    levels = schedule.levels()
    if np.any(levels + m <= 0):
        raise ValueError("need level + m > 0 at every iteration")
    return float(np.sum(1.0 / (levels + m)))


def suboptimality_bound(radius: float, schedule, etas) -> float:
    """General weighted-average SGD bound (R^2 + sum eta_k^2 m_k^2) / sum eta_k."""
    return _weighted_bound(radius ** 2, 1.0, schedule, etas)


def bound_constant(radius: float, schedule) -> float:
    """Rate of the tuned constant step: 2 R sqrt(sum m_k^2) / T."""
    energy = float(np.sum(schedule.levels() ** 2))
    return 2.0 * radius * math.sqrt(energy) / schedule.horizon


def bound_idealized(radius: float, schedule) -> float:
    """Rate of the noise-proportional step: 2 R sqrt(T) / sum(1/m_k)."""
    return 2.0 * radius * math.sqrt(schedule.horizon) / _harmonic(schedule, 0.0)


def adaptive_bound(radius: float, schedule, m: float, constant: float = 32.0) -> float:
    """High-probability adaptive rate (2R/sqrt(T)) * (C T / sum 1/(m_k + m)).

    C = 32 is the proved constant, C = 4 the headline one, and C = 12 the
    first-moment variant's. All three are selectable.
    """
    T = schedule.horizon
    return (2.0 * radius / math.sqrt(T)) * (constant * T / _harmonic(schedule, m))


def stationarity_bound(delta: float, L: float, schedule, etas) -> float:
    """Nonconvex baseline bound (delta + (L/2) sum eta_k^2 s_k^2) / sum eta_k."""
    return _weighted_bound(delta, 0.5 * L, schedule, etas)


def adaptive_stationarity_bound(delta: float, L: float, schedule, m: float,
                                constant: float = 32.0) -> float:
    """Nonconvex adaptive rate sqrt(2 L delta / T) * (C T / sum 1/(s_k + m))."""
    T = schedule.horizon
    return math.sqrt(2.0 * L * delta / T) * (constant * T / _harmonic(schedule, m))


def classify_regime(schedule, horizon: int | None = None) -> str:
    """Where the adaptive rate lands relative to the two baselines.

    The adaptive method provably matches the idealized rate (up to logs) when
    M / min_k m_k <= T^(1/9); failing that, it is still no slower than the
    constant baseline when M / m_avg <= T^(1/9) with m_avg^2 = sum m_k^2 / T.
    """
    T = schedule.horizon if horizon is None else int(horizon)
    levels = schedule.levels()
    m_max = float(levels.max())
    m_min = float(levels.min())
    threshold = float(T) ** (1.0 / 9.0)
    if m_min > 0 and m_max / m_min <= threshold:
        return REGIME_MATCHES_IDEALIZED
    m_avg = math.sqrt(float(np.mean(levels ** 2)))
    if m_avg > 0 and m_max / m_avg <= threshold:
        return REGIME_BEATS_CONSTANT_ONLY
    return REGIME_INCONCLUSIVE


@dataclass(frozen=True)
class BoundReport:
    constant_bound: float
    idealized_bound: float
    adaptive_bound: float
    regime: str


def bound_report(radius: float, schedule, m: float,
                 constant: float = 32.0) -> BoundReport:
    return BoundReport(
        constant_bound=bound_constant(radius, schedule),
        idealized_bound=bound_idealized(radius, schedule),
        adaptive_bound=adaptive_bound(radius, schedule, m, constant),
        regime=classify_regime(schedule),
    )


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares power-law fit metric ~ C * T^slope on log-log axes."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple


def fit_slope(points) -> SlopeFit:
    points = [(float(t), float(m)) for t, m in points]
    if len(points) < 2:
        raise ValueError("need at least two (T, metric) points")
    if any(m <= 0 for _, m in points):
        raise ValueError("metrics must be positive for a log-log fit")
    if len({t for t, _ in points}) < 2:
        raise ValueError("need at least two distinct T values")
    log_t = np.log([t for t, _ in points])
    log_m = np.log([m for _, m in points])
    slope, intercept = np.polyfit(log_t, log_m, 1)
    residuals = log_m - (slope * log_t + intercept)
    ss_res = float(np.sum(residuals ** 2))
    ss_tot = float(np.sum((log_m - log_m.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(float(slope), float(intercept), r_squared, tuple(points))


def regret_from_run(record, schedule) -> float:
    """Cumulative |estimate_k - level_k^2| from a run's estimator trace.

    Only meaningful for estimators whose trace holds squared quantities; the
    comparison target is the injected squared level, so any gradient-norm
    contribution picked up by the estimator shows up as extra regret.
    """
    if record.estimator_trace is None:
        raise ValueError("run record carries no estimator trace")
    if record.estimator_kind not in SQUARED_KINDS:
        raise ValueError(
            f"estimator trace of kind {record.estimator_kind!r} does not hold squared values")
    return regret(record.estimator_trace, schedule.levels() ** 2)
