"""Stepsize policies.

Two baselines that know the noise schedule (a single tuned constant step and
a per-iteration step inversely proportional to the noise level), the adaptive
rule driven by an online noise estimate, its paired-sample variance variant
with a smoothness cap, and the p-norm generalisation.

Adaptive policies honour an obliviousness contract: the stepsize for
iteration k is a function of estimator state built from gradients observed
strictly before g_k is drawn. Runners therefore ask for ``stepsize(k)``
first, then query the oracle, then call ``observe``.
"""
from __future__ import annotations

import math
import warnings
from functools import partial

import numpy as np

from . import analysis
from .estimator import (FirstMomentEMA, PowerEMA, SecondMomentEMA, VarianceEMA,
                        WindowAverage, default_beta)


# -- stepsize formulas ----------------------------------------------------

def constant_stepsize(radius: float, schedule) -> float:
    """Single step R / sqrt(sum_k level(k)^2), tuned to the whole horizon."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    energy = float(np.sum(schedule.levels() ** 2))
    if energy <= 0:
        raise ValueError("schedule has zero total noise energy")
    return radius / math.sqrt(energy)


def idealized_stepsize(radius: float, horizon: int, levels):
    """Per-iteration steps R / (sqrt(T) * level_k), for one level or an array."""
    levels = np.asarray(levels, dtype=float)
    if np.any(levels <= 0):
        raise ValueError("idealized stepsizes need strictly positive levels")
    return radius / (math.sqrt(horizon) * levels)


def adaptive_defaults(radius: float, max_level: float, horizon: int,
                      m_coeff: float = 2.0) -> tuple[float, float, float]:
    """Recommended (c, m, beta) for the adaptive rule on horizon T.

    c = R / sqrt(T), m = m_coeff * M * T^(-1/9) * ln(T)^(1/3),
    beta = 1 - 2 T^(-2/3). The analysis behind these values assumes T large
    enough that 2 T^(-1/9) ln(T)^(1/3) <= 1; smaller horizons only get a
    warning, since small-T behaviour is itself of interest.
    """
    horizon = int(horizon)
    c = radius / math.sqrt(horizon)
    _warn_below_regime(horizon)
    return c, variance_m_base(max_level, horizon, m_coeff), default_beta(horizon)


def first_moment_defaults(radius: float, max_level: float, horizon: int,
                          m_coeff: float = 8.0) -> tuple[float, float, float]:
    """Recommended (c, m, beta) for the first-moment estimator variant.

    c = R / sqrt(T), m = m_coeff * M * T^(-1/6) * ln(T)^(1/2): the tighter
    concentration of plain norms permits a smaller correction constant than
    the squared-norm rule, raising the attainable speedup from T^(1/9) to
    T^(1/6). Assumes T large enough that 8 ln(T) <= T^(1/3), the cube of the
    squared-norm rule's regime condition, so both warn below the same T.
    """
    horizon = int(horizon)
    c = radius / math.sqrt(horizon)
    _warn_below_regime(horizon)
    m = m_coeff * max_level * horizon ** (-1.0 / 6.0) * math.sqrt(math.log(horizon))
    return c, m, default_beta(horizon)


def variance_m_base(max_level: float, horizon: int, coeff: float = 8.0) -> float:
    """Noise part coeff * M * T^(-1/9) * ln(T)^(1/3) of the adaptive corrections m."""
    horizon = int(horizon)
    return coeff * max_level * horizon ** (-1.0 / 9.0) * math.log(horizon) ** (1.0 / 3.0)


def _warn_below_regime(horizon: int) -> None:
    """Warn when T is below the adaptive rules' guarantee regime
    2 T^(-1/9) ln(T)^(1/3) <= 1, which holds from T = 1,465,239 on."""
    largeness = variance_m_base(1.0, horizon, 2.0)
    if largeness > 1.0:
        warnings.warn(
            f"horizon T={horizon} below the guarantee regime "
            f"(2 T^(-1/9) ln(T)^(1/3) = {largeness:.3f} > 1); proceeding anyway",
            RuntimeWarning, stacklevel=3)


def variance_adaptive_correction(c: float, L: float, m_base: float) -> float:
    """m = m_base + 2cL, which caps every stepsize c/(sigma_hat + m) at 1/(2L)."""
    if c <= 0 or L <= 0:
        raise ValueError("c and L must be positive")
    return m_base + 2.0 * c * L


# -- policy objects --------------------------------------------------------

class StepPolicy:
    """Per-run stepsize source. Single consumer; never shared across runs."""

    name: str = "policy"
    uses_pairs: bool = False
    estimator = None

    def init(self, oracle, x1: np.ndarray) -> None:
        """Draw any estimator seed samples. No-op for baselines."""

    def stepsize(self, k: int) -> float:
        raise NotImplementedError

    def observe(self, g: np.ndarray, g2: np.ndarray | None = None) -> None:
        """Feed the gradient(s) realised at the current iteration."""


class FixedStep(StepPolicy):
    def __init__(self, eta: float, name: str = "constant"):
        if not (eta > 0 and math.isfinite(eta)):
            raise ValueError(f"stepsize must be positive and finite, got {eta}")
        self.eta = float(eta)
        self.name = name

    def stepsize(self, k: int) -> float:
        return self.eta


class ScheduledStep(StepPolicy):
    """Stepsizes eta_1..eta_T fixed before the run, e.g. the idealized baseline.

    The sequence is validated once, here; ``stepsize(k)`` only indexes it.
    """

    def __init__(self, etas, name: str = "idealized"):
        etas = np.asarray(etas, dtype=float)
        if etas.ndim != 1 or not np.all(np.isfinite(etas) & (etas > 0)):
            raise ValueError(f"{name} stepsizes must be positive and finite")
        self._etas = etas.tolist()
        self.name = name

    def stepsize(self, k: int) -> float:
        return self._etas[k - 1]


class AdaptiveStep(StepPolicy):
    """eta_k = c / (m_hat_k + m); the estimator's denominator(m) is m_hat_k + m."""

    def __init__(self, c: float, m: float, estimator, name: str = "adaptive"):
        if c <= 0 or m < 0:
            raise ValueError("need c > 0 and m >= 0")
        self.c = float(c)
        self.m = float(m)
        self.estimator = estimator
        self.name = name

    def _step(self) -> float:
        denom = self.estimator.denominator(self.m)
        if denom <= 0 or not math.isfinite(denom):
            raise ValueError("degenerate stepsize denominator")
        return self.c / denom

    def init(self, oracle, x1: np.ndarray) -> None:
        g = oracle.query(x1, 1)
        self.estimator.initialize(g)

    def stepsize(self, k: int) -> float:
        return self._step()

    def observe(self, g: np.ndarray, g2: np.ndarray | None = None) -> None:
        self.estimator.update(g)


# perfbench/tracer.py times ``stepsize``, ``init`` and ``observe`` as found in
# each policy class's own __dict__, so this class defines all three itself.
class PairedAdaptiveStep(AdaptiveStep):
    """eta_k = c / (sigma_hat_k + m) fed by independent same-point pairs.

    The correction m must already include the 2cL smoothness term, so every
    emitted step satisfies eta <= c/m <= 1/(2L) by construction.
    """

    uses_pairs = True

    def __init__(self, c: float, m: float, estimator: VarianceEMA,
                 name: str = "variance_adaptive"):
        if m <= 0:
            raise ValueError("need c > 0 and m > 0")
        super().__init__(c, m, estimator, name)

    def init(self, oracle, x1: np.ndarray) -> None:
        g, g2 = oracle.query_pair(x1, 1)
        self.estimator.initialize(g, g2)

    def stepsize(self, k: int) -> float:
        return self._step()

    def observe(self, g: np.ndarray, g2: np.ndarray | None = None) -> None:
        self.estimator.update(g, g2)


# -- factories --------------------------------------------------------------

def constant_baseline(radius: float, schedule) -> FixedStep:
    return FixedStep(constant_stepsize(radius, schedule), name="constant")


def idealized_baseline(radius: float, schedule, horizon: int) -> ScheduledStep:
    return ScheduledStep(idealized_stepsize(radius, horizon, schedule.levels()),
                         name="idealized")


def make_adaptive(radius: float, max_level: float, horizon: int,
                  m_coeff: float | None = None, c: float | None = None,
                  m: float | None = None, beta: float | None = None,
                  estimator: type = SecondMomentEMA, p: float | None = None,
                  window: int | None = None, name: str = "adaptive") -> AdaptiveStep:
    """Adaptive policy on an ``estimator`` class; a None parameter takes its default."""
    if estimator is FirstMomentEMA:
        c_def, m_def, beta_def = first_moment_defaults(
            radius, max_level, horizon,
            m_coeff=8.0 if m_coeff is None else m_coeff)
    else:
        c_def, m_def, beta_def = adaptive_defaults(
            radius, max_level, horizon,
            m_coeff=2.0 if m_coeff is None else m_coeff)
    c = c_def if c is None else c
    m = m_def if m is None else m
    beta = beta_def if beta is None else beta
    if estimator is WindowAverage:  # a width, not a decay
        est = WindowAverage(window if window is not None else max(1, horizon // 10))
    elif estimator is PowerEMA:
        est = PowerEMA(beta, 2.0 if p is None else p)
    else:
        est = estimator(beta)
    return AdaptiveStep(c, m, est, name=name)


def make_variance_adaptive(problem, max_level: float, horizon: int,
                           c: float | None = None, m_coeff: float | None = None,
                           beta: float | None = None,
                           name: str = "variance_adaptive") -> PairedAdaptiveStep:
    """Variance-adaptive policy; needs the problem's smoothness constant.

    Default c is R / sqrt(T) on convex problems and sqrt(2 delta / (L T)) on
    nonconvex ones; the correction constant always includes the 2cL term.
    """
    if problem.L is None or problem.L <= 0:
        raise ValueError("variance-adaptive policy needs a positive smoothness constant")
    if c is None:
        if problem.convex:
            c = problem.radius / math.sqrt(horizon)
        else:
            c = math.sqrt(2.0 * problem.initial_gap() / (problem.L * horizon))
    m_base = variance_m_base(max_level, horizon, 8.0 if m_coeff is None else m_coeff)
    m = variance_adaptive_correction(c, problem.L, m_base)
    beta = default_beta(horizon) if beta is None else beta
    return PairedAdaptiveStep(c, m, VarianceEMA(beta), name=name)


def _nonconvex_steps(problem, kind: str, total: float, levels=1.0):
    """Steps sqrt(2 delta / (L total)) / levels, clipped at the smoothness cap
    1/(2L) with a warning: the guarantees require eta_k <= 1/(2L), and clipping
    keeps runs valid when the noise floor is too low for the raw formula."""
    delta, L = problem.initial_gap(), problem.L
    if delta <= 0 or L <= 0:
        raise ValueError("delta and L must be positive")
    etas = math.sqrt(2.0 * delta / (L * total)) / levels
    cap = 1.0 / (2.0 * L)
    if np.any(etas > cap):
        warnings.warn(
            f"{kind} nonconvex stepsizes exceed the smoothness cap 1/(2L)={cap:.4g}; "
            "clipping", RuntimeWarning, stacklevel=3)
        etas = np.minimum(etas, cap)
    return etas


def nonconvex_constant_baseline(problem, schedule) -> FixedStep:
    """eta = sqrt(2 delta / (L sum_k level_k^2)) at every k, clipped at 1/(2L)."""
    energy = float(np.sum(schedule.levels() ** 2))
    if energy <= 0:
        raise ValueError("schedule has zero total noise energy")
    return FixedStep(float(_nonconvex_steps(problem, "constant", energy)),
                     name="constant")


def nonconvex_idealized_baseline(problem, schedule) -> ScheduledStep:
    """eta_k = sqrt(2 delta / (L T)) / level_k, clipped at 1/(2L)."""
    levels = schedule.levels()
    if np.any(levels <= 0):
        raise ValueError("idealized stepsizes need strictly positive levels")
    return ScheduledStep(_nonconvex_steps(problem, "idealized", schedule.horizon,
                                          levels), name="idealized")


# -- the policy table: name -> (build, bound) ---------------------------------
# build(problem, schedule, horizon, overrides) honours overrides["c"] as the
# step scale, a None override meaning unset; bound(problem, schedule, policy,
# record, bound_const) gives a baseline the bound of the steps it took and an
# adaptive rule its rate bound at the default scale. Both look factories and
# analysis functions up by name on each call, so wrappers installed there see them.

def _build_constant(problem, schedule, horizon, ov):
    if ov.get("c") is not None:
        return FixedStep(ov["c"], name="constant")
    if problem.convex:
        return constant_baseline(problem.radius, schedule)
    return nonconvex_constant_baseline(problem, schedule)


def _build_idealized(problem, schedule, horizon, ov):
    if ov.get("c") is not None:
        return ScheduledStep(ov["c"] / schedule.levels(), name="idealized")
    if problem.convex:
        return idealized_baseline(problem.radius, schedule, horizon)
    return nonconvex_idealized_baseline(problem, schedule)


def _build_adaptive(estimator, name, problem, schedule, horizon, ov):
    return make_adaptive(problem.radius, schedule.max_level(), horizon,
                         m_coeff=ov.get("m_coeff"), c=ov.get("c"),
                         m=ov.get("m"), beta=ov.get("beta"),
                         estimator=estimator,
                         p=ov.get("p"), window=ov.get("window"), name=name)


def _build_variance_adaptive(problem, schedule, horizon, ov):
    return make_variance_adaptive(problem, schedule.max_level(), horizon,
                                  c=ov.get("c"), m_coeff=ov.get("m_coeff"),
                                  beta=ov.get("beta"))


def _baseline_bound(problem, schedule, policy, record, bound_const):
    """The weighted-SGD bound evaluated on the steps the run took."""
    if problem.convex:
        return analysis.suboptimality_bound(problem.radius, schedule,
                                            record.stepsizes)
    return analysis.stationarity_bound(problem.initial_gap(), problem.L,
                                       schedule, record.stepsizes)


def _adaptive_bound(problem, schedule, policy, record, bound_const):
    if problem.convex:
        return analysis.adaptive_bound(problem.radius, schedule, policy.m,
                                       bound_const)
    return analysis.adaptive_stationarity_bound(
        problem.initial_gap(), problem.L, schedule, policy.m, bound_const)


POLICIES = {
    "constant": (_build_constant, _baseline_bound),
    "idealized": (_build_idealized, _baseline_bound),
    "adaptive": (partial(_build_adaptive, SecondMomentEMA, "adaptive"),
                 _adaptive_bound),
    "adaptive_first_moment": (
        partial(_build_adaptive, FirstMomentEMA, "adaptive_first_moment"),
        _adaptive_bound),
    "pnorm": (partial(_build_adaptive, PowerEMA, "pnorm"), _adaptive_bound),
    "window": (partial(_build_adaptive, WindowAverage, "window"), _adaptive_bound),
    "variance_adaptive": (_build_variance_adaptive, _adaptive_bound),
}
