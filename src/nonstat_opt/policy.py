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
from functools import partial

import numpy as np

from . import analysis
from .estimator import (FirstMomentEMA, PowerEMA, SecondMomentEMA, VarianceEMA,
                        WindowAverage, default_beta)


# -- shared parts of the formulas --------------------------------------------

def variance_m_base(max_level: float, horizon: int, coeff: float = 8.0) -> float:
    """Noise part coeff * M * T^(-1/9) * ln(T)^(1/3) of the adaptive corrections m."""
    horizon = int(horizon)
    return coeff * max_level * horizon ** (-1.0 / 9.0) * math.log(horizon) ** (1.0 / 3.0)


def _noise_energy(schedule) -> float:
    """sum_k level_k^2, which both constant baselines divide by."""
    energy = float(np.sum(schedule.levels() ** 2))
    if energy <= 0:
        raise ValueError("schedule has zero total noise energy")
    return energy


def _positive_levels(schedule) -> np.ndarray:
    """The levels both idealized baselines divide by, all strictly positive."""
    levels = schedule.levels()
    if np.any(levels <= 0):
        raise ValueError("idealized stepsizes need strictly positive levels")
    return levels


# -- policy objects --------------------------------------------------------

class StepPolicy:
    """Per-run stepsize source. Single consumer; never shared across runs."""

    uses_pairs: bool = False
    estimator = None

    def init(self, oracle, x1: np.ndarray) -> None:
        """Draw any estimator seed samples. No-op for baselines."""

    def stepsize(self, k: int) -> float:
        raise NotImplementedError

    def observe(self, *gs: np.ndarray) -> None:
        """Feed the gradient(s) realised at the current iteration."""

    def bound(self, problem, schedule, bound_const: float) -> float:
        """The weighted-SGD bound on the steps ``eta`` fixed at construction, the
        values a completed run records; bound_const is unused."""
        etas = np.full(schedule.horizon, self.eta)
        if problem.convex:
            return analysis.suboptimality_bound(problem.radius, schedule, etas)
        return analysis.stationarity_bound(problem.initial_gap(), problem.L,
                                           schedule, etas)


class FixedStep(StepPolicy):
    def __init__(self, eta: float):
        if not (eta > 0 and math.isfinite(eta)):
            raise ValueError(f"stepsize must be positive and finite, got {eta}")
        self.eta = float(eta)

    def stepsize(self, k: int) -> float:
        return self.eta


class ScheduledStep(StepPolicy):
    """Stepsizes eta_1..eta_T fixed before the run, e.g. the idealized baseline.

    The sequence is validated once, here; ``stepsize(k)`` only indexes it.
    """

    def __init__(self, etas):
        etas = np.asarray(etas, dtype=float)
        if etas.ndim != 1 or not np.all(np.isfinite(etas) & (etas > 0)):
            raise ValueError("stepsizes must be positive and finite")
        self.eta = etas.tolist()

    def stepsize(self, k: int) -> float:
        return self.eta[k - 1]


class AdaptiveStep(StepPolicy):
    """eta_k = c / (m_hat_k + m); the estimator's denominator(m) is m_hat_k + m."""

    def __init__(self, c: float, m: float, estimator):
        if not (c > 0 and m >= 0 and math.isfinite(c) and math.isfinite(m)):
            raise ValueError(f"need finite c > 0 and m >= 0, got c={c}, m={m}")
        self.c = float(c)
        self.m = float(m)
        self.estimator = estimator

    def init(self, oracle, x1: np.ndarray) -> None:
        self.estimator.initialize(oracle.query(x1, 1))

    def stepsize(self, k: int) -> float:
        denom = self.estimator.denominator(self.m)
        if denom <= 0 or not math.isfinite(denom):
            raise ValueError("degenerate stepsize denominator")
        if (eta := self.c / denom) == 0.0:
            raise ValueError(f"stepsize {self.c:.4g} / {denom:.4g} underflows to 0")
        return eta

    def observe(self, *gs: np.ndarray) -> None:
        self.estimator.update(*gs)

    def bound(self, problem, schedule, bound_const: float) -> float:
        """The rate bound at this policy's correction m, whatever steps it takes."""
        if problem.convex:
            return analysis.adaptive_bound(problem.radius, schedule, self.m,
                                           bound_const)
        return analysis.adaptive_stationarity_bound(
            problem.initial_gap(), problem.L, schedule, self.m, bound_const)


# perfbench/tracer.py times ``stepsize``, ``init`` and ``observe`` as found in
# each policy class's own __dict__, so this class binds all three in its body.
class PairedAdaptiveStep(AdaptiveStep):
    """eta_k = c / (sigma_hat_k + m) fed by independent same-point pairs.

    The correction m must already include the 2cL smoothness term, so every
    emitted step satisfies eta <= c/m <= 1/(2L) by construction.
    """

    uses_pairs = True

    def __init__(self, c: float, m: float, estimator: VarianceEMA):
        if m <= 0:
            raise ValueError("need c > 0 and m > 0")
        super().__init__(c, m, estimator)

    def init(self, oracle, x1: np.ndarray) -> None:
        self.estimator.initialize(*oracle.query_pair(x1, 1))

    stepsize = AdaptiveStep.stepsize
    observe = AdaptiveStep.observe


# -- factories --------------------------------------------------------------

def constant_baseline(radius: float, schedule) -> FixedStep:
    """Single step R / sqrt(sum_k level(k)^2), tuned to the whole horizon."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return FixedStep(radius / math.sqrt(_noise_energy(schedule)))


def idealized_baseline(radius: float, schedule) -> ScheduledStep:
    """Per-iteration steps R / (sqrt(T) * level_k), T the schedule's horizon."""
    steps = radius / (math.sqrt(schedule.horizon) * _positive_levels(schedule))
    return ScheduledStep(steps)


def make_adaptive(radius: float, max_level: float, horizon: int,
                  m_coeff: float | None = None, c: float | None = None,
                  m: float | None = None, beta: float | None = None,
                  estimator: type = SecondMomentEMA, p: float | None = None,
                  window: int | None = None) -> AdaptiveStep:
    """Adaptive policy on an ``estimator`` class; a None parameter takes its default.

    c = R / sqrt(T), beta = 1 - 2 T^(-2/3), m = m_coeff * M * T^(-1/9) *
    ln(T)^(1/3) with m_coeff = 2. The first-moment estimator's plain norms
    concentrate more tightly, which permits m = m_coeff * M * T^(-1/6) *
    ln(T)^(1/2) with m_coeff = 8 and raises the attainable speedup from
    T^(1/9) to T^(1/6). The analysis assumes 2 T^(-1/9) ln(T)^(1/3) <= 1
    (cubed, the first-moment form 8 ln(T) <= T^(1/3)), which holds from
    T = 1,465,239 on: variance_m_base(1.0, T, 2.0) > 1 below it. Smaller
    horizons build all the same, since small-T behaviour is itself of interest.
    """
    horizon = int(horizon)
    beta_default = default_beta(horizon)  # rejects T < 3 even when beta is given
    c = radius / math.sqrt(horizon) if c is None else c
    if m is None and estimator is FirstMomentEMA:
        m = ((8.0 if m_coeff is None else m_coeff) * max_level
             * horizon ** (-1.0 / 6.0) * math.sqrt(math.log(horizon)))
    elif m is None:
        m = variance_m_base(max_level, horizon, 2.0 if m_coeff is None else m_coeff)
    beta = beta_default if beta is None else beta
    if estimator is WindowAverage:  # a width, not a decay
        est = WindowAverage(window if window is not None else max(1, horizon // 10))
    elif estimator is PowerEMA:
        est = PowerEMA(beta, 2.0 if p is None else p)
    else:
        est = estimator(beta)
    return AdaptiveStep(c, m, est)


def make_variance_adaptive(problem, max_level: float, horizon: int,
                           c: float | None = None, m_coeff: float | None = None,
                           beta: float | None = None) -> PairedAdaptiveStep:
    """Variance-adaptive policy; needs the problem's smoothness constant.

    Default c is R / sqrt(T) on convex problems and sqrt(2 delta / (L T)) on
    nonconvex ones. The correction m = m_base + 2cL caps every stepsize
    c/(sigma_hat + m) at 1/(2L).
    """
    problem.step_cap()  # rejects an L that is None or not positive
    beta_default = default_beta(horizon)  # rejects T < 3 even when beta is given
    if c is None:
        if problem.convex:
            c = problem.radius / math.sqrt(horizon)
        else:
            c = math.sqrt(2.0 * problem.initial_gap() / (problem.L * horizon))
    m_base = variance_m_base(max_level, horizon, 8.0 if m_coeff is None else m_coeff)
    m = m_base + 2.0 * c * problem.L
    beta = beta_default if beta is None else beta
    return PairedAdaptiveStep(c, m, VarianceEMA(beta))


def _nonconvex_steps(problem, total: float, levels=1.0):
    """Steps sqrt(2 delta / (L total)) / levels, clipped at the guarantees' cap
    problem.step_cap() = 1/(2L), which needs a positive L; clipping keeps runs
    valid when the noise floor is too low for the raw formula. A clipped step
    equals step_cap() exactly."""
    cap, delta, L = problem.step_cap(), problem.initial_gap(), problem.L
    if delta <= 0:
        raise ValueError("delta must be positive")
    return np.minimum(math.sqrt(2.0 * delta / (L * total)) / levels, cap)


def nonconvex_constant_baseline(problem, schedule) -> FixedStep:
    """eta = sqrt(2 delta / (L sum_k level_k^2)) at every k, clipped at 1/(2L)."""
    return FixedStep(float(_nonconvex_steps(problem, _noise_energy(schedule))))


def nonconvex_idealized_baseline(problem, schedule) -> ScheduledStep:
    """eta_k = sqrt(2 delta / (L T)) / level_k, clipped at 1/(2L)."""
    return ScheduledStep(_nonconvex_steps(problem, schedule.horizon,
                                          _positive_levels(schedule)))


# -- the policy table: name -> build -------------------------------------------
# build(problem, schedule, overrides) honours overrides["c"] as the step scale,
# a None override meaning unset, and returns a policy that carries its bound.
# Builders and bounds look factories and analysis functions up by name on each
# call, so wrappers installed there see them.

def _build_constant(problem, schedule, ov):
    if ov.get("c") is not None:
        return FixedStep(ov["c"])
    if problem.convex:
        return constant_baseline(problem.radius, schedule)
    return nonconvex_constant_baseline(problem, schedule)


def _build_idealized(problem, schedule, ov):
    if ov.get("c") is not None:
        return ScheduledStep(ov["c"] / schedule.levels())
    if problem.convex:
        return idealized_baseline(problem.radius, schedule)
    return nonconvex_idealized_baseline(problem, schedule)


def _build_adaptive(estimator, problem, schedule, ov):
    return make_adaptive(problem.radius, schedule.max_level(), schedule.horizon,
                         m_coeff=ov.get("m_coeff"), c=ov.get("c"),
                         m=ov.get("m"), beta=ov.get("beta"),
                         estimator=estimator,
                         p=ov.get("p"), window=ov.get("window"))


def _build_variance_adaptive(problem, schedule, ov):
    return make_variance_adaptive(problem, schedule.max_level(), schedule.horizon,
                                  c=ov.get("c"), m_coeff=ov.get("m_coeff"),
                                  beta=ov.get("beta"))


POLICIES = {
    "constant": _build_constant,
    "idealized": _build_idealized,
    "adaptive": partial(_build_adaptive, SecondMomentEMA),
    "adaptive_first_moment": partial(_build_adaptive, FirstMomentEMA),
    "pnorm": partial(_build_adaptive, PowerEMA),
    "window": partial(_build_adaptive, WindowAverage),
    "variance_adaptive": _build_variance_adaptive,
}
