"""Named verification suites for the library's convergence guarantees.

Each suite runs a fixed, seeded experiment and reports per-criterion
pass/fail with the measured value and the bound or window it is checked
against. The suites back both the ``verify`` CLI subcommand and the
acceptance test module, so the tested tolerances live in exactly one place.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import analysis, policy as pol
from .estimator import SecondMomentEMA, default_beta, regret, regret_bound
from .oracle import Oracle
from .problems import make_quadratic, make_smooth_nonconvex
from .runner import (run_convex, run_estimation_only, run_nonconvex,
                     run_variance_adaptive)
from .schedule import NoiseSchedule

TUNING_GRID = tuple(10.0 ** k for k in range(-4, 3))  # powers of ten, k in [-4, 2]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    measured: float
    bound: float
    comparator: str
    details: dict

    def describe(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return (f"{state} {self.name}: measured {self.measured:.6g} "
                f"{self.comparator} {self.bound:.6g}")


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    criteria: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def to_dict(self) -> dict:
        # bool()/float() strip any numpy scalars so the report stays
        # JSON-serializable regardless of how a suite computed its values
        return {"suite": self.suite, "passed": bool(self.passed), "criteria": [
            {**asdict(c), "passed": bool(c.passed), "measured": float(c.measured),
             "bound": float(c.bound)} for c in self.criteria]}


# Every criterion is built by one of these: each writes its comparator and
# derives the verdict from it, so a NaN or infinite measurement always fails.
# The leading parameters are positional-only: some details carry a "bound" key.

def _at_most(name, measured, bound, /, **details) -> CriterionResult:
    return CriterionResult(name, math.isfinite(measured) and measured <= bound,
                           measured, bound, "<=", details)


def _at_least(name, measured, bound, /, **details) -> CriterionResult:
    return CriterionResult(name, math.isfinite(measured) and measured >= bound,
                           measured, bound, ">=", details)


def _within(name, measured, low, high, target, /, **details) -> CriterionResult:
    """measured in [low, high]; the report's bound is the window's target."""
    return CriterionResult(name, low <= measured <= high, measured, target,
                           f"in [{low:.2f}, {high:.2f}]", details)


def _reference_quadratic(radius: float = 1.0):
    # Log-spaced curvature keeps averaged SGD noise-dominated over the whole
    # tested horizon range; a well-conditioned problem would collapse every
    # method onto the fast strongly-convex rate and hide the separations.
    return make_quadratic(seed=0, dim=40, n=80, radius=radius, cond=1e6)


def _finals(problem, schedule, name, seeds, overrides=None,
            metric=lambda rec: rec.final_metric) -> np.ndarray:
    """Each seed's ``metric`` of its run's record, a failed run's as inf: the one
    seam between the suites and their runs. Records are not kept, so a suite
    holds one run's traces at a time."""
    values = []
    for seed in seeds:
        oracle = Oracle(problem, schedule, seed=seed)
        policy = pol.POLICIES[name](problem, schedule, overrides or {})
        if policy.uses_pairs:
            runner = run_variance_adaptive
        elif problem.convex:
            runner = run_convex
        else:
            runner = run_nonconvex
        rec = runner(oracle, policy)
        values.append(math.inf if rec.failed else metric(rec))
    return np.array(values)


def _median(problem, schedule, name, seeds, overrides=None) -> float:
    """The median final metric over the seeds, a failed run's counted as inf."""
    return float(np.median(_finals(problem, schedule, name, seeds, overrides)))


def _mean_under_bound(name, problem, schedule, method, seeds, slack, /, **details):
    """Mean final metric over the seeds at most slack x the method's bound at C = 32,
    the bound of a policy built as the runs' policies are."""
    finals = _finals(problem, schedule, method, seeds)
    bound = pol.POLICIES[method](problem, schedule, {}).bound(problem, schedule,
                                                              analysis.C_PROVED)
    return _at_most(name, float(np.mean(finals)), slack * bound, bound=bound,
                    seeds=len(seeds), **details)


# -- suites ------------------------------------------------------------------

def suite_jensen() -> SuiteResult:
    """Idealized rate never exceeds the constant rate; equality only when flat."""
    def bounds(sched):  # (constant, idealized) rate bounds at radius 1
        return analysis.bound_constant(1.0, sched), analysis.bound_idealized(1.0, sched)

    rng = np.random.default_rng(2024)
    spread = [bounds(NoiseSchedule.custom(np.exp(rng.uniform(
        np.log(1e-3), np.log(1e3), size=int(rng.integers(2, 400))))))
        for _ in range(100)]
    ramps = [bounds(NoiseSchedule.piecewise_linear(1000, alpha))
             for alpha in (0.0, 0.05, 0.3)]
    # spread levels, so the inequality is expected to be strict
    strict_ok = all(bi < bc for bc, bi in spread)
    flat_c, flat_i = bounds(NoiseSchedule.constant(2.0, 50))
    return SuiteResult("jensen", (
        _at_most("idealized-below-constant",
                 max((bi - bc) / bc for bc, bi in spread + ramps), 1e-12,
                 schedules=len(spread + ramps)),
        _at_least("strict-on-nonconstant", float(strict_ok), 1.0),
        _at_most("equality-on-constant", abs(flat_i - flat_c), 1e-12)))


def suite_regret() -> SuiteResult:
    """EMA estimator regret stays under its sublinear cap.

    Measured at a point with zero gradient, so the injected level is exactly
    the root second moment of the samples. The cap plugs in the generic
    variation allowance D^2 = 4 M^2 rather than the schedule's own variation.
    """
    problem = make_quadratic(seed=3, dim=10, n=40, radius=1.0)
    seeds = range(20)
    alpha = 0.5
    crits = []
    for T in (1_000, 10_000):
        sched = NoiseSchedule.piecewise_linear(T, alpha)
        beta = default_beta(T)
        targets = sched.levels() ** 2
        regrets = []
        for seed in seeds:
            oracle = Oracle(problem, sched, seed=seed)
            trace = run_estimation_only(oracle, problem.x_star, SecondMomentEMA(beta))
            regrets.append(regret(trace, targets))
        crits.append(_at_most(
            f"regret-T{T}", float(np.mean(regrets)),
            regret_bound(max_level=1.0, variation_sq=4.0, horizon=T),
            beta=beta, seeds=len(seeds), alpha=alpha))
    return SuiteResult("regret", tuple(crits))


def suite_rates() -> SuiteResult:
    """Empirical rate exponents on the ramp-plateau schedule, alpha = 0.25."""
    # The wider start radius strengthens the early gradient-norm inflation of
    # the online estimate, which is what separates the adaptive slope from
    # the constant baseline at small horizons.
    problem = _reference_quadratic(radius=2.0)
    horizons = (1_000, 3_000, 10_000, 30_000, 100_000)
    seeds = range(15)
    alpha = 0.25
    scheds = [NoiseSchedule.piecewise_linear(T, alpha) for T in horizons]
    medians = {name: [(s.horizon, _median(problem, s, name, seeds)) for s in scheds]
               for name in ("constant", "idealized", "adaptive")}
    fits = {name: analysis.fit_slope(pts) for name, pts in medians.items()}
    sep = fits["constant"].slope - fits["adaptive"].slope
    # Largest measured speedup over the constant baseline across the grid,
    # as an exponent; the analysis says it cannot beat ~1/9 by much.
    improvement = max(
        math.log(ratio) / math.log(T) if (ratio := c_med / a_med) > 0 else -math.inf
        for (T, c_med), (_, a_med) in zip(medians["constant"], medians["adaptive"]))
    return SuiteResult("rates", (
        _within("constant-slope", fits["constant"].slope, -0.60, -0.40, -0.5,
                r_squared=fits["constant"].r_squared, medians=medians["constant"]),
        _within("idealized-slope", fits["idealized"].slope, -0.85, -0.65, -0.75,
                r_squared=fits["idealized"].r_squared, medians=medians["idealized"]),
        _at_least("adaptive-steeper-than-constant", sep, 0.08,
                  adaptive_slope=fits["adaptive"].slope,
                  r_squared=fits["adaptive"].r_squared, medians=medians["adaptive"],
                  max_improvement_exponent=improvement)))


def suite_theorem1() -> SuiteResult:
    """Mean suboptimality of both baselines under their stepsize-sequence bound."""
    problem = _reference_quadratic()
    T = 10_000
    seeds = range(30)
    return SuiteResult("theorem1", tuple(
        _mean_under_bound(f"{pol_name}-on-{sched_name}", problem, sched, pol_name,
                          seeds, 1.1)
        for sched_name, sched in (("flat", NoiseSchedule.constant(1.0, T)),
                                  ("ramp", NoiseSchedule.piecewise_linear(T, 0.25)))
        for pol_name in ("constant", "idealized")))


def suite_theorem2() -> SuiteResult:
    """At least half the seeds end under the adaptive high-probability bound."""
    problem = _reference_quadratic()
    T = 10_000
    sched = NoiseSchedule.piecewise_linear(T, 0.05)
    seeds = range(40)
    crits = []
    for ov in ({"m_coeff": 2.0}, {"m_coeff": 8.0}):
        finals = _finals(problem, sched, "adaptive", seeds, ov)
        policy = pol.POLICIES["adaptive"](problem, sched, ov)  # as the runs built it
        bound_proved = policy.bound(problem, sched, analysis.C_PROVED)
        bound_stated = policy.bound(problem, sched, analysis.C_HEADLINE)
        crits.append(_at_least(
            f"half-under-bound-mcoeff{ov['m_coeff']:g}",
            float(np.mean(finals <= bound_proved)), 0.5,
            bound_constant_32=bound_proved, bound_constant_4=bound_stated,
            fraction_under_4_constant=float(np.mean(finals <= bound_stated)),
            m=policy.m, median_final=float(np.median(finals))))
    return SuiteResult("theorem2", tuple(crits))


def suite_adversarial() -> SuiteResult:
    """A single spike leaves the adaptive method behind the constant baseline."""
    problem = _reference_quadratic()
    T = 10_000
    alpha = 0.3
    sched = NoiseSchedule.adversarial_spike(T, alpha)
    seeds = range(15)
    med_adaptive = _median(problem, sched, "adaptive", seeds)
    med_constant = _median(problem, sched, "constant", seeds)
    return SuiteResult("adversarial", (_at_least(
        "adaptive-slower-by-1.5x", med_adaptive / med_constant, 1.5,
        median_adaptive=med_adaptive, median_constant=med_constant, alpha=alpha),))


def suite_nonconvex() -> SuiteResult:
    """Stationarity bounds for the nonconvex baselines; exact stepsize cap."""
    problem = make_smooth_nonconvex(10, radius=1.0, seed=2)
    T = 10_000
    sched = NoiseSchedule.piecewise_linear(T, 0.3)
    delta = problem.initial_gap()
    seeds = range(30)
    # an over-cap step aborts its run before it is recorded, so it reads as inf
    worst = _finals(problem, sched, "variance_adaptive", seeds,
                    metric=lambda rec: rec.stepsizes.max()).max()
    return SuiteResult("nonconvex", (
        *(_mean_under_bound(f"{pol_name}-stationarity", problem, sched, pol_name,
                            seeds, 1.2, delta=delta)
          for pol_name in ("constant", "idealized")),
        _at_most("paired-stepsize-cap", worst, problem.step_cap(),
                 enforced="on every iteration of every run")))


def _tuned_median(problem, sched, method, seeds):
    """Grid search the stepsize scale over powers of ten; smaller wins ties."""
    best_c, best_med = None, math.inf
    for c in TUNING_GRID:
        med = _median(problem, sched, method, seeds, {"c": c})
        if med < best_med:
            best_c, best_med = c, med
    return best_c, best_med


def suite_ordering() -> SuiteResult:
    """Four methods with grid-tuned scales finish in the expected order.

    Expected: idealized <= variance-adaptive <= adaptive <= constant on the
    final median suboptimality, with 10 percent rank tolerance.
    """
    problem = _reference_quadratic()
    T = 2_000
    sched = NoiseSchedule.piecewise_linear(T, 1.0)
    seeds = range(10)
    tuned = {name: _tuned_median(problem, sched, name, seeds)
             for name in ("constant", "idealized", "adaptive", "variance_adaptive")}
    med = {name: v[1] for name, v in tuned.items()}
    delta = 0.1
    pairs = (("idealized", "variance_adaptive"),
             ("variance_adaptive", "adaptive"),
             ("adaptive", "constant"))
    return SuiteResult("ordering", tuple(
        _at_most(f"{lo}<={hi}", med[lo], med[hi] * (1.0 + delta),
                 tuned_c={name: tuned[name][0] for name in (lo, hi)},
                 medians={name: med[name] for name in (lo, hi)})
        for lo, hi in pairs))


SUITES = {
    "jensen": suite_jensen,
    "regret": suite_regret,
    "rates": suite_rates,
    "theorem1": suite_theorem1,
    "theorem2": suite_theorem2,
    "nonconvex": suite_nonconvex,
    "adversarial": suite_adversarial,
    "ordering": suite_ordering,
}


def run_suite(name: str) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite name: {name!r}; known: {', '.join(SUITES)}")
    return SUITES[name]()
