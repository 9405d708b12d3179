"""Named verification suites for the library's convergence guarantees.

Each suite runs a fixed, seeded experiment and reports per-criterion
pass/fail with the measured value and the bound or window it is checked
against. The suites back both the ``verify`` CLI subcommand and the
acceptance test module, so the tested tolerances live in exactly one place.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

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
    details: dict = field(default_factory=dict)

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
        return {
            "suite": self.suite,
            "passed": bool(self.passed),
            "criteria": [
                {
                    "name": c.name,
                    "passed": bool(c.passed),
                    "measured": float(c.measured),
                    "bound": float(c.bound),
                    "comparator": c.comparator,
                    "details": c.details,
                }
                for c in self.criteria
            ],
        }


def _reference_quadratic(radius: float = 1.0):
    # Log-spaced curvature keeps averaged SGD noise-dominated over the whole
    # tested horizon range; a well-conditioned problem would collapse every
    # method onto the fast strongly-convex rate and hide the separations.
    return make_quadratic(seed=0, dim=40, n=80, radius=radius, cond=1e6)


def _run_seeds(problem, schedule, name, horizon, seeds, overrides=None):
    """Yield (policy, record) per seed, each run with its own oracle and policy;
    records are not kept, so a suite holds one run's traces at a time."""
    build, _ = pol.POLICIES[name]
    for seed in seeds:
        oracle = Oracle(problem, schedule, seed=seed)
        policy = build(problem, schedule, horizon, overrides or {})
        if policy.uses_pairs:
            runner = run_variance_adaptive
        elif problem.convex:
            runner = run_convex
        else:
            runner = run_nonconvex
        yield policy, runner(problem, oracle, policy, horizon, seed=seed)


def _finals_and_bound(problem, schedule, name, horizon, seeds, overrides=None):
    """Each seed's final metric, the last seed's policy, and its bound as a
    function of the bound constant: the POLICIES bound that results.csv reports."""
    bound = pol.POLICIES[name][1]
    finals = []
    for policy, rec in _run_seeds(problem, schedule, name, horizon, seeds, overrides):
        finals.append(rec.final_metric)
    return np.array(finals), policy, partial(bound, problem, schedule, policy, rec)


def _median_final(runs) -> float:
    """Median final metric; a failed run counts as infinitely bad."""
    return float(np.median([math.inf if r.failed else r.final_metric
                            for _, r in runs]))


# -- suites ------------------------------------------------------------------

def suite_jensen() -> SuiteResult:
    """Idealized rate never exceeds the constant rate; equality only when flat."""
    rng = np.random.default_rng(2024)
    radius = 1.0
    worst_gap = -math.inf
    strict_ok = True
    for _ in range(100):
        T = int(rng.integers(2, 400))
        levels = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=T))
        sched = NoiseSchedule.custom(levels)
        bc = analysis.bound_constant(radius, sched)
        bi = analysis.bound_idealized(radius, sched)
        worst_gap = max(worst_gap, (bi - bc) / bc)
        strict_ok &= bi < bc  # spread levels, strict inequality expected
    for alpha in (0.0, 0.05, 0.3):
        sched = NoiseSchedule.piecewise_linear(1000, alpha)
        bc = analysis.bound_constant(radius, sched)
        bi = analysis.bound_idealized(radius, sched)
        worst_gap = max(worst_gap, (bi - bc) / bc)
    flat = NoiseSchedule.constant(2.0, 50)
    eq_gap = abs(analysis.bound_idealized(radius, flat)
                 - analysis.bound_constant(radius, flat))
    crits = (
        CriterionResult("idealized-below-constant", worst_gap <= 1e-12,
                        worst_gap, 1e-12, "<=",
                        {"schedules": 103}),
        CriterionResult("strict-on-nonconstant", strict_ok, float(strict_ok), 1.0, ">="),
        CriterionResult("equality-on-constant", eq_gap <= 1e-12, eq_gap, 1e-12, "<="),
    )
    return SuiteResult("jensen", crits)


def suite_regret() -> SuiteResult:
    """EMA estimator regret stays under its sublinear cap.

    Measured at a point with zero gradient, so the injected level is exactly
    the root second moment of the samples. The cap plugs in the generic
    variation allowance D^2 = 4 M^2 rather than the schedule's own variation.
    """
    problem = make_quadratic(seed=3, dim=10, n=40, radius=1.0)
    crits = []
    for T in (1_000, 10_000):
        sched = NoiseSchedule.piecewise_linear(T, 0.5)
        beta = default_beta(T)
        targets = sched.levels() ** 2
        regrets = []
        for seed in range(20):
            oracle = Oracle(problem, sched, seed=seed)
            trace = run_estimation_only(oracle, problem.x_star, T,
                                        SecondMomentEMA(beta))
            regrets.append(regret(trace, targets))
        cap = regret_bound(max_level=1.0, variation_sq=4.0, horizon=T)
        mean_regret = float(np.mean(regrets))
        crits.append(CriterionResult(
            f"regret-T{T}", mean_regret <= cap, mean_regret, cap, "<=",
            {"beta": beta, "seeds": 20, "alpha": 0.5}))
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
    medians: dict[str, list] = {"constant": [], "idealized": [], "adaptive": []}
    for T in horizons:
        sched = NoiseSchedule.piecewise_linear(T, alpha)
        for name in medians:
            med = _median_final(_run_seeds(problem, sched, name, T, seeds))
            medians[name].append((T, med))
    fits = {name: analysis.fit_slope(pts) for name, pts in medians.items()}
    sep = fits["constant"].slope - fits["adaptive"].slope
    # Largest measured speedup over the constant baseline across the grid,
    # as an exponent; the analysis says it cannot beat ~1/9 by much.
    improvement = max(
        math.log(c_med / a_med) / math.log(T)
        for (T, c_med), (_, a_med) in zip(medians["constant"], medians["adaptive"]))
    crits = (
        CriterionResult("constant-slope", -0.60 <= fits["constant"].slope <= -0.40,
                        fits["constant"].slope, -0.5, "in [-0.60, -0.40]",
                        {"r_squared": fits["constant"].r_squared,
                         "medians": medians["constant"]}),
        CriterionResult("idealized-slope", -0.85 <= fits["idealized"].slope <= -0.65,
                        fits["idealized"].slope, -0.75, "in [-0.85, -0.65]",
                        {"r_squared": fits["idealized"].r_squared,
                         "medians": medians["idealized"]}),
        CriterionResult("adaptive-steeper-than-constant", sep >= 0.08, sep, 0.08, ">=",
                        {"adaptive_slope": fits["adaptive"].slope,
                         "r_squared": fits["adaptive"].r_squared,
                         "medians": medians["adaptive"],
                         "max_improvement_exponent": improvement}),
    )
    return SuiteResult("rates", crits)


def suite_theorem1() -> SuiteResult:
    """Mean suboptimality of both baselines under their stepsize-sequence bound."""
    problem = _reference_quadratic()
    T = 10_000
    seeds = range(30)
    crits = []
    for sched_name, sched in (("flat", NoiseSchedule.constant(1.0, T)),
                              ("ramp", NoiseSchedule.piecewise_linear(T, 0.25))):
        for pol_name in ("constant", "idealized"):
            finals, _, bound_at = _finals_and_bound(problem, sched, pol_name, T, seeds)
            bound = bound_at(32.0)
            mean = float(np.mean(finals))
            crits.append(CriterionResult(
                f"{pol_name}-on-{sched_name}", mean <= 1.1 * bound, mean,
                1.1 * bound, "<=", {"bound": bound, "seeds": 30}))
    return SuiteResult("theorem1", tuple(crits))


def suite_theorem2() -> SuiteResult:
    """At least half the seeds end under the adaptive high-probability bound."""
    problem = _reference_quadratic()
    T = 10_000
    sched = NoiseSchedule.piecewise_linear(T, 0.05)
    seeds = range(40)
    crits = []
    for m_coeff in (2.0, 8.0):
        finals, policy, bound_at = _finals_and_bound(
            problem, sched, "adaptive", T, seeds, {"m_coeff": m_coeff})
        bound_proved = bound_at(32.0)
        bound_stated = bound_at(4.0)
        frac32 = float(np.mean(finals <= bound_proved))
        frac4 = float(np.mean(finals <= bound_stated))
        crits.append(CriterionResult(
            f"half-under-bound-mcoeff{m_coeff:g}", frac32 >= 0.5, frac32, 0.5, ">=",
            {"bound_constant_32": bound_proved, "bound_constant_4": bound_stated,
             "fraction_under_4_constant": frac4, "m": policy.m,
             "median_final": float(np.median(finals))}))
    return SuiteResult("theorem2", tuple(crits))


def suite_adversarial() -> SuiteResult:
    """A single spike leaves the adaptive method behind the constant baseline."""
    problem = _reference_quadratic()
    T = 10_000
    sched = NoiseSchedule.adversarial_spike(T, 0.3)
    seeds = range(15)
    med_adaptive = _median_final(_run_seeds(problem, sched, "adaptive", T, seeds))
    med_constant = _median_final(_run_seeds(problem, sched, "constant", T, seeds))
    ratio = med_adaptive / med_constant
    crit = CriterionResult(
        "adaptive-slower-by-1.5x", ratio >= 1.5, ratio, 1.5, ">=",
        {"median_adaptive": med_adaptive, "median_constant": med_constant,
         "alpha": 0.3})
    return SuiteResult("adversarial", (crit,))


def suite_nonconvex() -> SuiteResult:
    """Stationarity bounds for the nonconvex baselines; exact stepsize cap."""
    problem = make_smooth_nonconvex(10, radius=1.0, seed=2)
    T = 10_000
    sched = NoiseSchedule.piecewise_linear(T, 0.3)
    delta = problem.initial_gap()
    seeds = range(30)
    crits = []
    for pol_name in ("constant", "idealized"):
        finals, _, bound_at = _finals_and_bound(problem, sched, pol_name, T, seeds)
        bound = bound_at(32.0)
        mean = float(np.mean(finals))
        crits.append(CriterionResult(
            f"{pol_name}-stationarity", mean <= 1.2 * bound, mean, 1.2 * bound,
            "<=", {"bound": bound, "delta": delta, "seeds": 30}))
    cap = 1.0 / (2.0 * problem.L)
    worst = max(float(rec.stepsizes.max()) for _, rec in _run_seeds(
        problem, sched, "variance_adaptive", T, seeds))
    crits.append(CriterionResult(
        "paired-stepsize-cap", worst <= cap, worst, cap, "<=",
        {"enforced": "on every iteration of every run"}))
    return SuiteResult("nonconvex", tuple(crits))


def _tuned_median(problem, sched, method, horizon, seeds):
    """Grid search the stepsize scale over powers of ten; smaller wins ties."""
    best_c, best_med = None, math.inf
    for c in TUNING_GRID:
        med = _median_final(_run_seeds(problem, sched, method, horizon, seeds,
                                       {"c": c}))
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
    tuned = {name: _tuned_median(problem, sched, name, T, seeds)
             for name in ("constant", "idealized", "adaptive", "variance_adaptive")}
    med = {name: v[1] for name, v in tuned.items()}
    delta = 0.1
    pairs = (("idealized", "variance_adaptive"),
             ("variance_adaptive", "adaptive"),
             ("adaptive", "constant"))
    crits = []
    for lo, hi in pairs:
        ok = med[lo] <= med[hi] * (1.0 + delta)
        crits.append(CriterionResult(
            f"{lo}<={hi}", ok, med[lo], med[hi] * (1.0 + delta), "<=",
            {"tuned_c": {name: tuned[name][0] for name in (lo, hi)},
             "medians": {name: med[name] for name in (lo, hi)}}))
    return SuiteResult("ordering", tuple(crits))


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return SUITES[name]()
