"""SGD with noise-adaptive stepsizes under non-stationary gradient noise."""

from .schedule import NoiseSchedule, ScheduleSummary
from .problems import (Problem, Quadratic, SmoothNonconvex, make_quadratic,
                       make_smooth_nonconvex, power_iteration)
from .oracle import Oracle
from .estimator import (FirstMomentEMA, PowerEMA, SecondMomentEMA,
                        VarianceEMA, WindowAverage, default_beta, regret,
                        regret_bound)
from .policy import (AdaptiveStep, FixedStep, PairedAdaptiveStep,
                     ScheduledStep, StepPolicy, adaptive_defaults,
                     constant_baseline, constant_stepsize,
                     first_moment_defaults, idealized_baseline,
                     idealized_stepsize, make_adaptive,
                     make_variance_adaptive, nonconvex_constant_baseline,
                     nonconvex_idealized_baseline, variance_adaptive_correction,
                     variance_m_base)
from .runner import (RunRecord, WeightedIndexReservoir, run_convex,
                     run_estimation_only, run_nonconvex, run_variance_adaptive)
from .analysis import (BoundReport, SlopeFit, adaptive_bound,
                       adaptive_stationarity_bound, bound_constant,
                       bound_idealized, bound_report, classify_regime,
                       fit_slope, regret_from_run, stationarity_bound,
                       suboptimality_bound)

__version__ = "0.1.0"
