"""Optimization loop execution and trajectory records.

A run owns its oracle, policy and (for index sampling) generator, so many
runs can execute concurrently without sharing mutable state. Iterate vectors
are never retained: the stepsize-weighted average is accumulated online and
the nonconvex output index is drawn by weighted reservoir sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SAMPLER_SALT = 0x5E11  # decorrelates the index-sampling stream from the oracle's


@dataclass
class RunRecord:
    """Everything recorded about one optimization run."""

    policy: str
    seed: int
    horizon: int
    stepsizes: np.ndarray
    suboptimality: np.ndarray | None = None
    grad_norm_sq: np.ndarray | None = None
    estimator_trace: np.ndarray | None = None
    estimator_kind: str | None = None
    x_bar: np.ndarray | None = None
    sampled_index: int | None = None
    final_metric: float = math.nan
    oracle_queries: int = 0
    mean_grad_noise_ratio: float = math.nan
    failed: bool = False
    failure_reason: str | None = None


class WeightedIndexReservoir:
    """Online draw of an index with probability proportional to its weight."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.total = 0.0
        self.index: int | None = None

    def offer(self, index: int, weight: float) -> None:
        self.total += weight
        if self._rng.random() * self.total < weight:
            self.index = index


def _run(problem, oracle, policy, horizon: int, seed: int, averaged: bool) -> RunRecord:
    """SGD x_{k+1} = x_k - eta_k g_k; paired policies step with the pair average.

    Every run traces ||grad f(x_k)||^2. ``averaged`` selects the output: the
    stepsize-weighted average of the query points x_1..x_T with an f(x_k)
    trace, or a stepsize-weighted random index with eta_k <= 1/(2L)
    enforced. eta_k is fixed before g_k is drawn. Overflow is reported by
    the finiteness check, not by numpy warnings.
    """
    T = int(horizon)
    grad_sq = np.zeros(T)
    record = RunRecord(policy=policy.name, seed=seed, horizon=T,
                       stepsizes=np.zeros(T), grad_norm_sq=grad_sq,
                       estimator_kind=getattr(policy.estimator, "kind", None))
    if policy.estimator is not None:
        record.estimator_trace = np.zeros(T)
    x = problem.start.astype(float).copy()
    if averaged:
        record.suboptimality = np.zeros(T)
        xbar_acc = np.zeros_like(x)
        eta_sum = 0.0
    else:
        cap = 1.0 / (2.0 * problem.L)
        reservoir = WeightedIndexReservoir(np.random.default_rng([seed, _SAMPLER_SALT]))
    with np.errstate(over="ignore", invalid="ignore"):
        policy.init(oracle, x)
        for k in range(1, T + 1):
            eta = policy.stepsize(k)
            if not averaged and eta > cap * (1.0 + 1e-12):
                raise ValueError(
                    f"stepsize {eta:.4g} at k={k} exceeds the smoothness cap {cap:.4g}")
            record.stepsizes[k - 1] = eta
            if record.estimator_trace is not None:
                record.estimator_trace[k - 1] = policy.estimator.value
            if averaged:
                record.suboptimality[k - 1] = problem.value(x) - problem.f_star
                xbar_acc += eta * x
                eta_sum += eta
            else:
                reservoir.offer(k, eta)
            if policy.uses_pairs:
                g1, g2, true_grad = oracle.query_pair(x, k, with_true=True)
                policy.observe(g1, g2)
                g = 0.5 * (g1 + g2)
            else:
                g, true_grad = oracle.query(x, k, with_true=True)
                policy.observe(g)
            grad_sq[k - 1] = true_grad @ true_grad
            x = x - eta * g
            if not np.all(np.isfinite(x)):
                record.failed = True
                record.failure_reason = f"aborted at iteration {k}: iterate overflow or NaN"
                record.oracle_queries = oracle.query_count
                return record
    if averaged:
        record.x_bar = xbar_acc / eta_sum
        record.final_metric = problem.value(record.x_bar) - problem.f_star
    else:
        record.sampled_index = reservoir.index
        record.final_metric = float(grad_sq[reservoir.index - 1])
    record.oracle_queries = oracle.query_count
    levels = oracle.schedule.levels()[:T]
    level_sq = levels * levels
    noisy = level_sq > 0.0  # level^2 can underflow to zero for subnormal levels
    if noisy.any():  # cumsum adds left to right, unlike np.sum's pairwise tree
        ratios = grad_sq[noisy] / level_sq[noisy]
        record.mean_grad_noise_ratio = float(np.cumsum(ratios)[-1]) / ratios.size
    return record


def run_convex(problem, oracle, policy, horizon: int, seed: int) -> RunRecord:
    """SGD with output x_bar = sum(eta x)/sum(eta) over the query points x_1..x_T."""
    if not problem.convex:
        raise ValueError("run_convex needs a convex problem")
    return _run(problem, oracle, policy, horizon, seed, True)


def run_nonconvex(problem, oracle, policy, horizon: int, seed: int) -> RunRecord:
    """Single-sample SGD on a smooth problem; outputs a stepsize-weighted
    random iterate index and its squared gradient norm."""
    if problem.L is None or problem.L <= 0:
        raise ValueError("run_nonconvex needs a problem with a known smoothness constant")
    if policy.uses_pairs:
        raise ValueError("paired policies go through run_variance_adaptive")
    return _run(problem, oracle, policy, horizon, seed, False)


def run_variance_adaptive(problem, oracle, policy, horizon: int, seed: int) -> RunRecord:
    """Paired-sample run: step with the pair average, estimate the variance
    from the pair difference. Convex problems report the weighted-average
    output; others report a stepsize-weighted random iterate."""
    if not policy.uses_pairs:
        raise ValueError("run_variance_adaptive needs a paired policy")
    return _run(problem, oracle, policy, horizon, seed, problem.convex)


def run_estimation_only(oracle, x: np.ndarray, horizon: int, estimator) -> np.ndarray:
    """Feed T oracle samples at a fixed point through an estimator.

    Returns the trace of values in effect at each iteration (the value the
    stepsize rule would have used, before seeing that iteration's gradient).
    Consumes T + 1 queries: one to initialize, then one per iteration.
    """
    T = int(horizon)
    trace = np.zeros(T)
    estimator.initialize(oracle.query(x, 1))
    for k in range(1, T + 1):
        trace[k - 1] = estimator.value
        estimator.update(oracle.query(x, k))
    return trace
