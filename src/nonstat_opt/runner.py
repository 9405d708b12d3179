"""Optimization loop execution and trajectory records.

A run owns its oracle and policy, so many runs can execute concurrently
without sharing mutable state. Iterate vectors are never retained: the
stepsize-weighted average is accumulated online, and the nonconvex output
index is drawn after the loop from the recorded stepsizes.

Hot-path products go through ``ndarray.dot`` and per-iteration scalars are 0-d
arrays: the same bits as ``@`` and floats (test_hot_path_forms_keep_the_bits).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import SquaredNorms

_SAMPLER_SALT = 0x5E11  # decorrelates the index-sampling stream from the oracle's
_HALF = np.array(0.5)
_HALF.flags.writeable = False


@dataclass
class RunRecord:
    """Everything recorded about one optimization run."""

    stepsizes: np.ndarray
    suboptimality: np.ndarray | None = None  # f(x_k) - f*, only if asked for
    grad_norm_sq: np.ndarray | None = None
    estimator_trace: np.ndarray | None = None
    squared_trace: bool = False
    x_bar: np.ndarray | None = None
    sampled_index: int | None = None
    final_metric: float = math.nan
    oracle_queries: int = 0
    failed: bool = False
    failure_reason: str | None = None
    # Set by no run; perfbench/test_perfbench.py::test_completed_iterations sets them.
    policy: str | None = None
    seed: int | None = None
    horizon: int | None = None


def weighted_index(rng: np.random.Generator, weights: np.ndarray) -> int:
    """Index k in 1..n with probability weights[k-1] / sum(weights), weights[0] > 0:
    the last k with u_k * (w_1 + ... + w_k) < w_k, the online reservoir rule."""
    hits = np.flatnonzero(rng.random(len(weights)) * np.cumsum(weights) < weights)
    return int(hits[-1]) + 1


def _run(oracle, policy, trace_values: bool = False) -> RunRecord:
    """SGD x_{k+1} = x_k - eta_k g_k; paired policies step with the pair average.

    The problem, the horizon T (the schedule's length) and the seed are the
    oracle's. With an estimator, every run traces the estimator's value (read
    by the ``regret`` column). ``problem.convex`` fixes the output: the
    stepsize-weighted average x_bar of the query points x_1..x_T, or else a
    stepsize-weighted random index with eta_k <= 1/(2L) enforced; both read
    the recorded steps after the loop, summed by cumsum, in order as online
    sums add (``sum`` is pairwise and moves the bits). A non-convex run
    traces ||grad f(x_k)||^2, which its output index reads. ``trace_values``
    adds, to a convex run, the f(x_k) - f* trace (one value() call per
    iteration) and the ||grad f(x_k)||^2 trace; only the ``run`` command
    reads them, for its trajectory file and its printed noise ratio.
    eta_k is fixed before g_k is drawn. A ValueError in the loop (the cap, a
    degenerate denominator, a step of 0, a non-finite iterate) ends the run as
    a failed record, "aborted at iteration k: <cause>", that keeps its queries.
    """
    problem, T, seed = oracle.problem, oracle.schedule.horizon, oracle.seed
    averaged = problem.convex
    grad_sq = np.zeros(T) if trace_values or not averaged else None
    record = RunRecord(stepsizes=np.zeros(T), grad_norm_sq=grad_sq,
                       squared_trace=isinstance(policy.estimator, SquaredNorms))
    if policy.estimator is not None:
        record.estimator_trace = np.zeros(T)
    x, step = problem.start.astype(float), np.zeros(())  # step holds eta_k
    if averaged:
        if trace_values:
            record.suboptimality = np.zeros(T)
        xbar_acc = np.zeros_like(x)
    else:
        cap = problem.step_cap()  # before init, so a bad L draws no query
    with np.errstate(over="ignore", invalid="ignore"):
        policy.init(oracle, x)
        try:
            for k in range(1, T + 1):
                eta = policy.stepsize(k)
                if not averaged and eta > cap * (1.0 + 1e-12):
                    raise ValueError(
                        f"stepsize {eta:.4g} exceeds the smoothness cap {cap:.4g}")
                record.stepsizes[k - 1] = step[()] = eta
                if record.estimator_trace is not None:
                    record.estimator_trace[k - 1] = policy.estimator.value
                if record.suboptimality is not None:
                    record.suboptimality[k - 1] = problem.value(x) - problem.f_star
                if averaged:
                    xbar_acc += step * x
                if policy.uses_pairs:
                    g1, g2, true_grad = oracle.query_pair(x, k, with_true=True)
                    policy.observe(g1, g2)
                    g = _HALF * (g1 + g2)
                else:
                    g, true_grad = oracle.query(x, k, with_true=True)
                    policy.observe(g)
                if grad_sq is not None:
                    grad_sq[k - 1] = true_grad.dot(true_grad)
                x = x - step * g
                # x.x is finite unless an entry is inf or nan or the squares
                # overflow (|x| above ~1e154), which the entrywise check clears
                if not math.isfinite(x.dot(x)) and not np.isfinite(x).all():
                    raise ValueError("iterate overflow or NaN")
        except ValueError as exc:
            record.failed = True
            record.failure_reason = f"aborted at iteration {k}: {exc}"
    record.oracle_queries = oracle.query_count
    if record.failed:
        return record
    if averaged:
        record.x_bar = xbar_acc / np.cumsum(record.stepsizes)[-1]
        record.final_metric = problem.value(record.x_bar) - problem.f_star
    else:
        rng = np.random.default_rng([seed, _SAMPLER_SALT])
        record.sampled_index = weighted_index(rng, record.stepsizes)
        record.final_metric = float(grad_sq[record.sampled_index - 1])
    return record


def run_convex(oracle, policy, trace_values: bool = False) -> RunRecord:
    """SGD on a convex problem."""
    if not oracle.problem.convex:
        raise ValueError("run_convex needs a convex problem")
    return _run(oracle, policy, trace_values)


def run_nonconvex(oracle, policy) -> RunRecord:
    """Single-sample SGD on a non-convex problem with a positive smoothness constant."""
    if oracle.problem.convex:
        raise ValueError("run_nonconvex needs a non-convex problem")
    if policy.uses_pairs:
        raise ValueError("paired policies go through run_variance_adaptive")
    return _run(oracle, policy)


def run_variance_adaptive(oracle, policy, trace_values: bool = False) -> RunRecord:
    """Paired-sample SGD: step with the pair average, estimate the variance
    from the pair difference."""
    if not policy.uses_pairs:
        raise ValueError("run_variance_adaptive needs a paired policy")
    return _run(oracle, policy, trace_values)


def run_estimation_only(oracle, x: np.ndarray, estimator) -> np.ndarray:
    """Feed the schedule's T oracle samples at a fixed point through an estimator.

    Returns the trace of values in effect at each iteration (the value the
    stepsize rule would have used, before seeing that iteration's gradient).
    Consumes T + 1 queries: one to initialize, then one per iteration.
    """
    T = oracle.schedule.horizon
    trace = np.zeros(T)
    estimator.initialize(oracle.query(x, 1))
    for k in range(1, T + 1):
        trace[k - 1] = estimator.value
        estimator.update(oracle.query(x, k))
    return trace
