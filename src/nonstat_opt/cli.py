"""Configuration-driven experiment harness.

Subcommands: ``run`` (one run, with its trajectory dump), ``sweep``
(policy x T x alpha x seed grid), ``verify`` (named guarantee suites) and
``schedule-dump`` (schedule values as CSV for external plotting).

Configuration lives in a JSON file whose keys, types and defaults are stated
once, in ``SCHEMA``; a command-line flag replaces its key's value before the
one parse that converts every value. Sweep output is byte-deterministic for a
given config: rows are emitted in sorted order, and the wall-time column stays
zero unless timing collection is explicitly requested via ``--timings``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import analysis
from .estimator import SQUARED_KINDS
from .oracle import Oracle
from .policy import POLICIES
from .problems import make_quadratic, make_smooth_nonconvex
from .runner import (RunRecord, run_convex, run_nonconvex,
                     run_variance_adaptive)
from .schedule import KINDS as SCHEDULE_KINDS, NoiseSchedule
from .verify import SUITES, run_suite

CSV_HEADER = ("config_hash,policy,T,alpha,seed,final_metric,bound_value,"
              "regret,oracle_queries,wall_time_ms")
TRAJECTORY_HEADER = "k,eta,suboptimality_or_gradnormsq,estimator_value,true_level"


class ConfigError(ValueError):
    """Invalid experiment configuration; exits with code 2."""


# -- the config schema: key -> (converter, default) ---------------------------
# A converter turns a JSON value, or a flag's string, into its key's type and
# raises TypeError or ValueError on anything else; a list converter also splits
# a comma-separated string, so "--T 10,20" and "T": "10,20" are one value.

def _int(value) -> int:
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    if isinstance(value, bool) or not math.isfinite(number := float(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _range(convert, low, high=math.inf, low_open=False):
    """convert, then require low <= value < high, or low < value < high."""
    def check(value):
        value = convert(value)
        if (value <= low if low_open else value < low) or value >= high:
            raise ValueError(f"expected a value in {'(' if low_open else '['}{low}, "
                             f"{high}), got {value!r}")
        return value
    return check


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _one_of(convert, *allowed):
    def check(value):
        value = convert(value)
        if value not in allowed:
            raise ValueError(f"expected one of {', '.join(map(str, allowed))}, "
                             f"got {value!r}")
        return value
    return check


def _list(convert):
    def check(value):
        if isinstance(value, str):
            value = [item.strip() for item in value.split(",") if item.strip()]
        if not isinstance(value, list) or not value:
            raise ValueError(f"expected a non-empty list, got {value!r}")
        return [convert(item) for item in value]
    return check


# A dict value is a section. problem and schedule are merged with their
# defaults; overrides are kept as given, and a null one is unset like a missing
# one, leaving the policy's own default.
SCHEMA = {
    "problem": {"kind": (_one_of(str, "quadratic", "smooth_nonconvex"), "quadratic"),
                "dim": (_int, 10), "n": (_int, 40), "seed": (_int, 0),
                "radius": (_real, 1.0), "cond": (_optional(_real), None)},
    "schedule": {"kind": (_one_of(str, *SCHEDULE_KINDS), "piecewise_linear"),
                 "level": (_range(_real, 0), 1.0),
                 "path": (_optional(os.fspath), None)},
    "policies": (_list(_one_of(str, *POLICIES)), ["constant"]),
    "T": (_list(_range(_int, 3)), [1000]),
    "alpha": (_list(_range(_real, 0)), [0.5]),
    "seeds": (_list(_range(_int, 0)), [0]),
    "overrides": {"c": (_optional(_range(_real, 0, low_open=True)), None),
                  "m": (_optional(_range(_real, 0)), None),
                  "beta": (_optional(_range(_real, 0, 1, low_open=True)), None),
                  "p": (_optional(_range(_real, 0, low_open=True)), None),
                  "m_coeff": (_optional(_one_of(_int, 2, 8)), None),
                  "bound_const": (_optional(_one_of(_int, 4, 32, 12)), 32),
                  "window": (_optional(_range(_int, 1)), None)},
    "out": (os.fspath, "results"),
}


def _parse(prefix: str, given, schema: dict, fill: bool = True) -> dict:
    """A raw config or section converted; ``fill`` sets missing keys to their defaults."""
    if not isinstance(given, dict):
        raise ConfigError(f"{prefix[:-1] or 'config'}: expected an object, got {given!r}")
    unknown = sorted(set(given) - set(schema))
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown key; known: {', '.join(schema)}")
    values = {}
    for key in schema if fill else given:
        if isinstance(schema[key], dict):
            values[key] = _parse(f"{key}.", given.get(key, {}), schema[key],
                                 fill=key != "overrides")
        else:
            convert, default = schema[key]
            try:
                values[key] = convert(given.get(key, default))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{prefix}{key}: {exc}") from None
    return values


class ExperimentConfig(SimpleNamespace):
    """One converted value per SCHEMA key, plus ``timings`` (the --timings flag)
    and ``custom_schedule`` (a custom schedule's level file, read once)."""

    @classmethod
    def load(cls, args) -> "ExperimentConfig":
        """The --config file with every flag that was given laid over it, parsed."""
        raw = {}
        if args.config:
            try:
                raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        if isinstance(raw, dict):  # parse() rejects anything else
            given = {"out": args.out, "policies": args.policy, "T": args.T,
                     "alpha": args.alpha,
                     "seeds": None if args.seed is None else [args.seed]}
            raw.update((k, v) for k, v in given.items() if v is not None)
            given = {"m_coeff": args.m_coeff, "bound_const": args.bound_const}
            if isinstance(raw.setdefault("overrides", {}), dict):
                raw["overrides"].update((k, v) for k, v in given.items() if v is not None)
        return cls.parse(raw, timings=args.timings)

    @classmethod
    def parse(cls, raw, timings: bool = False) -> "ExperimentConfig":
        """Every value converted by SCHEMA; then a custom level file read and checked."""
        cfg = cls(**_parse("", raw, SCHEMA), timings=timings, custom_schedule=None)
        if cfg.schedule["kind"] == "custom":
            path = cfg.schedule["path"]
            if not path:
                raise ConfigError("schedule.path: a custom schedule needs a level file")
            try:
                cfg.custom_schedule = NoiseSchedule.from_file(path)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"schedule.path: {exc}") from None
            if set(cfg.T) != {cfg.custom_schedule.horizon}:
                raise ConfigError(f"schedule.path: {path} has {cfg.custom_schedule.horizon}"
                                  f" levels, but T is {cfg.T}")
        return cfg


def build_problem(cfg: ExperimentConfig):
    """The config's problem; a value its factory rejects is a ConfigError."""
    spec = cfg.problem
    try:
        if spec["kind"] == "quadratic":
            return make_quadratic(seed=spec["seed"], dim=spec["dim"], n=spec["n"],
                                  radius=spec["radius"], cond=spec["cond"])
        return make_smooth_nonconvex(dim=spec["dim"], radius=spec["radius"],
                                     seed=spec["seed"])
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from None


def build_schedule(cfg: ExperimentConfig, horizon: int, alpha: float) -> NoiseSchedule:
    """The cell's schedule; a custom one is the level file parse() read."""
    kind = cfg.schedule["kind"]
    if kind == "constant":
        return NoiseSchedule.constant(cfg.schedule["level"], horizon)
    if kind == "piecewise_linear":
        return NoiseSchedule.piecewise_linear(horizon, alpha)
    if kind == "adversarial_spike":
        return NoiseSchedule.adversarial_spike(horizon, alpha)
    return cfg.custom_schedule


@dataclass(frozen=True)
class ResultRow:
    config_hash: str
    policy: str
    horizon: int
    alpha: float
    seed: int
    final_metric: float
    bound_value: float
    regret: float | None
    oracle_queries: int
    wall_time_ms: int
    failed: bool

    def sort_key(self):
        return (self.policy, self.horizon, self.alpha, self.seed)

    def to_csv(self) -> str:
        reg = "" if self.regret is None else _fmt(self.regret)
        return ",".join([
            self.config_hash, self.policy, str(self.horizon), _fmt(self.alpha),
            str(self.seed), _fmt(self.final_metric), _fmt(self.bound_value),
            reg, str(self.oracle_queries), str(self.wall_time_ms)])


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(float(x), ".12g")


def _run_hash(cfg: ExperimentConfig, name: str, horizon: int, alpha: float,
              seed: int) -> str:
    resolved = {
        "problem": cfg.problem, "schedule": cfg.schedule, "policy": name,
        "T": horizon, "alpha": alpha, "seed": seed, "overrides": cfg.overrides,
    }
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def execute_run(cfg: ExperimentConfig, problem, name: str, horizon: int,
                alpha: float, seed: int):
    """One (policy, T, alpha, seed) cell: returns (ResultRow, RunRecord, schedule).

    A ValueError from building, running or bounding the cell gives a failed
    record that keeps the queries already drawn.
    """
    build, bound = POLICIES[name]
    bound_const = cfg.overrides.get("bound_const") or SCHEMA["overrides"]["bound_const"][1]
    schedule = oracle = None
    bound_value, regret_value = math.nan, None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            schedule = build_schedule(cfg, horizon, alpha)
            policy = build(problem, schedule, horizon, cfg.overrides)
            oracle = Oracle(problem, schedule, seed=seed)
            started = time.perf_counter()
            if policy.uses_pairs:
                record = run_variance_adaptive(problem, oracle, policy, horizon, seed)
            elif problem.convex:
                record = run_convex(problem, oracle, policy, horizon, seed)
            else:
                record = run_nonconvex(problem, oracle, policy, horizon, seed)
            elapsed_ms = int(round((time.perf_counter() - started) * 1000.0))
        if not record.failed:
            bound_value = bound(problem, schedule, policy, record, float(bound_const))
            if record.estimator_kind in SQUARED_KINDS:
                regret_value = analysis.regret_from_run(record, schedule)
    except ValueError as exc:
        record = RunRecord(policy=name, seed=seed, horizon=horizon,
                           stepsizes=np.zeros(0), failed=True,
                           failure_reason=str(exc),
                           oracle_queries=oracle.query_count if oracle else 0)
        bound_value, regret_value, elapsed_ms = math.nan, None, 0
    if record.failed:
        print(f"{name} T={horizon} alpha={_fmt(alpha)} seed={seed} failed: "
              f"{record.failure_reason}", file=sys.stderr)
    row = ResultRow(
        config_hash=_run_hash(cfg, name, horizon, alpha, seed),
        policy=name, horizon=horizon, alpha=alpha, seed=seed,
        final_metric=record.final_metric, bound_value=bound_value,
        regret=regret_value, oracle_queries=record.oracle_queries,
        wall_time_ms=elapsed_ms if cfg.timings else 0,
        failed=record.failed)
    return row, record, schedule


def run_sweep(cfg: ExperimentConfig) -> tuple[list[ResultRow], bool]:
    """All grid cells, one after another; rows come back sorted."""
    problem = build_problem(cfg)
    rows = [execute_run(cfg, problem, name, T, alpha, seed)[0]
            for name in cfg.policies for T in cfg.T
            for alpha in cfg.alpha for seed in cfg.seeds]
    rows.sort(key=ResultRow.sort_key)
    return rows, any(r.failed for r in rows)


def _write_lines(path: Path, lines) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_results_csv(rows, out_dir: Path) -> Path:
    return _write_lines(out_dir / "results.csv", [CSV_HEADER] + [r.to_csv() for r in rows])


def write_summary_csv(rows, out_dir: Path) -> Path:
    """Per-(policy, T, alpha) median of the final metric."""
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.policy, r.horizon, r.alpha), []).append(r.final_metric)
    lines = ["policy,T,alpha,seeds,median_final_metric"]
    for (name, T, alpha), vals in sorted(groups.items()):
        med = float(np.median(vals))
        lines.append(f"{name},{T},{_fmt(alpha)},{len(vals)},{_fmt(med)}")
    return _write_lines(out_dir / "summary.csv", lines)


def write_trajectory_csv(record, schedule, config_hash: str, out_dir: Path) -> Path:
    metric = (record.suboptimality if record.suboptimality is not None
              else record.grad_norm_sq)
    est = record.estimator_trace
    lines = [TRAJECTORY_HEADER]
    for i, level in enumerate([] if record.failed else schedule.levels().tolist()):
        lines.append(",".join([
            str(i + 1), _fmt(record.stepsizes[i]), _fmt(metric[i]),
            _fmt(est[i]) if est is not None else "nan", _fmt(level)]))
    return _write_lines(out_dir / f"trajectory_{config_hash}.csv", lines)


# -- subcommands -------------------------------------------------------------

def _cmd_run(cfg: ExperimentConfig, args) -> int:
    problem = build_problem(cfg)
    name = cfg.policies[0]
    horizon, alpha, seed = cfg.T[0], cfg.alpha[0], cfg.seeds[0]
    row, record, schedule = execute_run(cfg, problem, name, horizon, alpha, seed)
    out_dir = Path(cfg.out)
    write_results_csv([row], out_dir)
    traj = write_trajectory_csv(record, schedule, row.config_hash, out_dir)
    if record.failed:
        return 1
    print(f"{name} T={horizon} alpha={alpha} seed={seed}: "
          f"final_metric={row.final_metric:.6g} bound={row.bound_value:.6g} "
          f"queries={row.oracle_queries}")
    if not math.isnan(record.mean_grad_noise_ratio):
        print(f"mean ||grad f||^2 / level^2 along the run: "
              f"{record.mean_grad_noise_ratio:.4g}")
    print(f"wrote {out_dir / 'results.csv'} and {traj}")
    return 0


def _cmd_sweep(cfg: ExperimentConfig, args) -> int:
    rows, any_failed = run_sweep(cfg)
    out_dir = Path(cfg.out)
    path = write_results_csv(rows, out_dir)
    summary = write_summary_csv(rows, out_dir)
    print(f"wrote {len(rows)} rows to {path} (summary: {summary})")
    if any_failed:
        print("some runs failed; see rows with final_metric=nan", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(cfg: ExperimentConfig, args) -> int:
    if args.suite not in (*SUITES, "all"):
        raise ConfigError(f"unknown suite {args.suite!r}; known: {', '.join(SUITES)}, all")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    report = {}
    all_passed = True
    for name in names:
        result = run_suite(name)
        report[name] = result.to_dict()
        all_passed &= result.passed
        for crit in result.criteria:
            print(f"[{name}] {crit.describe()}")
    path = _write_lines(Path(cfg.out) / "verify_report.json",
                        [json.dumps(report, indent=2, sort_keys=True)])
    print(f"wrote {path}")
    return 0 if all_passed else 1


def _cmd_schedule_dump(cfg: ExperimentConfig, args) -> int:
    try:
        schedule = build_schedule(cfg, cfg.T[0], cfg.alpha[0])
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from None
    lines = ["k,level"] + [f"{k},{_fmt(level)}"
                           for k, level in enumerate(schedule.levels().tolist(), 1)]
    if args.out:
        print(f"wrote {_write_lines(Path(cfg.out) / 'schedule.csv', lines)}")
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _add_common_flags(sub):
    sub.add_argument("--config", help="path to a JSON experiment config")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", help="replace the seed list with one seed")
    sub.add_argument("--workers", type=int,
                     help="accepted for compatibility; has no effect")
    sub.add_argument("--policy", help="comma-separated policy names")
    sub.add_argument("--T", help="comma-separated horizons")
    sub.add_argument("--alpha", help="comma-separated schedule exponents")
    sub.add_argument("--m-coeff", dest="m_coeff",
                     help="coefficient in the adaptive correction constant")
    sub.add_argument("--bound-const", dest="bound_const",
                     help="constant used when evaluating the adaptive rate bound")
    sub.add_argument("--timings", action="store_true",
                     help="record real wall times (breaks byte-for-byte "
                          "reproducibility of results.csv)")


COMMANDS = {"run": _cmd_run, "sweep": _cmd_sweep, "verify": _cmd_verify,
            "schedule-dump": _cmd_schedule_dump}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonstat-opt",
        description="SGD under non-stationary gradient noise: runs, sweeps and "
                    "guarantee verification")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "execute a single run and dump its trajectory"),
                            ("sweep", "execute a policy x T x alpha x seed grid"),
                            ("schedule-dump", "print schedule levels as CSV")):
        sub = subs.add_parser(name, help=help_text)
        _add_common_flags(sub)
    ver = subs.add_parser("verify", help="run a named verification suite")
    _add_common_flags(ver)
    ver.add_argument("--suite", default="all",
                     help=f"one of: {', '.join(SUITES)}, all")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](ExperimentConfig.load(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
