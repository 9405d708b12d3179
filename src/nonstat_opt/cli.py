"""Configuration-driven experiment harness.

Subcommands: ``run`` (one run, with its trajectory dump), ``sweep``
(policy x T x alpha x seed grid), ``verify`` (named guarantee suites) and
``schedule-dump`` (schedule values as CSV for external plotting).

Configuration lives in a JSON file (schema documented in the README); any
command-line flag wins over the corresponding config field. Sweep output is
byte-deterministic for a given config: rows are emitted in sorted order, and
the wall-time column stays zero unless timing collection is explicitly
requested via ``--timings``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

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


@dataclass
class ExperimentConfig:
    problem: dict = field(default_factory=lambda: {
        "kind": "quadratic", "dim": 10, "n": 40, "seed": 0, "radius": 1.0,
        "cond": None})
    schedule: dict = field(default_factory=lambda: {
        "kind": "piecewise_linear", "level": 1.0, "path": None})
    policies: list = field(default_factory=lambda: ["constant"])
    horizons: list = field(default_factory=lambda: [1000])
    alphas: list = field(default_factory=lambda: [0.5])
    seeds: list = field(default_factory=lambda: [0])
    overrides: dict = field(default_factory=dict)
    out: str = "results"
    timings: bool = False
    custom_schedule: NoiseSchedule | None = field(  # read by validate()
        default=None, init=False, repr=False)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        cfg = cls()
        for key in ("problem", "schedule", "overrides"):
            if key in raw:
                getattr(cfg, key).update(raw[key])
        if "policies" in raw:
            cfg.policies = list(raw["policies"])
        if "T" in raw:
            cfg.horizons = [int(t) for t in raw["T"]]
        if "alpha" in raw:
            cfg.alphas = [float(a) for a in raw["alpha"]]
        if "seeds" in raw:
            cfg.seeds = [int(s) for s in raw["seeds"]]
        if "out" in raw:
            cfg.out = str(raw["out"])
        return cfg

    def apply_flags(self, args) -> None:
        if getattr(args, "out", None):
            self.out = args.out
        if getattr(args, "policy", None):
            self.policies = [p.strip() for p in args.policy.split(",") if p.strip()]
        if getattr(args, "T", None):
            self.horizons = [int(t) for t in args.T.split(",")]
        if getattr(args, "alpha", None):
            self.alphas = [float(a) for a in args.alpha.split(",")]
        if getattr(args, "seed", None) is not None:
            self.seeds = [int(args.seed)]
        if getattr(args, "m_coeff", None) is not None:
            self.overrides["m_coeff"] = args.m_coeff
        if getattr(args, "bound_const", None) is not None:
            self.overrides["bound_const"] = args.bound_const
        if getattr(args, "timings", False):
            self.timings = True

    def validate(self) -> None:
        if self.problem.get("kind") not in ("quadratic", "smooth_nonconvex"):
            raise ConfigError(f"unknown problem kind: {self.problem.get('kind')!r}")
        if self.schedule.get("kind") not in SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind: {self.schedule.get('kind')!r}")
        if self.schedule.get("kind") == "custom":
            if not self.schedule.get("path"):
                raise ConfigError("custom schedules need a 'path' to a level file")
            try:
                self.custom_schedule = NoiseSchedule.from_file(self.schedule["path"])
            except (OSError, ValueError) as exc:
                raise ConfigError(f"custom schedule: {exc}") from None
        for p in self.policies:
            if p not in POLICIES:
                raise ConfigError(
                    f"unknown policy {p!r}; known: {', '.join(POLICIES)}")
        if not self.policies:
            raise ConfigError("need at least one policy")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if not self.horizons or min(self.horizons) < 3:
            raise ConfigError("every horizon T must be at least 3")
        bc = self.overrides.get("bound_const")
        if bc is not None and bc not in (4, 32, 12):
            raise ConfigError(f"bound_const must be one of 4, 32, 12; got {bc}")
        mc = self.overrides.get("m_coeff")
        if mc is not None and mc not in (2, 8):
            raise ConfigError(f"m_coeff must be 2 or 8; got {mc}")


def build_problem(cfg: ExperimentConfig):
    spec = cfg.problem
    if spec["kind"] == "quadratic":
        return make_quadratic(seed=int(spec["seed"]), dim=int(spec["dim"]),
                              n=int(spec["n"]), radius=float(spec["radius"]),
                              cond=spec["cond"])
    return make_smooth_nonconvex(dim=int(spec["dim"]),
                                 radius=float(spec["radius"]),
                                 seed=int(spec["seed"]))


def build_schedule(cfg: ExperimentConfig, horizon: int, alpha: float) -> NoiseSchedule:
    """The cell's schedule; a custom one is the level file validate() read."""
    kind = cfg.schedule["kind"]
    if kind == "constant":
        return NoiseSchedule.constant(float(cfg.schedule["level"]), horizon)
    if kind == "piecewise_linear":
        return NoiseSchedule.piecewise_linear(horizon, alpha)
    if kind == "adversarial_spike":
        return NoiseSchedule.adversarial_spike(horizon, alpha)
    if cfg.custom_schedule.horizon != horizon:
        raise ConfigError(
            f"custom schedule has {cfg.custom_schedule.horizon} levels but T={horizon}")
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
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def execute_run(cfg: ExperimentConfig, problem, name: str, horizon: int,
                alpha: float, seed: int):
    """One (policy, T, alpha, seed) cell: returns (ResultRow, RunRecord, schedule).

    A ValueError from building, running or bounding the cell, other than a
    ConfigError, gives a failed record that keeps the queries already drawn.
    """
    build, bound = POLICIES[name]
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
            bound_value = bound(problem, schedule, policy, record,
                                float(cfg.overrides.get("bound_const", 32)))
            if record.estimator_kind in SQUARED_KINDS:
                regret_value = analysis.regret_from_run(record, schedule)
    except ConfigError:
        raise
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
            for name in cfg.policies for T in cfg.horizons
            for alpha in cfg.alphas for seed in cfg.seeds]
    rows.sort(key=ResultRow.sort_key)
    return rows, any(r.failed for r in rows)


def write_results_csv(rows, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "results.csv"
    lines = [CSV_HEADER] + [r.to_csv() for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_summary_csv(rows, out_dir: Path) -> Path:
    """Per-(policy, T, alpha) median of the final metric."""
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.policy, r.horizon, r.alpha), []).append(r.final_metric)
    lines = ["policy,T,alpha,seeds,median_final_metric"]
    for (name, T, alpha), vals in sorted(groups.items()):
        med = float(np.median(vals))
        lines.append(f"{name},{T},{_fmt(alpha)},{len(vals)},{_fmt(med)}")
    path = out_dir / "summary.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_trajectory_csv(record, schedule, config_hash: str, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trajectory_{config_hash}.csv"
    metric = (record.suboptimality if record.suboptimality is not None
              else record.grad_norm_sq)
    est = record.estimator_trace
    lines = [TRAJECTORY_HEADER]
    n = record.stepsizes.size if not record.failed else 0
    for i in range(n):
        lines.append(",".join([
            str(i + 1), _fmt(record.stepsizes[i]), _fmt(metric[i]),
            _fmt(est[i]) if est is not None else "nan",
            _fmt(schedule.level(i + 1))]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


# -- subcommands -------------------------------------------------------------

def _cmd_run(cfg: ExperimentConfig) -> int:
    problem = build_problem(cfg)
    name = cfg.policies[0]
    horizon, alpha, seed = cfg.horizons[0], cfg.alphas[0], cfg.seeds[0]
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


def _cmd_sweep(cfg: ExperimentConfig) -> int:
    rows, any_failed = run_sweep(cfg)
    out_dir = Path(cfg.out)
    path = write_results_csv(rows, out_dir)
    summary = write_summary_csv(rows, out_dir)
    print(f"wrote {len(rows)} rows to {path} (summary: {summary})")
    if any_failed:
        print("some runs failed; see rows with final_metric=nan", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args, cfg: ExperimentConfig) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise ConfigError(
                f"unknown suite {name!r}; known: {', '.join(SUITES)}, all")
    report = {}
    all_passed = True
    for name in names:
        result = run_suite(name)
        report[name] = result.to_dict()
        all_passed &= result.passed
        for crit in result.criteria:
            print(f"[{name}] {crit.describe()}")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "verify_report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return 0 if all_passed else 1


def _cmd_schedule_dump(cfg: ExperimentConfig, args) -> int:
    horizon, alpha = cfg.horizons[0], cfg.alphas[0]
    schedule = build_schedule(cfg, horizon, alpha)
    lines = ["k,level"] + [f"{k},{_fmt(schedule.level(k))}"
                           for k in range(1, horizon + 1)]
    text = "\n".join(lines) + "\n"
    if args.out:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "schedule.csv"
        path.write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return 0


def _add_common_flags(sub):
    sub.add_argument("--config", help="path to a JSON experiment config")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", type=int, help="replace the seed list with one seed")
    sub.add_argument("--workers", type=int,
                     help="accepted for compatibility; has no effect")
    sub.add_argument("--policy", help="comma-separated policy names")
    sub.add_argument("--T", help="comma-separated horizons")
    sub.add_argument("--alpha", help="comma-separated schedule exponents")
    sub.add_argument("--m-coeff", dest="m_coeff", type=int, choices=(2, 8),
                     help="coefficient in the adaptive correction constant")
    sub.add_argument("--bound-const", dest="bound_const", type=int,
                     choices=(4, 32, 12),
                     help="constant used when evaluating the adaptive rate bound")
    sub.add_argument("--timings", action="store_true",
                     help="record real wall times (breaks byte-for-byte "
                          "reproducibility of results.csv)")


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
        if args.config:
            cfg = ExperimentConfig.from_file(args.config)
        else:
            cfg = ExperimentConfig()
        cfg.apply_flags(args)
        cfg.validate()
        if args.command == "run":
            return _cmd_run(cfg)
        if args.command == "sweep":
            return _cmd_sweep(cfg)
        if args.command == "verify":
            return _cmd_verify(args, cfg)
        if args.command == "schedule-dump":
            return _cmd_schedule_dump(cfg, args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
