import argparse
import hashlib
import itertools
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonstat_opt import NoiseSchedule, cli, runner, suboptimality_bound, verify
from nonstat_opt.cli import (CSV_HEADER, SCHEMA, TRAJECTORY_HEADER,
                             ExperimentConfig, build_parser, build_problem,
                             execute_run, main)
from nonstat_opt.policy import POLICIES


def write_config(tmp_path, **overrides):
    cfg = {
        "problem": {"kind": "quadratic", "dim": 6, "n": 18, "seed": 0,
                    "radius": 1.0},
        "schedule": {"kind": "piecewise_linear"},
        "policies": ["constant", "idealized", "adaptive", "variance_adaptive"],
        "T": [60],
        "alpha": [0.5],
        "seeds": list(range(10)),
        "out": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestSweep:
    def test_grid_cardinality_and_header(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4 * 1 * 1 * 10
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_repeated_sweeps_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["sweep", "--config", str(cfg)])
        first = (tmp_path / "out" / "results.csv").read_bytes()
        main(["sweep", "--config", str(cfg)])
        second = (tmp_path / "out" / "results.csv").read_bytes()
        assert first == second

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["sweep", "--config", str(cfg), "--workers", "1"])
        serial = (tmp_path / "out" / "results.csv").read_bytes()
        main(["sweep", "--config", str(cfg), "--workers", "4"])
        parallel = (tmp_path / "out" / "results.csv").read_bytes()
        assert serial == parallel

    def test_query_accounting_in_rows(self, tmp_path):
        cfg = write_config(tmp_path, seeds=[0])
        main(["sweep", "--config", str(cfg)])
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        queries = {r.split(",")[1]: int(r.split(",")[8]) for r in rows}
        T = 60
        assert queries["constant"] == T
        assert queries["idealized"] == T
        assert queries["adaptive"] == T + 1
        assert queries["variance_adaptive"] == 2 * (T + 1)

    def test_flags_override_config(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["sweep", "--config", str(cfg), "--policy", "constant",
              "--T", "40", "--seed", "3"])
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        _, policy, T, _, seed, *_ = rows[0].split(",")
        assert (policy, T, seed) == ("constant", "40", "3")

    def test_variant_policies_run(self, tmp_path):
        cfg = write_config(tmp_path, seeds=[0],
                           policies=["adaptive_first_moment", "pnorm", "window"],
                           overrides={"p": 3.0, "window": 8})
        assert main(["sweep", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        assert {r.split(",")[1] for r in rows} == {"adaptive_first_moment",
                                                   "pnorm", "window"}
        # every variant consumes one estimator seed sample
        assert all(int(r.split(",")[8]) == 61 for r in rows)

    def test_bound_const_flag_scales_adaptive_bound(self, tmp_path):
        cfg = write_config(tmp_path, policies=["adaptive"], seeds=[0])
        main(["sweep", "--config", str(cfg), "--bound-const", "4"])
        b4 = float((tmp_path / "out" / "results.csv")
                   .read_text().splitlines()[1].split(",")[6])
        main(["sweep", "--config", str(cfg), "--bound-const", "32"])
        b32 = float((tmp_path / "out" / "results.csv")
                    .read_text().splitlines()[1].split(",")[6])
        # CSV carries 12 significant digits, so compare just above that
        assert b32 == pytest.approx(8 * b4, rel=1e-9)

    def test_nonconvex_problem_policies(self, tmp_path):
        cfg = write_config(
            tmp_path, seeds=[0],
            problem={"kind": "smooth_nonconvex", "dim": 6, "seed": 1,
                     "radius": 1.0},
            policies=["constant", "idealized", "variance_adaptive"])
        assert main(["sweep", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(float(r.split(",")[5]) >= 0 for r in rows)

    def test_divergent_run_flags_row_and_exit_code(self, tmp_path):
        # an untunable fixed step this large overflows on this problem
        cfg = write_config(tmp_path, policies=["idealized"], seeds=[0],
                           overrides={}, T=[60])
        # force divergence through a custom schedule with tiny levels
        levels = tmp_path / "levels.txt"
        levels.write_text("\n".join(["1e-200"] * 60) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path, policies=["idealized"], seeds=[0],
                           schedule={"kind": "custom", "path": str(levels)})
        assert main(["sweep", "--config", str(cfg)]) == 1
        row = (tmp_path / "out" / "results.csv").read_text().splitlines()[1]
        assert row.split(",")[5] == "nan"

    @pytest.mark.parametrize("overrides, expected", [
        # zero noise: the constant baseline's step is undefined, and so is
        # the adaptive bound once its run is done
        ({"schedule": {"kind": "constant", "level": 0.0},
          "policies": ["constant", "adaptive", "variance_adaptive"]},
         {"constant": 0, "adaptive": 61, "variance_adaptive": None}),
        # c = 5 breaks the 1/(2L) cap at k = 1, after the estimator's seed
        # draw; the paired rule's correction keeps it under the cap
        ({"problem": {"kind": "smooth_nonconvex", "dim": 6, "seed": 1,
                      "radius": 1.0},
          "policies": ["adaptive", "variance_adaptive"],
          "overrides": {"c": 5.0}},
         {"adaptive": 1, "variance_adaptive": None}),
    ])
    def test_bad_cell_becomes_failed_row(self, tmp_path, capsys, overrides,
                                         expected):
        """expected: policy -> queries of its failed row, or None if it runs."""
        cfg = write_config(tmp_path, seeds=[0], **overrides)
        assert main(["sweep", "--config", str(cfg)]) == 1
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        assert len(rows) == len(expected)
        for row in rows:
            fields = row.split(",")
            queries = expected[fields[1]]
            if queries is None:
                assert float(fields[5]) >= 0 and float(fields[6]) > 0
            else:
                assert fields[5] == fields[6] == "nan"
                assert int(fields[8]) == queries
        err = capsys.readouterr().err
        assert "Traceback" not in err
        failed = [q for q in expected.values() if q is not None]
        assert len([ln for ln in err.splitlines() if " failed: " in ln]) == len(failed)

    def test_m_override_sets_only_the_estimator_rules(self, tmp_path):
        """overrides.m is the correction of adaptive, adaptive_first_moment,
        pnorm and window; variance_adaptive's is m_base + 2cL."""
        rows = []
        for m in (0.0, 5.0):
            cfg = write_config(tmp_path, problem={"kind": "quadratic", "dim": 4,
                                                  "n": 12},
                               policies=["adaptive", "variance_adaptive"],
                               T=[50], seeds=[0], overrides={"m": m})
            assert main(["sweep", "--config", str(cfg)]) == 0
            lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
            rows.append({r.split(",")[1]: r.split(",", 1)[1] for r in lines[1:]})
        assert rows[0]["variance_adaptive"] == rows[1]["variance_adaptive"]
        assert rows[0]["adaptive"] != rows[1]["adaptive"]

    @pytest.mark.parametrize("name", ["constant", "idealized"])
    def test_baseline_bound_is_the_bound_of_the_steps_taken(self, tmp_path, name):
        T, alpha = 60, 0.5
        schedule = NoiseSchedule.piecewise_linear(T, alpha)
        bounds = []
        for c in (0.001, 0.01):
            cfg = write_config(tmp_path, policies=[name], seeds=[0], T=[T],
                               alpha=[alpha], overrides={"c": c})
            assert main(["sweep", "--config", str(cfg)]) == 0
            row = (tmp_path / "out" / "results.csv").read_text().splitlines()[1]
            bound = float(row.split(",")[6])
            steps = np.full(T, c) if name == "constant" else c / schedule.levels()
            expected = suboptimality_bound(1.0, schedule, steps)
            assert bound == pytest.approx(expected, rel=1e-9)
            bounds.append(bound)
        assert bounds[0] != bounds[1]

    # sha256 of results.csv, recorded from the three separate SGD loops that
    # the single runner loop replaced; a change here changes published numbers.
    # The spike case (p = 1, m = 0) was recorded from the kind-string stepsize
    # rule that each estimator's own denominator replaced.
    QUADRATIC = {"kind": "quadratic", "dim": 6, "n": 18, "seed": 0,
                 "radius": 1.0}
    GOLDEN = {
        "quadratic": (QUADRATIC, {"kind": "piecewise_linear"},
                      {"p": 3.0, "window": 8},
                      "438108456be37c02954b827ebcb008f1"
                      "0c6592bdad3d6c5fcdb57f5612e85bab"),
        "smooth_nonconvex": ({"kind": "smooth_nonconvex", "dim": 6, "seed": 1,
                              "radius": 1.0}, {"kind": "piecewise_linear"},
                             {"p": 3.0, "window": 8},
                             "6b71f14f596395cc7280c554f021dc8a"
                             "32b11683105b2ad2ba04d360593b8a65"),
        "spike_roots": (QUADRATIC, {"kind": "adversarial_spike"},
                        {"p": 1.0, "m": 0.0, "beta": 0.9},
                        "7d884134c76092a50d65751c5a85105c"
                        "7b8c887091ddf6962c6920121b579594"),
    }

    @pytest.mark.parametrize("kind", sorted(GOLDEN))
    def test_golden_results_bytes(self, tmp_path, kind):
        problem, schedule, overrides, digest = self.GOLDEN[kind]
        cfg = write_config(tmp_path, problem=problem, schedule=schedule,
                           policies=list(POLICIES), T=[50, 120],
                           alpha=[0.25, 1.0], seeds=[0, 1], overrides=overrides)
        assert main(["sweep", "--config", str(cfg)]) == 0
        data = (tmp_path / "out" / "results.csv").read_bytes()
        assert len(data.splitlines()) == 1 + 7 * 2 * 2 * 2
        assert b"nan" not in data
        assert hashlib.sha256(data).hexdigest() == digest


class TestRunMode:
    def test_trajectory_dump(self, tmp_path):
        cfg = write_config(tmp_path, policies=["adaptive"], seeds=[1])
        assert main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        traj = list(out.glob("trajectory_*.csv"))
        assert len(traj) == 1
        lines = traj[0].read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        assert len(lines) == 1 + 60
        k, eta, metric, est, level = lines[1].split(",")
        assert k == "1" and float(eta) > 0 and float(level) > 0
        assert float(est) >= 0

    def test_baseline_trajectory_has_nan_estimator_column(self, tmp_path):
        cfg = write_config(tmp_path, policies=["constant"], seeds=[0])
        main(["run", "--config", str(cfg)])
        traj = next((tmp_path / "out").glob("trajectory_*.csv"))
        assert traj.read_text().splitlines()[1].split(",")[3] == "nan"


class TestVerifyCommand:
    def test_jensen_suite_report(self, tmp_path):
        out = tmp_path / "v"
        assert main(["verify", "--suite", "jensen", "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["jensen"]["passed"] is True
        names = {c["name"] for c in report["jensen"]["criteria"]}
        assert "idealized-below-constant" in names

    def test_unknown_suite_is_a_config_error(self, tmp_path):
        assert main(["verify", "--suite", "nope", "--out", str(tmp_path)]) == 2

    def test_regret_suite_report_serializes(self, tmp_path):
        # regression: numpy scalars in suite results must not break the report
        out = tmp_path / "v"
        assert main(["verify", "--suite", "regret", "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["regret"]["passed"] is True
        for crit in report["regret"]["criteria"]:
            assert isinstance(crit["measured"], float)


class TestScheduleDump:
    def test_stdout_dump(self, tmp_path, capsys):
        cfg = write_config(tmp_path, T=[10])
        assert main(["schedule-dump", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,level"
        assert len(lines) == 11
        assert lines[5].startswith("5,")

    def test_custom_schedule_roundtrip(self, tmp_path, capsys):
        levels = tmp_path / "levels.txt"
        levels.write_text("0.5\n1.5\n2.5\n", encoding="utf-8")
        cfg = write_config(tmp_path, T=[3],
                           schedule={"kind": "custom", "path": str(levels)})
        main(["schedule-dump", "--config", str(cfg)])
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == ["1,0.5", "2,1.5", "3,2.5"]


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "absent.json")]) == 2

    def test_invalid_policy_rejected(self, tmp_path):
        cfg = write_config(tmp_path, policies=["sorcery"])
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_invalid_bound_const_rejected(self, tmp_path):
        cfg = write_config(tmp_path, overrides={"bound_const": 7})
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_horizon_floor(self, tmp_path):
        cfg = write_config(tmp_path, T=[2])
        assert main(["sweep", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("content", [None, "1.0\nnot-a-number\n"],
                             ids=["missing", "malformed"])
    def test_bad_level_file_is_a_config_error(self, tmp_path, capsys, content):
        levels = tmp_path / "levels.txt"
        if content is not None:
            levels.write_text(content, encoding="utf-8")
        cfg = write_config(tmp_path, T=[3], seeds=[0],
                           schedule={"kind": "custom", "path": str(levels)})
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("config, flags, key", [
        ({"schedule": {"kind": "constant", "level": None}}, [], "schedule.level"),
        ({"problem": {"kind": "quadratic", "dim": "abc"}}, [], "problem.dim"),
        ({"T": ["abc"]}, [], "T"),
        ({}, ["--T", "abc"], "T"),
        ({}, ["--alpha", "x"], "alpha"),
        ({"problem": [1]}, [], "problem"),
        # raised by make_quadratic, outside any cell
        ({"problem": {"kind": "quadratic", "n": 5, "dim": 10}}, [], "problem"),
        ([1, 2], [], "config"),
        ({"seed": 3}, [], "seed"),
        ({"overrides": {"beta": "x"}}, [], "overrides.beta"),
        ({"overrides": {"m_coeff": 3}}, [], "overrides.m_coeff"),
        ({}, ["--bound-const", "7"], "overrides.bound_const"),
        # raised by _start_point: a negative radius mirrored the start point
        ({"problem": {"kind": "quadratic", "dim": 4, "n": 8, "radius": -1}}, [],
         "problem"),
        ({"problem": {"kind": "smooth_nonconvex", "radius": -1}}, [], "problem"),
        ({"seeds": [0, -1]}, [], "seeds"),
        ({}, ["--seed", "-1"], "seeds"),
        # each converts, but a factory rejected it in every cell: exit 1
        ({"alpha": [0.5, -0.1]}, [], "alpha"),
        ({"schedule": {"kind": "constant", "level": -1.0}}, [], "schedule.level"),
        ({"policies": ["adaptive"], "overrides": {"beta": 1.0}}, [],
         "overrides.beta"),
        ({"policies": ["pnorm"], "overrides": {"p": 0.0}}, [], "overrides.p"),
        ({"policies": ["window"], "overrides": {"window": 0}}, [],
         "overrides.window"),
        ({"overrides": {"c": -0.1}}, [], "overrides.c"),
        ({"policies": ["adaptive"], "overrides": {"m": -1.0}}, [], "overrides.m"),
    ], ids=["null-level", "dim-abc", "T-abc", "flag-T-abc", "flag-alpha-x",
            "problem-list", "n-below-dim", "top-level-list", "unknown-key",
            "beta-x", "m-coeff-3", "flag-bound-const-7", "negative-radius",
            "negative-radius-nonconvex", "negative-seed", "flag-seed-negative",
            "negative-alpha", "negative-level", "beta-one", "p-zero",
            "window-zero", "negative-c", "negative-m"])
    def test_bad_input_names_its_key(self, tmp_path, capsys, config, flags, key):
        path = tmp_path / "config.json"
        if isinstance(config, dict):
            config = {"out": str(tmp_path / "out"), "seeds": [0], "T": [20], **config}
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["sweep", "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: "), err
        assert not (tmp_path / "out").exists()

    def test_flag_and_json_key_are_one_value(self, tmp_path):
        """A list key takes a comma string, a number a numeric string, and a
        flag goes through its key's converter: one results.csv, hashes too."""
        outputs = []
        for config, flags in (
                ({"policies": ["constant", "adaptive"], "T": [40, 50],
                  "overrides": {"m_coeff": 8}}, []),
                ({"policies": "constant, adaptive", "T": "40,50",
                  "overrides": {"m_coeff": "8"}}, []),
                ({}, ["--policy", "constant,adaptive", "--T", "40,50",
                      "--m-coeff", "8"])):
            cfg = write_config(tmp_path, seeds=[0], **config)
            assert main(["sweep", "--config", str(cfg), *flags]) == 0
            outputs.append((tmp_path / "out" / "results.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0].splitlines()) == 1 + 2 * 2

    def test_null_override_is_unset(self, tmp_path):
        policies = ["adaptive", "pnorm", "variance_adaptive"]
        rows = []
        for overrides in ({}, dict.fromkeys(SCHEMA["overrides"])):
            cfg = write_config(tmp_path, seeds=[0], policies=policies,
                               overrides=overrides)
            assert main(["sweep", "--config", str(cfg)]) == 0
            lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
            rows.append([line.split(",", 1)[1] for line in lines[1:]])
        assert rows[0] == rows[1]

    BASE = {"problem": {"kind": "quadratic", "dim": 3}, "T": [8],
            "alpha": [0.5], "seeds": [0], "out": "out",
            "policies": ["constant", "adaptive", "variance_adaptive"]}
    MUTANTS = (None, True, "x", "", [], {}, -1, 0, 2.5, [None], ["x"], [-1])

    def test_mutation_grid_never_raises(self, tmp_path, monkeypatch, capsys):
        """Each key, each section and one unknown key, set in turn to each
        mutant: the exit code is 0, 1 or 2, never an exception, and an exit 2
        prints a config error and writes no results."""
        paths = [(key,) for key in SCHEMA] + [("seed",)] + [
            (section, key) for section, keys in SCHEMA.items()
            if isinstance(keys, dict) for key in keys]
        problems = []
        for i, (path, value) in enumerate(itertools.product(paths, self.MUTANTS)):
            raw = json.loads(json.dumps(self.BASE))
            *sections, key = path
            target = raw
            for section in sections:
                target = target.setdefault(section, {})
            target[key] = value
            work = tmp_path / str(i)
            work.mkdir()
            monkeypatch.chdir(work)
            (work / "config.json").write_text(json.dumps(raw), encoding="utf-8")
            case = f"{'.'.join(path)}={value!r}"
            try:
                code = main(["sweep", "--config", "config.json"])
            except Exception as exc:  # every escape is a finding, not a crash
                problems.append(f"{case}: raised {exc!r}")
                continue
            err = capsys.readouterr().err
            if code not in (0, 1, 2):
                problems.append(f"{case}: exit code {code}")
            elif code == 2 and (not err.startswith("config error:")
                                or list(work.rglob("results.csv"))):
                problems.append(f"{case}: exit 2 with stderr {err!r}")
        assert len(paths) * len(self.MUTANTS) == 300
        assert not problems, "\n".join(problems)


@pytest.mark.parametrize("name", ["run_convex", "run_nonconvex",
                                  "run_variance_adaptive"])
def test_runners_are_bound_in_cli_and_verify(name):
    """perfbench/child.py counts iterations by wrapping each runner under the
    name that cli and verify bind it to."""
    assert getattr(cli, name) is getattr(verify, name) is getattr(runner, name)


class TestReadme:
    """The README's config example and flag list match the code."""

    TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def test_config_example_matches_schema(self):
        block = self.TEXT.split("```jsonc\n", 1)[1].split("```", 1)[0]
        raw = json.loads(re.sub(r"//[^\n]*", "", block))
        ExperimentConfig.parse(raw)
        assert raw.keys() == SCHEMA.keys()
        for key, entry in SCHEMA.items():
            if isinstance(entry, dict):
                assert raw[key].keys() == entry.keys(), key

    def test_flag_list_matches_parser(self):
        paragraph = self.TEXT.split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
        documented = set(re.findall(r"`(--[A-Za-z-]+)", paragraph))
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        flags = {flag for sub in subparsers.choices.values()
                 for action in sub._actions for flag in action.option_strings
                 if flag.startswith("--") and flag != "--help"}
        assert documented == flags


@st.composite
def sweep_configs(draw):
    """A small random sweep: problem and schedule kind, policies, T, alpha, seeds."""
    T = draw(st.integers(min_value=5, max_value=60))
    schedule = draw(st.sampled_from(
        [{"kind": "piecewise_linear"}, {"kind": "adversarial_spike"},
         {"kind": "constant", "level": draw(st.sampled_from([0.0, 0.3, 1.0]))},
         {"kind": "custom"}]))
    if schedule["kind"] == "custom":
        schedule["levels"] = draw(st.lists(
            st.floats(min_value=1e-3, max_value=10.0), min_size=T, max_size=T))
    dim = draw(st.integers(min_value=2, max_value=8))
    problem = draw(st.sampled_from([
        {"kind": "quadratic", "dim": dim, "n": 3 * dim},
        {"kind": "smooth_nonconvex", "dim": dim}]))
    problem.update(seed=draw(st.integers(0, 5)), radius=1.0)
    return {
        "problem": problem, "schedule": schedule, "T": [T],
        "policies": draw(st.lists(st.sampled_from(sorted(POLICIES)),
                                  min_size=1, max_size=4, unique=True)),
        "alpha": [draw(st.floats(min_value=0.0, max_value=1.5))],
        "seeds": draw(st.lists(st.integers(0, 1000), min_size=1, max_size=2,
                               unique=True)),
    }


class TestSweepProperties:
    @settings(max_examples=25, deadline=None)
    @given(raw=sweep_configs())
    def test_random_sweeps(self, tmp_path_factory, raw):
        """Repeated sweeps write the same bytes; queries are arity * (T + init
        draws); non-convex steps stay under 1/(2L)."""
        work = tmp_path_factory.mktemp("sweep")
        if raw["schedule"]["kind"] == "custom":
            path = work / "levels.txt"
            path.write_text("".join(f"{v!r}\n" for v in raw["schedule"].pop("levels")),
                            encoding="utf-8")
            raw["schedule"]["path"] = str(path)
        raw["out"] = str(work / "out")
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(raw), encoding="utf-8")
        outputs = []
        for _ in range(2):
            assert main(["sweep", "--config", str(cfg_path)]) in (0, 1)
            outputs.append((work / "out" / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]
        T = raw["T"][0]
        for line in outputs[0].decode().splitlines()[1:]:
            fields = line.split(",")
            if fields[5] == "nan":
                continue
            arity = 2 if fields[1] == "variance_adaptive" else 1
            init = 0 if fields[1] in ("constant", "idealized") else 1
            assert int(fields[8]) == arity * (T + init)
        cfg = ExperimentConfig.parse(raw)
        problem = build_problem(cfg)
        if problem.convex:
            return
        for name in cfg.policies:
            for seed in cfg.seeds:
                _, record, _ = execute_run(cfg, problem, name, T, cfg.alpha[0], seed)
                if not record.failed:
                    assert record.stepsizes.max() <= 1.0 / (2.0 * problem.L)
