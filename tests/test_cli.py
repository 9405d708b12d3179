import argparse
import ctypes
import hashlib
import itertools
import json
import math
import os
import platform
import re
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonstat_opt import NoiseSchedule, cli, runner, suboptimality_bound, verify
from nonstat_opt.cli import (CSV_HEADER, SCHEMA, TRAJECTORY_HEADER,
                             ExperimentConfig, build_parser, build_problem,
                             execute_run, main)
from nonstat_opt.estimator import VarianceEMA, default_beta
from nonstat_opt.oracle import Oracle
from nonstat_opt.policy import POLICIES, PairedAdaptiveStep, variance_m_base

# The byte goldens below were recorded on this platform. Another BLAS kernel may
# round a last digit differently: the SSE-only Nehalem kernel moves one
# spike_roots row by 4e-12, which is not a change of the program.
RECORDED_ON = ("scipy-openblas 0.3.31 (DYNAMIC_ARCH, AVX2/AVX-512 kernel), "
               "numpy 2.4.6, Python 3.11.7")
GOLDEN_DIR = Path(__file__).parent / "golden"  # the recorded golden files


def running_platform() -> str:
    """numpy's BLAS build, the kernel OpenBLAS chose at run time, numpy and Python."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    built = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    try:  # show_config states the build machine's core, not the running one
        lib = ctypes.CDLL(next((Path(np.__file__).parent.parent / "numpy.libs")
                               .glob("libscipy_openblas*")))
        corename = lib.scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        kernel = corename().decode()
    except (StopIteration, OSError, AttributeError):
        kernel = "unknown"
    return (f"BLAS build {built.strip()!r}, running kernel {kernel}, "
            f"numpy {np.__version__}, Python {platform.python_version()}")


def keyed_diff(recorded: dict, produced: dict) -> list[str]:
    """Each entry (a dict of fields) that differs, by its key in recorded order,
    with the recorded and the produced value of every field that differs."""
    diffs = []
    for key in recorded | produced:
        a, b = recorded.get(key), produced.get(key)
        if a is None or b is None:
            diffs.append(f"{key}: only {'produced' if a is None else 'recorded'}")
        elif a != b:
            diffs.append(f"{key}: " + "; ".join(
                f"{field} recorded {a.get(field)}, produced {b.get(field)}"
                for field in a | b if a.get(field) != b.get(field)))
    return diffs


def csv_rows(data: bytes, key: slice = slice(1, 5)) -> dict:
    """A CSV's rows by their ``key`` columns, "(policy, T, alpha, seed)" for a
    results.csv, each a dict of column -> value."""
    header, *lines = data.decode().splitlines()
    return {f"({', '.join(values[key])})": dict(zip(header.split(","), values))
            for values in (line.split(",") for line in lines)}


trajectory_rows = partial(csv_rows, key=slice(0, 1))  # a trajectory's rows by "(k)"


def report_criteria(data: bytes) -> dict:
    """A verify_report.json's criteria by "[suite] name", each a dict of fields."""
    return {f"[{suite}] {crit['name']}": crit for suite, result in json.loads(data).items()
            for crit in result["criteria"]}


def assert_golden_bytes(data: bytes, digest: str, recorded: bytes | None = None,
                        entries=csv_rows):
    """Bytes against their sha256; on a mismatch, lists each entry that differs
    from the ``recorded`` file, both split by ``entries`` (results.csv rows
    unless told otherwise)."""
    actual = hashlib.sha256(data).hexdigest()
    assert actual == digest, (
        f"sha256 {actual}, golden {digest}; recorded on {RECORDED_ON}, running on "
        f"{running_platform()}" + ("" if recorded is None else "".join(
            f"\n  {entry}" for entry in keyed_diff(entries(recorded), entries(data)))))


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

    def test_timings_change_only_the_wall_time_column(self, tmp_path):
        """--timings writes a non-negative integer wall time into the last
        column; every other column keeps its bytes."""
        cfg = write_config(tmp_path)
        tables = []
        for flags in ([], ["--timings"]):
            assert main(["sweep", "--config", str(cfg), *flags]) == 0
            data = (tmp_path / "out" / "results.csv").read_bytes()
            tables.append([line.rsplit(b",", 1) for line in data.splitlines()])
        plain, timed = tables
        assert [row[0] for row in plain] == [row[0] for row in timed]
        assert plain[0][1] == timed[0][1] == b"wall_time_ms"
        assert all(row[1].isdigit() for row in timed[1:])

    def test_cells_run_in_row_order(self, tmp_path, monkeypatch):
        """A config listing its values out of order writes the sorted config's
        bytes, and its cells run in the order their rows are written."""
        problem = {"kind": "quadratic", "dim": 4, "n": 12}
        grid = {"policies": ["variance_adaptive", "constant", "adaptive"],
                "T": [40, 30], "alpha": [0.7, 0.2], "seeds": [3, 0, 1]}
        cfg = write_config(tmp_path, problem=problem,
                           **{key: sorted(values) for key, values in grid.items()})
        assert main(["sweep", "--config", str(cfg)]) == 0
        ordered = (tmp_path / "out" / "results.csv").read_bytes()
        cells = []

        def logged(cfg, problem, name, horizon, alpha, seed, **kwargs):
            cells.append((name, str(horizon), cli._fmt(alpha), str(seed)))
            return execute_run(cfg, problem, name, horizon, alpha, seed, **kwargs)

        monkeypatch.setattr(cli, "execute_run", logged)
        cfg = write_config(tmp_path, problem=problem, **grid)
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "results.csv").read_bytes() == ordered
        rows = [tuple(line.split(",")[1:5]) for line in ordered.decode().splitlines()[1:]]
        assert len(cells) == 3 * 2 * 2 * 3 and cells == rows

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
        """On both problem kinds, --bound-const scales the rate bound of both
        adaptive classes and leaves a baseline's bound of its steps unchanged."""
        ratios = {"adaptive": 8, "variance_adaptive": 8, "constant": 1}
        for problem in (self.QUADRATIC, self.NONCONVEX):
            cfg = write_config(tmp_path, problem=problem, policies=list(ratios),
                               seeds=[0])
            bounds = {}
            for C in ("4", "32"):
                assert main(["sweep", "--config", str(cfg), "--bound-const", C]) == 0
                rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
                bounds[C] = {r.split(",")[1]: float(r.split(",")[6]) for r in rows}
            for name, ratio in ratios.items():
                # CSV carries 12 significant digits, so compare just above that
                assert bounds["32"][name] == pytest.approx(
                    ratio * bounds["4"][name], rel=1e-9), (problem["kind"], name)

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
        # ||g||^p overflows in pnorm's update (huge c: the iterate grows
        # until it does) or m^p in its denominator (huge m) to inf, as every
        # estimator's overflow does: a degenerate denominator, not a traceback
        ({"problem": {"kind": "quadratic", "dim": 5, "n": 10}, "T": [50],
          "policies": ["pnorm", "adaptive"], "overrides": {"p": 4.0, "c": 1e60}},
         {"pnorm": 4, "adaptive": None}),
        ({"problem": {"kind": "quadratic", "dim": 5, "n": 10}, "T": [50],
          "policies": ["pnorm", "adaptive"], "overrides": {"p": 4.0, "m": 1e100}},
         {"pnorm": 1, "adaptive": None}),
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

    @pytest.mark.parametrize("command", ["sweep", "run"])
    def test_unallocatable_schedule_fails_its_row(self, tmp_path, monkeypatch, capsys,
                                                  command):
        """A horizon whose schedule the allocator refuses (T = 1e13 asks
        piecewise_linear for 73 TiB) fails each cell as T = 4 does, with no
        traceback. The allocation is not tried: whether the OS refuses it
        depends on its overcommit mode."""
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(NoiseSchedule, "piecewise_linear", refuse)
        cfg = write_config(tmp_path, policies=["constant"], seeds=[0])
        assert main([command, "--config", str(cfg)]) == 1
        (row,) = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        fields = row.split(",")
        assert fields[5] == fields[6] == "nan" and int(fields[8]) == 0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "constant T=60 alpha=0.5 seed=0 failed: Unable to allocate 72.8 TiB" in err

    @pytest.mark.parametrize("command", ["sweep", "run"])
    @pytest.mark.parametrize("problem", [
        {"kind": "smooth_nonconvex", "dim": 5},
        {"kind": "quadratic", "dim": 5, "n": 10},
    ], ids=["smooth_nonconvex", "quadratic"])
    def test_step_that_underflows_to_zero_fails_its_row(self, tmp_path, capsys,
                                                        problem, command):
        """c / denominator rounds to 0.0 at c = 5e-324. The first step fails the
        row: a run of zero steps has no weighted index to draw and no weighted
        average to take (a NaN metric with a bound beside it)."""
        cfg = write_config(tmp_path, problem=problem, policies=["adaptive"], T=[50],
                           alpha=[0.3], seeds=[0], overrides={"c": 5e-324})
        assert main([command, "--config", str(cfg)]) == 1
        (row,) = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        fields = row.split(",")
        assert fields[5] == fields[6] == "nan" and int(fields[8]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "failed: aborted at iteration 1: stepsize 4.941e-324 / " in err
        assert err.count(" failed: ") == 1

    @pytest.mark.parametrize("key, values, unreached", [
        ("m", (0.0, 5.0), "variance_adaptive"),
        ("beta", (0.5, 0.9), "window"),
    ], ids=["m-variance_adaptive", "beta-window"])
    def test_m_override_sets_only_the_estimator_rules(self, tmp_path, key, values,
                                                     unreached):
        """overrides.m is the correction of adaptive, adaptive_first_moment,
        pnorm and window; variance_adaptive's is m_base + 2cL. overrides.beta
        is no decay of window, which averages raw samples."""
        rows = []
        for value in values:
            cfg = write_config(tmp_path, problem={"kind": "quadratic", "dim": 4,
                                                  "n": 12},
                               policies=["adaptive", unreached],
                               T=[50], seeds=[0], overrides={key: value})
            assert main(["sweep", "--config", str(cfg)]) == 0
            lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
            rows.append({r.split(",")[1]: r.split(",", 1)[1] for r in lines[1:]})
        assert rows[0][unreached] == rows[1][unreached]
        assert rows[0]["adaptive"] != rows[1]["adaptive"]

    def test_only_main_silences_runtime_warnings(self, tmp_path, capsys):
        """Neither a library call of execute_run nor main emits a RuntimeWarning
        on an adaptive cell at T=50, below the guarantee regime. main alone
        ignores numpy's floating-point errors: on an edge config whose bound
        overflows and whose idealized steps divide by a zero level, stderr holds
        the failed cell's line and the summary line, and nothing else."""
        path = write_config(tmp_path, policies=["adaptive"], T=[50], seeds=[0])
        cfg = ExperimentConfig.parse(json.loads(path.read_text()))
        (tmp_path / "edge").mkdir()
        edge = write_config(tmp_path / "edge", problem={"radius": 0.0},
                            schedule={"kind": "constant", "level": 0.0},
                            policies=["constant", "idealized"], seeds=[0],
                            overrides={"c": 1e200})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            row, _, _ = execute_run(cfg, build_problem(cfg), "adaptive", 50, 0.5, 0)
            assert main(["sweep", "--config", str(path)]) == 0
            capsys.readouterr()
            assert main(["sweep", "--config", str(edge)]) == 1
        assert not row.failed
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == (
            "idealized T=60 alpha=0.5 seed=0 failed: stepsizes must be positive "
            "and finite\nsome runs failed; see rows with final_metric=nan\n")

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
    NONCONVEX = {"kind": "smooth_nonconvex", "dim": 6, "seed": 1, "radius": 1.0}
    GOLDEN = {
        "quadratic": (QUADRATIC, {"kind": "piecewise_linear"},
                      {"p": 3.0, "window": 8},
                      "438108456be37c02954b827ebcb008f1"
                      "0c6592bdad3d6c5fcdb57f5612e85bab"),
        "smooth_nonconvex": (NONCONVEX, {"kind": "piecewise_linear"},
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
        recorded = (GOLDEN_DIR / f"{kind}_results.csv").read_bytes()
        assert hashlib.sha256(recorded).hexdigest() == digest  # the table diffed against
        assert_golden_bytes(data, digest, recorded)

    def test_golden_mismatch_lists_the_rows_that_differ(self):
        recorded = (GOLDEN_DIR / "spike_roots_results.csv").read_bytes()
        header, *rows = recorded.decode().splitlines()
        changed = rows[4].split(",")
        final, changed[5] = changed[5], "1.5"
        produced = "\n".join([header, *rows[:4], ",".join(changed), *rows[5:-1]])
        diff = keyed_diff(csv_rows(recorded), csv_rows(produced.encode()))
        key, last = ", ".join(changed[1:5]), ", ".join(rows[-1].split(",")[1:5])
        assert diff == [f"({key}): final_metric recorded {final}, produced 1.5",
                        f"({last}): only recorded"]
        with pytest.raises(AssertionError, match=re.escape(diff[0])):
            assert_golden_bytes(produced.encode(), self.GOLDEN["spike_roots"][3],
                                recorded)


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

    # sha256 of the trajectory file of one convex adaptive run, recorded while
    # every convex run still traced f(x_k); column 3 is that trace.
    GOLDEN_TRAJECTORY = ("25c343b2456826c7f9242f7e9feafe52"
                         "b385f0b1fa2187751ce6f1a91c3008ad")

    def test_golden_trajectory_bytes(self, tmp_path):
        cfg = write_config(tmp_path, policies=["adaptive"], T=[200], seeds=[3])
        assert main(["run", "--config", str(cfg)]) == 0
        data = next((tmp_path / "out").glob("trajectory_*.csv")).read_bytes()
        assert len(data.splitlines()) == 1 + 200
        recorded = (GOLDEN_DIR / "adaptive_trajectory.csv").read_bytes()
        assert hashlib.sha256(recorded).hexdigest() == self.GOLDEN_TRAJECTORY
        assert_golden_bytes(data, self.GOLDEN_TRAJECTORY, recorded, trajectory_rows)

    def test_trajectory_mismatch_lists_the_rows_that_differ(self):
        recorded = (GOLDEN_DIR / "adaptive_trajectory.csv").read_bytes()
        header, *rows = recorded.decode().splitlines()
        changed = rows[4].split(",")
        eta, changed[1] = changed[1], "1.5"
        produced = "\n".join([header, *rows[:4], ",".join(changed), *rows[5:-1]])
        diff = keyed_diff(trajectory_rows(recorded), trajectory_rows(produced.encode()))
        assert diff == [f"(5): eta recorded {eta}, produced 1.5", "(200): only recorded"]
        with pytest.raises(AssertionError, match=re.escape(diff[0])):
            assert_golden_bytes(produced.encode(), self.GOLDEN_TRAJECTORY, recorded,
                                trajectory_rows)

    def test_untraced_averaged_run_has_no_trajectory(self, tmp_path):
        """A convex sweep cell skips the f(x) trace that column 3 needs: writing
        its trajectory is an error, not the gradient trace under that name."""
        cfg = ExperimentConfig.parse({"T": [20]})
        row, record, schedule = execute_run(cfg, build_problem(cfg), "constant", 20,
                                            0.5, 0)
        with pytest.raises(ValueError, match="trace_values=True"):
            cli.write_trajectory_csv(record, schedule, row.config_hash, tmp_path)

    def test_baseline_trajectory_has_nan_estimator_column(self, tmp_path):
        cfg = write_config(tmp_path, policies=["constant"], seeds=[0])
        main(["run", "--config", str(cfg)])
        traj = next((tmp_path / "out").glob("trajectory_*.csv"))
        assert traj.read_text().splitlines()[1].split(",")[3] == "nan"

    RATIO_LINE = re.compile(r"^mean \|\|grad f\|\|\^2 / level\^2 along the run: (\S+)$",
                            re.MULTILINE)

    def test_grad_noise_ratio_is_the_trajectory_mean(self, tmp_path, capsys):
        """On a non-convex run, column 3 of the trajectory is ||grad f(x_k)||^2
        and column 5 the level: the printed ratio is their mean quotient."""
        cfg = write_config(tmp_path, problem={"kind": "smooth_nonconvex", "dim": 6,
                                              "seed": 1, "radius": 1.0},
                           policies=["adaptive"], seeds=[2])
        assert main(["run", "--config", str(cfg)]) == 0
        printed = self.RATIO_LINE.search(capsys.readouterr().out).group(1)
        traj = np.loadtxt(next((tmp_path / "out").glob("trajectory_*.csv")),
                          delimiter=",", skiprows=1)
        assert printed == format(np.mean(traj[:, 2] / traj[:, 4] ** 2), ".4g")

    @pytest.mark.parametrize("policy, ratio", [("adaptive", "15.36"),
                                               ("variance_adaptive", "27.66")])
    def test_convex_run_prints_the_recorded_ratio(self, tmp_path, capsys, policy, ratio):
        """A convex run's trajectory holds f(x_k) - f*, so only its printed ratio
        reads its ||grad f(x_k)||^2 trace; the values were recorded while every
        run traced it."""
        cfg = write_config(tmp_path, policies=[policy], T=[200], seeds=[3])
        assert main(["run", "--config", str(cfg)]) == 0
        assert self.RATIO_LINE.search(capsys.readouterr().out).group(1) == ratio

    def test_no_ratio_without_noise(self, tmp_path, capsys):
        cfg = write_config(tmp_path, schedule={"kind": "constant", "level": 0.0},
                           policies=["constant"], seeds=[0], overrides={"c": 0.01})
        assert main(["run", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "final_metric=" in out and not self.RATIO_LINE.search(out)


class TestVerifyCommand:
    def test_unknown_suite_is_a_config_error(self, tmp_path):
        assert main(["verify", "--suite", "nope", "--out", str(tmp_path)]) == 2

    # sha256 of verify_report.json, recorded while each criterion still computed
    # its own verdict beside the comparator it reports (adversarial: while each
    # query drew its own noise and every run traced ||grad f||^2).
    GOLDEN_REPORTS = {
        "adversarial": "d764835bff769dc4beb09674ad289f5e60807ab6635787fab24144bb2cfff0c9",
        "jensen": "5dd553cd9e3f4cbc3cc9dae9df5fa1cbfec9545a532a83c7039410390d5a53ab",
        "regret": "4c60fe0a99cd2b50f908c87ca0c54e801410383fce56cfbd2c89f26ef2465503",
    }

    @pytest.mark.parametrize("suite", sorted(GOLDEN_REPORTS))
    def test_golden_report_bytes(self, tmp_path, suite):
        out = tmp_path / "v"
        assert main(["verify", "--suite", suite, "--out", str(out)]) == 0
        recorded = (GOLDEN_DIR / f"{suite}_verify_report.json").read_bytes()
        assert hashlib.sha256(recorded).hexdigest() == self.GOLDEN_REPORTS[suite]
        assert_golden_bytes((out / "verify_report.json").read_bytes(),
                            self.GOLDEN_REPORTS[suite], recorded, report_criteria)

    def test_report_mismatch_lists_the_criteria_that_differ(self):
        recorded = (GOLDEN_DIR / "regret_verify_report.json").read_bytes()
        report = json.loads(recorded)
        first, _ = report["regret"]["criteria"]
        measured, first["measured"], first["passed"] = first["measured"], 1.5, False
        report["regret"]["criteria"] = [first]
        produced = json.dumps(report, indent=2, sort_keys=True).encode()
        diff = keyed_diff(report_criteria(recorded), report_criteria(produced))
        assert diff == [f"[regret] regret-T1000: measured recorded {measured}, produced "
                        "1.5; passed recorded True, produced False",
                        "[regret] regret-T10000: only recorded"]
        with pytest.raises(AssertionError, match=re.escape(diff[0])):
            assert_golden_bytes(produced, self.GOLDEN_REPORTS["regret"], recorded,
                                report_criteria)

    def test_failed_run_counts_as_inf(self):
        """A run that aborts is infinitely bad in every suite's seed helper,
        which goes on to the next seed, and a baseline's bound needs no
        completed run."""
        cases = (  # problem radius, schedule, overrides, failure reason
            (1.0, NoiseSchedule.piecewise_linear(50, 0.5), {"c": 1e200},
             "aborted at iteration 2: iterate overflow or NaN"),
            # no noise and a start at x*: the estimate and m are both 0
            (0.0, NoiseSchedule.constant(0.0, 50), {"c": 1.0, "m": 0.0},
             "aborted at iteration 1: degenerate stepsize denominator"))
        for radius, schedule, overrides, reason in cases:
            problem = build_problem(ExperimentConfig.parse(
                {"problem": {"dim": 5, "n": 10, "radius": radius}}))
            finals = verify._finals(problem, schedule, "adaptive", [0, 1], overrides)
            records = [runner.run_convex(
                Oracle(problem, schedule, seed=seed),
                POLICIES["adaptive"](problem, schedule, overrides)) for seed in (0, 1)]
            assert finals.tolist() == [np.inf, np.inf]
            assert [rec.failure_reason for rec in records] == [reason, reason]
        # every idealized run overflows, and the bound of its steps reads nan:
        # each eta_k^2 overflows where level_k^2 underflows to 0
        problem = build_problem(ExperimentConfig.parse({"problem": {"dim": 5, "n": 10}}))
        crit = verify._mean_under_bound("x", problem,
                                        NoiseSchedule.custom([1e-200] * 60),
                                        "idealized", [0, 1], 1.1)
        assert not crit.passed and crit.measured == np.inf and math.isnan(crit.bound)

    def test_failed_runs_fail_every_criterion(self, monkeypatch):
        """With every run failed, no criterion that reads runs passes: each
        reads its runs through verify._finals, the largest-step cap included."""
        def failed(oracle, policy):
            return runner.RunRecord(stepsizes=np.zeros(oracle.schedule.horizon),
                                    failed=True,
                                    failure_reason="aborted at iteration 1: injected")

        for name in RUNNERS:
            monkeypatch.setattr(verify, name, failed)
        results = [verify.run_suite(suite) for suite in (
            "rates", "theorem1", "theorem2", "nonconvex", "adversarial",
            "ordering")]
        passed = [crit.name for result in results for crit in result.criteria
                  if crit.passed]
        assert sum(len(result.criteria) for result in results) == 16
        assert passed == []

    def test_over_cap_paired_rule_reads_inf(self, monkeypatch):
        """A paired rule whose c/m exceeds 1/(2L) aborts at its first step,
        before the step is recorded, so its largest step reads inf."""
        problem = build_problem(ExperimentConfig.parse(
            {"problem": {"kind": "smooth_nonconvex", "dim": 6, "seed": 1}}))
        schedule = NoiseSchedule.piecewise_linear(50, 0.3)

        def over_cap(problem, schedule, overrides):  # m without its 2cL term
            T = schedule.horizon
            c = 1000 * math.sqrt(2 * problem.initial_gap() / (problem.L * T))
            return PairedAdaptiveStep(c, variance_m_base(schedule.max_level(), T),
                                      VarianceEMA(default_beta(T)))

        monkeypatch.setitem(POLICIES, "variance_adaptive", over_cap)
        worst = verify._finals(problem, schedule, "variance_adaptive", [0, 1],
                               metric=lambda rec: rec.stepsizes.max())
        assert worst.tolist() == [np.inf, np.inf]
        rec = runner.run_variance_adaptive(Oracle(problem, schedule, seed=0),
                                           over_cap(problem, schedule, {}))
        assert rec.failure_reason.startswith("aborted at iteration 1: stepsize ")
        assert rec.failure_reason.endswith(f"exceeds the smoothness cap "
                                           f"{1 / (2 * problem.L):.4g}")
        assert not rec.stepsizes.any()

    def test_rates_suite_fails_on_an_infinite_median(self, monkeypatch):
        """More than half of adaptive's seeds failing at one horizon is a FAIL,
        not a math domain error in the improvement exponent."""
        exponents = {"constant": -0.5, "idealized": -0.75, "adaptive": -0.6}

        def median(problem, schedule, name, seeds, overrides=None):
            T = schedule.horizon
            return np.inf if (name, T) == ("adaptive", 1000) else T ** exponents[name]

        monkeypatch.setattr(verify, "_median", median)
        monkeypatch.setattr(verify, "_reference_quadratic", lambda radius=1.0: None)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = verify.suite_rates()
        verdicts = {crit.name: crit.passed for crit in result.criteria}
        assert verdicts == {"constant-slope": True, "idealized-slope": True,
                            "adaptive-steeper-than-constant": False}


class TestCriterionConstructors:
    """A verify criterion's verdict is the comparison it reports."""

    def test_equality_and_window_endpoints_pass(self):
        assert verify._at_most("c", 2.0, 2.0).passed
        assert not verify._at_most("c", 2.5, 2.0).passed
        assert verify._at_least("c", 2.0, 2.0).passed
        assert not verify._at_least("c", 1.5, 2.0).passed
        assert verify._within("c", -0.60, -0.60, -0.40, -0.5).passed
        assert verify._within("c", -0.40, -0.60, -0.40, -0.5).passed
        assert not verify._within("c", -0.39, -0.60, -0.40, -0.5).passed

    def test_nan_fails_every_comparison(self):
        """So does an infinite one, a failed run's inf, even against an infinite bound."""
        for measured in (np.nan, np.inf, -np.inf):
            for crit in (verify._at_most("c", measured, 1.0),
                         verify._at_most("c", measured, np.inf),
                         verify._at_least("c", measured, 1.0),
                         verify._at_least("c", measured, -np.inf),
                         verify._within("c", measured, -0.60, -0.40, -0.5)):
                assert not crit.passed
                assert crit.describe().startswith(f"FAIL c: measured {measured:.6g} ")

    def test_window_comparator_and_target(self):
        crit = verify._within("c", -0.5, -0.60, -0.40, -0.5)
        assert (crit.comparator, crit.bound) == ("in [-0.60, -0.40]", -0.5)
        assert verify._within("c", -0.7, -0.85, -0.65, -0.75).comparator == \
            "in [-0.85, -0.65]"

    def test_details_reach_the_report_as_plain_values(self):
        """A "bound" detail beside the criterion's own bound; numpy scalars coerced."""
        crit = verify._at_most("c", np.float64(1.0), 2.0, bound=1.5, seeds=3)
        entry = verify.SuiteResult("s", (crit,)).to_dict()["criteria"][0]
        assert entry == {"name": "c", "passed": True, "measured": 1.0, "bound": 2.0,
                         "comparator": "<=", "details": {"bound": 1.5, "seeds": 3}}
        assert type(entry["passed"]) is bool and type(entry["measured"]) is float


class TestScheduleDump:
    def test_stdout_dump(self, tmp_path, capsys):
        cfg = write_config(tmp_path, T=[10])
        assert main(["schedule-dump", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,level"
        assert len(lines) == 11
        assert lines[5].startswith("5,")
        assert not (tmp_path / "out").exists()  # the config's "out" is not read

    def test_custom_schedule_roundtrip(self, tmp_path, capsys):
        levels = tmp_path / "levels.txt"
        levels.write_text("0.5\n1.5\n2.5\n", encoding="utf-8")
        cfg = write_config(tmp_path, T=[3],
                           schedule={"kind": "custom", "path": str(levels)})
        main(["schedule-dump", "--config", str(cfg)])
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == ["1,0.5", "2,1.5", "3,2.5"]


class TestConfigHandling:
    @pytest.mark.parametrize("command, args", [
        ("run", ["--T", "50"]), ("sweep", ["--T", "50"]),
        ("verify", ["--suite", "jensen"])])
    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_on_an_existing_file_fails_before_any_run(
            self, tmp_path, monkeypatch, capsys, command, args, out):
        """The output is written after every run, so a file in its way is a
        config error up front, not a traceback at the end."""
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("kept\n", encoding="utf-8")
        calls = []
        for name in ("execute_run", "run_suite"):
            monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a))
        assert main([command, *args, "--out", out]) == 2
        assert capsys.readouterr().err == \
            "config error: out: afile exists and is not a directory\n"
        assert not calls and Path("afile").read_text(encoding="utf-8") == "kept\n"

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

    @pytest.mark.parametrize("content", [
        None, b'{"T": [', b'\xff\xfe{}', b"[" * 100_000 + b"]" * 100_000],
        ids=["missing", "malformed", "not-utf8", "nested-100000-deep"])
    def test_unreadable_config_file_is_a_config_error(self, tmp_path, monkeypatch,
                                                      capsys, content):
        """A config file that cannot be read, decoded or parsed is one line and
        exit 2; bytes that are not UTF-8 and an array nested deeper than the
        parser recurses gave a traceback and exit 1."""
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        if content is not None:
            path.write_bytes(content)
        assert main(["sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.rglob("results.csv"))

    @pytest.mark.parametrize("command, owner, name, key", [
        ("sweep", cli, "make_quadratic", "problem"),
        ("run", cli, "make_quadratic", "problem"),
        ("schedule-dump", NoiseSchedule, "piecewise_linear", "schedule"),
    ], ids=["sweep", "run", "schedule-dump"])
    def test_unallocatable_size_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                  command, owner, name, key):
        """A size that passes numpy's own check but that the allocator refuses
        raises MemoryError (problem.dim = problem.n = 1e8 asks for 71 PiB);
        before any run it is a config error. The allocation is not tried here:
        whether the OS refuses it depends on its overcommit mode."""
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 71.1 PiB for an array")

        monkeypatch.setattr(owner, name, refuse)
        cfg = write_config(tmp_path, policies=["constant"], seeds=[0])
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {key}: Unable to allocate 71.1 PiB " \
                               "for an array\n"
        assert not captured.out and not (tmp_path / "out").exists()

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
        # above sys.maxsize, which no deque takes as its width
        ({"policies": ["window"], "overrides": {"window": 10 ** 20}}, [],
         "overrides.window"),
        ({"overrides": {"c": -0.1}}, [], "overrides.c"),
        ({"policies": ["adaptive"], "overrides": {"m": -1.0}}, [], "overrides.m"),
        # a grid cell runs once: each ran its cells twice and exited 0
        ({"T": [20, 20]}, [], "T"),
        ({"alpha": "0.25,0.250"}, [], "alpha"),
        ({"policies": ["constant", "constant"]}, [], "policies"),
        ({"schedule": {"kind": "constant"}, "alpha": [0.25, 0.5]}, [], "alpha"),
    ], ids=["null-level", "dim-abc", "T-abc", "flag-T-abc", "flag-alpha-x",
            "problem-list", "n-below-dim", "top-level-list", "unknown-key",
            "beta-x", "m-coeff-3", "flag-bound-const-7", "negative-radius",
            "negative-radius-nonconvex", "negative-seed", "flag-seed-negative",
            "negative-alpha", "negative-level", "beta-one", "p-zero",
            "window-zero", "window-huge", "negative-c", "negative-m", "repeated-T",
            "repeated-alpha-text", "repeated-policy", "alpha-list-constant-schedule"])
    def test_bad_input_names_its_key(self, tmp_path, capsys, config, flags, key):
        path = tmp_path / "config.json"
        if isinstance(config, dict):
            config = {"out": str(tmp_path / "out"), "seeds": [0], "T": [20], **config}
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["sweep", "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: "), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config, flags, key", [
        ("run", {"policies": ["constant", "adaptive"]}, [], "policies"),
        ("run", {"T": [100, 200]}, [], "T"),
        ("run", {"alpha": [0.25, 0.5]}, [], "alpha"),
        ("run", {"seeds": [0, 1]}, [], "seeds"),
        ("run", {}, ["--policy", "constant,adaptive", "--T", "100,200"], "policies"),
        ("schedule-dump", {"T": [100, 200]}, [], "T"),
        ("schedule-dump", {}, ["--alpha", "0.25,0.5"], "alpha"),
    ], ids=["run-policies", "run-T", "run-alpha", "run-seeds", "run-flags",
            "dump-T", "dump-flag-alpha"])
    def test_one_run_command_takes_one_value_per_list_key(self, tmp_path, capsys,
                                                          command, config, flags, key):
        """run and schedule-dump read one value of each list key they use; a
        second value is a config error, not dropped."""
        cfg = write_config(tmp_path, **{"policies": ["constant"], "T": [100],
                                        "seeds": [0], **config})
        assert main([command, "--config", str(cfg), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {key}: "), captured.err
        assert not captured.out and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config, flags", [
        ("verify", {"T": [50, 50]}, ["--suite", "jensen"]),
        ("schedule-dump", {"policies": ["nope"]}, ["--T", "10", "--alpha", "0.3"]),
    ], ids=["verify-repeated-T", "dump-bad-policy"])
    def test_command_ignores_config_keys_it_does_not_read(self, tmp_path, capsys,
                                                          command, config, flags):
        """verify reads only out, schedule-dump only schedule, T and alpha; a
        bad value of another key does not fail them (both exited 2)."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"out": str(tmp_path / "out"), **config}),
                        encoding="utf-8")
        assert main([command, "--config", str(path), *flags]) == 0
        assert "config error" not in capsys.readouterr().err

    @pytest.mark.parametrize("command, config, flags, key", [
        ("verify", {"out": 5}, ["--suite", "jensen"], "out"),
        ("schedule-dump", {"schedule": {"kind": "nope"}}, [], "schedule.kind"),
        ("schedule-dump", {"T": [50, 50]}, [], "T"),
        ("verify", {"seed": 3}, ["--suite", "jensen"], "seed"),
    ], ids=["verify-out-number", "dump-bad-kind", "dump-repeated-T",
            "verify-unknown-key"])
    def test_bad_key_a_command_reads_still_fails(self, tmp_path, capsys, command,
                                                 config, flags, key):
        """A bad value of a key the command reads, or a key outside SCHEMA, is exit 2."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main([command, "--config", str(path), *flags]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")

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


RUNNERS = ("run_convex", "run_nonconvex", "run_variance_adaptive")
HOOK_T = 50
# cells per runner: six single-sample policies on each problem kind, the paired
# one on both, and the two verify seeds below
HOOKED_RUNS = {"run_convex": 6 + 2, "run_nonconvex": 6, "run_variance_adaptive": 2}


@pytest.fixture(scope="module")
def hooked_runs(tmp_path_factory):
    """[runs, completed iterations] per runner, counted as perfbench/child.py
    counts them: through wrappers on the names cli and verify bind, over a
    sweep of every policy on both problem kinds and one verify._finals call."""
    counts = {name: [0, 0] for name in RUNNERS}

    def counted(name, fn):
        def hooked(*args, **kwargs):
            record = fn(*args, **kwargs)
            counts[name][0] += 1
            counts[name][1] += int((record.stepsizes > 0).sum())
            return record
        return hooked

    work = tmp_path_factory.mktemp("hooked")
    with pytest.MonkeyPatch.context() as patch:
        for module in (cli, verify):
            for name in RUNNERS:
                patch.setattr(module, name, counted(name, getattr(runner, name)))
        for problem in ({"kind": "quadratic", "dim": 5, "n": 10},
                        {"kind": "smooth_nonconvex", "dim": 6, "seed": 1}):
            cfg = write_config(work, problem=problem, policies=list(POLICIES),
                               T=[HOOK_T], seeds=[0])
            assert main(["sweep", "--config", str(cfg)]) == 0
        quad = build_problem(ExperimentConfig.parse({}))
        schedule = NoiseSchedule.piecewise_linear(HOOK_T, 0.5)
        assert len(verify._finals(quad, schedule, "adaptive", [0, 1])) == 2
    return counts


@pytest.mark.parametrize("name", RUNNERS)
def test_runners_are_bound_in_cli_and_verify(name, hooked_runs):
    """perfbench/child.py counts iterations by wrapping each runner under the
    name that cli and verify bind it to, so every cell must go through one."""
    assert getattr(cli, name) is getattr(verify, name) is getattr(runner, name)
    assert hooked_runs[name] == [HOOKED_RUNS[name], HOOKED_RUNS[name] * HOOK_T]
    cells = sum(HOOKED_RUNS.values())
    assert [sum(c) for c in zip(*hooked_runs.values())] == [cells, cells * HOOK_T]


def flags_of(command):
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {flag for action in subparsers.choices[command]._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"}


REMOVED_FLAGS = [("run", "--workers")] + [
    ("verify", flag) for flag in ("--seed", "--workers", "--policy", "--T", "--alpha",
                                  "--m-coeff", "--bound-const", "--timings")] + [
    ("schedule-dump", flag) for flag in ("--out", "--seed", "--workers", "--policy",
                                         "--m-coeff", "--bound-const", "--timings")]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_command_rejects_a_flag_it_does_not_read(tmp_path, monkeypatch, capsys,
                                                 command, flag):
    """Each command takes only the flags it reads; argparse rejects the rest."""
    assert len(REMOVED_FLAGS) == 16 and flag not in flags_of(command)
    monkeypatch.chdir(tmp_path)
    value = [] if flag == "--timings" else ["2"]
    suite = ["--suite", "jensen"] if command == "verify" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *suite, flag, *value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


class TestReadme:
    """The README's config example, flag and key lists and library sketch match
    the code."""

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
        block = self.TEXT.split("\n## CLI\n", 1)[1].split("\n### ", 1)[0]
        items = re.findall(r"^- `([a-z-]+)`: (.*?)(?=^- |\n\n)", block, re.M | re.S)
        documented = {command: set(re.findall(r"`(--[A-Za-z-]+)", flags))
                      for command, flags in items}
        assert documented == {command: flags_of(command) for command in cli.COMMANDS}

    def test_key_lists_match_commands(self):
        block = self.TEXT.split("\n## CLI\n", 1)[1].split("\n### ", 1)[0]
        items = re.findall(r"^- `([a-z-]+)`: reads (.*?);", block, re.M | re.S)
        documented = {command: set(SCHEMA) if keys == "every key"
                      else set(re.findall(r"`(\w+)`", keys)) for command, keys in items}
        assert documented == {command: set(keys)
                              for command, (_, _, keys, _) in cli.COMMANDS.items()}

    def test_library_sketch_runs(self, capsys):
        _, block, *rest = self.TEXT.split("```python\n")
        assert not rest, "the README has one python block"
        exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
        final, bound = map(float, capsys.readouterr().out.split())
        assert np.isfinite(final) and np.isfinite(bound)


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
