"""Check a workload's outputs against this program's recorded reference.

An operation is one ``results.csv`` row, or one verify criterion. It fails
when its ``final_metric`` (or the criterion's measured value) is NaN or
differs from the reference by more than ``REL_TOL`` relative, when its
``oracle_queries`` differ at all, when a verdict differs from the reference
or is FAIL, when a row is missing or unexpected, or when the process exited
with a nonzero code.

``REL_TOL`` is 1e-9: ``results.csv`` prints 12 significant digits, so the
reference itself is exact to about 5e-13, and 1e-9 leaves room for a change
that only reorders floating-point operations (a batched engine summing in
another order) while any change to the algorithm, its noise streams or its
stepsizes moves a final metric by far more.

Record the reference with ``PYTHONPATH=src python3 perfbench/check.py``; it
runs every variant of every workload in this process through ``cli.main``
and rewrites ``reference.json``. Run it with the thread settings of
``run.THREAD_ENV``.
"""
from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import spec

REL_TOL = 1e-9
REFERENCE = Path(__file__).with_name("reference.json")


def row_key(policy: str, horizon: str, alpha: str, seed: str) -> str:
    return f"{policy}|{horizon}|{alpha}|{seed}"


def parse_results(text: str) -> dict:
    """key -> (final_metric, oracle_queries) for every results.csv row."""
    lines = text.splitlines()
    rows = {}
    for line in lines[1:]:
        cols = line.split(",")
        rows[row_key(*cols[1:5])] = (float(cols[5]), int(cols[8]))
    return rows


def close(measured: float, reference: float) -> bool:
    if math.isnan(measured) or math.isnan(reference):
        return False
    return abs(measured - reference) <= REL_TOL * max(abs(measured), abs(reference))


def check_sweep(text: str, expected: dict) -> tuple[int, int, list]:
    """(attempted, failed, problems) of a results.csv against its reference."""
    rows = parse_results(text)
    problems = []
    for key, (ref_metric, ref_queries) in expected.items():
        if key not in rows:
            problems.append(f"{key}: missing")
            continue
        metric, queries = rows[key]
        if not close(metric, ref_metric):
            problems.append(f"{key}: final_metric {metric!r} != {ref_metric!r}")
        elif queries != ref_queries:
            problems.append(f"{key}: oracle_queries {queries} != {ref_queries}")
    extra = sorted(set(rows) - set(expected))
    problems += [f"{key}: unexpected row" for key in extra]
    return len(expected) + len(extra), len(problems), problems


def check_verify(report: dict, expected: dict) -> tuple[int, int, list]:
    """(attempted, failed, problems) of a verify_report.json."""
    found = {c["name"]: c for suite in report.values() for c in suite["criteria"]}
    problems = []
    for name, (ref_passed, ref_measured) in expected.items():
        crit = found.get(name)
        if crit is None:
            problems.append(f"{name}: missing")
        elif not crit["passed"] or crit["passed"] != ref_passed:
            problems.append(f"{name}: verdict {'PASS' if crit['passed'] else 'FAIL'}")
        elif not close(crit["measured"], ref_measured):
            problems.append(f"{name}: measured {crit['measured']!r} != {ref_measured!r}")
    return len(expected), len(problems), problems


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check_outputs(workload: str, variant: int, out_dir: Path, rc: int,
                  reference: dict) -> tuple[int, int, list]:
    """Check one process's output directory; a nonzero exit fails everything."""
    expected = reference[workload][str(variant)]
    try:
        if workload == "verify-adversarial":
            report = json.loads((out_dir / "verify_report.json").read_text())
            attempted, failed, problems = check_verify(report, expected)
        else:
            text = (out_dir / "results.csv").read_text(encoding="utf-8")
            attempted, failed, problems = check_sweep(text, expected)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return len(expected), len(expected), [f"unreadable output: {exc!r}"]
    if rc != 0:
        return attempted, attempted, problems + [f"exit code {rc}"]
    return attempted, failed, problems


def write_inputs(workload: str, variant: int, work: Path) -> list:
    """Write the variant's config under ``work``; return the CLI arguments."""
    inputs = spec.make_inputs(workload, variant)
    args = list(inputs["args"]) + ["--out", str(work / "out")]
    if inputs["config"] is not None:
        path = work / "config.json"
        path.write_text(json.dumps(inputs["config"], sort_keys=True), encoding="utf-8")
        args += ["--config", str(path)]
    return args


def record(work: Path) -> dict:
    from nonstat_opt import cli

    reference = {}
    for workload in spec.WORKLOADS:
        entries = {}
        for variant in spec.variants(workload):
            d = work / f"{workload}-{variant}"
            d.mkdir(parents=True)
            rc = cli.main(write_inputs(workload, variant, d))
            if rc != 0:
                raise SystemExit(f"{workload} variant {variant}: exit code {rc}")
            if workload == "verify-adversarial":
                report = json.loads((d / "out" / "verify_report.json").read_text())
                entries[str(variant)] = {
                    c["name"]: [c["passed"], c["measured"]]
                    for suite in report.values() for c in suite["criteria"]}
            else:
                entries[str(variant)] = parse_results(
                    (d / "out" / "results.csv").read_text(encoding="utf-8"))
            shutil.rmtree(d)
            print(f"recorded {workload} variant {variant}", file=sys.stderr)
        reference[workload] = entries
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return reference


if __name__ == "__main__":
    work = Path(__file__).resolve().parent.parent / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    record(work)
