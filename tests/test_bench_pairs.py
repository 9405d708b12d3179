"""The verdicts tools/bench_pairs.py writes, on synthetic samples."""
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

NONE_FAILED = {"parent": {"failed": 0, "attempted": 40},
               "change": {"failed": 0, "attempted": 60}}


def test_claim_and_bound_verdicts():
    parent = [100.0, 104.0, 98.0, 102.0, 101.0, 99.0, 103.0, 97.0, 100.0, 102.0]
    faster = [150.0, 149.0, 155.0, 151.0, 148.0, 152.0, 150.0, 153.0, 99.0, 151.0]
    s = bench_pairs.summarize(parent, faster, "higher", 0.25)
    assert s["change_wins"] == 9 and s["pairs"] == 10
    assert s["parent"]["median"] == 100.5 and s["parent_iqr"] == 3.5
    assert bench_pairs.claim_verdict(s, NONE_FAILED) == "gain" and s["verdict"] == "pass"
    # the same pairs are no gain when the change fails a larger share of operations
    more_failed = {"parent": {"failed": 1, "attempted": 40},
                   "change": {"failed": 2, "attempted": 60}}
    assert bench_pairs.failures_verdict(more_failed) == "fail"
    assert bench_pairs.claim_verdict(s, more_failed) == "no gain"

    # 8 of 10 wins is no gain, however large the medians' gap
    eight = faster[:7] + [90.0, 99.0, 151.0]
    assert bench_pairs.claim_verdict(
        bench_pairs.summarize(parent, eight, "higher", 0.25), NONE_FAILED) == "no gain"
    # 10 wins by less than the parent's interquartile distance is no gain
    close = [p + 1.0 for p in parent]
    s = bench_pairs.summarize(parent, close, "higher", 0.25)
    assert s["change_wins"] == 10 and bench_pairs.claim_verdict(s, NONE_FAILED) == "no gain"

    # lower is better: 30% slower fails its 0.25 bound, 20% slower passes
    walls = [4.0, 4.1, 3.9, 4.0]
    assert bench_pairs.summarize(walls, [w * 1.3 for w in walls],
                                 "lower", 0.25)["verdict"] == "fail"
    assert bench_pairs.summarize(walls, [w * 1.2 for w in walls],
                                 "lower", 0.25)["verdict"] == "pass"
    # a spread wider than the bound is unresolved, unless every change run
    # reads better than every parent run
    wide = [3.0, 6.0, 4.0, 5.5, 3.2]
    s = bench_pairs.summarize(wide, [4.2, 4.0, 5.0, 4.1, 4.3], "lower", 0.25)
    assert s["relative_spread"] > 0.25 and s["verdict"] == "unresolved"
    assert bench_pairs.summarize(wide, [2.0, 2.5, 2.9, 1.5, 2.2],
                                 "lower", 0.25)["verdict"] == "pass"
