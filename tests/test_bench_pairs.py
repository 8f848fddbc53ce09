"""The summary and verdict of tools/bench_pairs.py on synthetic runs."""

import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bp = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bp)


def run(op_s, setup_s=0.03, correct=True, failed=0):
    # shaped like the parsed last line of perfbench/run.py
    return {"correct": correct, "attempted": 40, "failed": failed,
            "metrics": {"setup_s": setup_s, "op_s": op_s, "ops": 6961658,
                        "rng_bits": 7503760, "peak_rss_mib": 18.3}}


PARENT = [0.190, 0.192, 0.188, 0.195, 0.191, 0.189, 0.193, 0.190, 0.194,
          0.192]


def test_parent_runs_first_on_odd_pairs():
    assert [bp.side_order(p)[0] for p in range(1, 5)] == [
        "parent", "change", "parent", "change"]
    assert set(bp.side_order(2)) == {"parent", "change"}


def test_summary_of_a_clear_gain_meets_the_claim():
    change = [v - 0.010 for v in PARENT]
    change[3] = 0.196  # one pair the other way round
    s = bp.summarize({"parent": [run(v) for v in PARENT],
                      "change": [run(v) for v in change]},
                     list(range(101, 111)))
    p, c = s["parent"], s["change"]
    assert s["pairs"] == 10 and s["seeds"][0] == 101
    assert p["op_s_runs"] == PARENT
    assert p["op_s_median"] == statistics.median(PARENT)
    q1, _, q3 = statistics.quantiles(PARENT, n=4)
    assert (p["op_s_q1"], p["op_s_q3"]) == (q1, q3)
    assert p["correct"] and c["correct"] and p["failed"] == 0
    assert p["attempted"] == [40] * 10
    op = s["compare"]["op_s"]
    assert op["lower_in_pairs"] == 9 and op["equal_in_pairs"] == 0
    assert op["median_gap"] == pytest.approx(
        statistics.median(PARENT) - statistics.median(change))
    assert op["median_ratio"] < 1
    assert op["parent_iqr"] == q3 - q1
    # identical counters: no pair lower, every pair equal
    assert s["compare"]["ops"]["lower_in_pairs"] == 0
    assert s["compare"]["ops"]["equal_in_pairs"] == 10
    assert s["compare"]["ops"]["median_gap"] == 0
    assert bp.claim_result(s, "op_s").startswith("met: lower in 9 of 10")


@pytest.mark.parametrize("case", ["eight_of_ten", "inside_iqr", "incorrect"])
def test_claim_not_met(case):
    if case == "eight_of_ten":
        change = [v - 0.010 for v in PARENT]
        change[3] = change[5] = 0.199
    else:
        # lower in every pair, but by far less than the parent's IQR
        change = [v - 0.0005 for v in PARENT]
    runs = {"parent": [run(v) for v in PARENT],
            "change": [run(v) for v in change]}
    if case == "incorrect":
        change = [v - 0.010 for v in PARENT]
        runs["change"] = [run(v, correct=i != 4) for i, v in
                          enumerate(change)]
    s = bp.summarize(runs, list(range(1, 11)))
    assert bp.claim_result(s, "op_s").startswith("not met")
    assert s["change"]["correct"] is (case != "incorrect")


def test_one_pair_has_degenerate_quartiles():
    s = bp.summarize({"parent": [run(0.2, failed=1)], "change": [run(0.18)]},
                     [7])
    assert s["parent"]["op_s_q1"] == s["parent"]["op_s_q3"] == 0.2
    assert s["parent"]["failed"] == 1
    assert s["compare"]["op_s"]["parent_iqr"] == 0
    assert s["compare"]["op_s"]["lower_in_pairs"] == 1
    assert bp.claim_result(s, "op_s").startswith("met: lower in 1 of 1")
