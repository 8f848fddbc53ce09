#!/usr/bin/env python3
"""Alternated pairs of benchmark runs: a parent revision against the tree.

    python3 tools/bench_pairs.py --parent REV --pairs N --seed-base S \\
        --seconds T --workloads W,... [--claim METRIC:WORKLOAD] --out FILE

Exports REV with `git archive` and the working tree's tracked files
(staged or not; untracked files are left out, so `git add` new ones
first) into two fresh directories. Pair p (1..N) runs each workload in
turn on both sides with seed S + p,

    python3 perfbench/run.py --workload W --seed S+p --seconds T --trace 0

the parent first on odd pairs and the change first on even ones. FILE
gets every run, each side's median and quartiles per metric, and per
metric the pairs in which the change read lower. With --claim, it also
gets the verdict on "METRIC on WORKLOAD lower in at least 9 of 10
pairs, medians apart by more than the parent's interquartile range".
Exits 1 when a run is not correct or reports failed operations.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "op_s", "ops", "rng_bits", "peak_rss_mib")
RUN = "python3 perfbench/run.py --workload W --seed S --seconds {} --trace 0"


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export_revision(rev: str, dest: Path) -> None:
    """The files of rev, as `git archive` gives them, under dest."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(dest: Path) -> None:
    """The working tree's copies of the tracked files, under dest."""
    for name in _git("ls-files", "-z").decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():  # a tracked file may be deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def side_order(pair: int) -> tuple[str, str]:
    """Which side runs first in pair (1-based): the parent on odd pairs."""
    return ("parent", "change") if pair % 2 else ("change", "parent")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in root: its result line, metric values only."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": (proc.stderr or proc.stdout).strip()[-2000:]}
    out = json.loads(lines[-1])
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    return out


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize_side(runs: list[dict]) -> dict:
    """correct, failed and attempted, then runs, median and quartiles of
    each metric."""
    out = {"correct": all(r["correct"] for r in runs),
           "failed": sum(r["failed"] for r in runs),
           "attempted": [r["attempted"] for r in runs]}
    for m in METRICS:
        values = [r["metrics"][m] for r in runs if m in r["metrics"]]
        if not values:
            continue
        out[f"{m}_runs"] = values
        out[f"{m}_median"] = statistics.median(values)
        out[f"{m}_q1"], out[f"{m}_q3"] = quartiles(values)
    return out


def compare(parent: dict, change: dict) -> dict:
    """Per metric: pairs in which the change read lower, and equal; the
    median ratio change/parent; the median gap parent - change; the
    parent's interquartile range."""
    out = {}
    for m in METRICS:
        key = f"{m}_runs"
        if key not in parent or key not in change:
            continue
        pairs = list(zip(parent[key], change[key]))
        pm, cm = parent[f"{m}_median"], change[f"{m}_median"]
        out[m] = {
            "lower_in_pairs": sum(c < p for p, c in pairs),
            "equal_in_pairs": sum(c == p for p, c in pairs),
            "median_ratio": cm / pm if pm else 1.0,
            "median_gap": pm - cm,
            "parent_iqr": parent[f"{m}_q3"] - parent[f"{m}_q1"],
        }
    return out


def summarize(runs: dict[str, list[dict]], seeds: list[int]) -> dict:
    """One workload: its runs per side in pair order, summarized."""
    parent = summarize_side(runs["parent"])
    change = summarize_side(runs["change"])
    return {"pairs": len(seeds), "seeds": seeds, "parent": parent,
            "change": change, "compare": compare(parent, change)}


def claim_result(summary: dict, metric: str) -> str:
    """Met when the change read lower in at least nine tenths of the
    pairs and the medians are further apart than the parent's IQR."""
    c = summary["compare"][metric]
    pairs = summary["pairs"]
    need = math.ceil(0.9 * pairs)
    met = (c["lower_in_pairs"] >= need and c["median_gap"] > c["parent_iqr"]
           and summary["parent"]["correct"] and summary["change"]["correct"])
    return (f"{'met' if met else 'not met'}: lower in {c['lower_in_pairs']} "
            f"of {pairs} pairs (at least {need} needed); median gap "
            f"{c['median_gap']:.6g} against a parent IQR of "
            f"{c['parent_iqr']:.6g}")


def _host() -> str:
    try:
        import numpy
        np_version = f", numpy {numpy.__version__}"
    except ImportError:
        np_version = ""
    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE")
    return (f"{platform.system()} {platform.machine()}, {os.cpu_count()} "
            f"CPUs, Python {platform.python_version()}{np_version}"
            + (f", PYTHONDONTWRITEBYTECODE={bytecode}" if bytecode else ""))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision to compare")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed-base", type=int, required=True,
                   help="pair p runs with seed SEED_BASE + p")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workloads", required=True,
                   help="comma-separated perfbench workload names")
    p.add_argument("--claim", help="METRIC:WORKLOAD, e.g. op_s:solve-uov-ip")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    args.workloads = args.workloads.split(",")
    if args.claim:
        metric, _, workload = args.claim.partition(":")
        if metric not in METRICS or workload not in args.workloads:
            p.error(f"--claim wants METRIC:WORKLOAD with METRIC one of "
                    f"{', '.join(METRICS)} and WORKLOAD among --workloads")
        args.claim = metric, workload
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    seeds = [args.seed_base + p for p in range(1, args.pairs + 1)]
    runs = {w: {"parent": [], "change": []} for w in args.workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        export_revision(args.parent, roots["parent"])
        export_worktree(roots["change"])
        for pair, seed in enumerate(seeds, 1):
            for w in args.workloads:
                for side in side_order(pair):
                    res = run_once(roots[side], w, seed, args.seconds)
                    runs[w][side].append(res)
                    op_s = res["metrics"].get("op_s", float("nan"))
                    print(f"pair {pair} seed {seed} {w} {side}: op_s "
                          f"{op_s:.6g} correct {res['correct']}", flush=True)
    report = {
        "command": RUN.format(args.seconds),
        "parent_commit": _git("rev-parse", "--short",
                              args.parent).decode().strip(),
        "what": ("parent revision against the working tree's tracked files, "
                 "each from its own directory (git archive of the parent), "
                 "run alternately, parent first on odd pairs; pair p uses "
                 f"seed {args.seed_base} + p on both sides; each pair runs "
                 "the workloads in turn; medians per metric, quartiles per "
                 "side (statistics.quantiles, n=4); 'lower_in_pairs' counts "
                 "the pairs in which the change read lower; all runs listed "
                 "in pair order"),
        "host": _host(),
        "workloads": {w: summarize(runs[w], seeds) for w in args.workloads},
    }
    if args.claim:
        metric, workload = args.claim
        report["claim"] = (f"{metric} on {workload} lower in at least 9 of "
                           "10 pairs, medians apart by more than the "
                           "parent's IQR")
        report["claim_result"] = claim_result(
            report["workloads"][workload], metric)
        print(report["claim_result"])
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    ok = all(s["correct"] and not s["failed"]
             for w in report["workloads"].values()
             for s in (w["parent"], w["change"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
