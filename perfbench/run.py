#!/usr/bin/env python3
"""Benchmark of the mge masked Gaussian elimination package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see perfbench/README.md) from the root of a source
checkout, against the package under src/. With --trace 0 it measures the
end-to-end metrics with nothing wrapped; with --trace 1 it measures the
per-layer split and writes the spans to perfbench/out/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exits 2 without that line when the package cannot be imported from src/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 15

# numpy's BLAS would start a thread per core at import, and the time that
# takes swings with the host; the benchmark runs in one thread anyway.
# Set before anything imports numpy; the set-up probes inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _parse(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up in this interpreter and print it")
    return p.parse_args(argv)


def _setup(workload, seed):
    """Set up in this interpreter: the inputs and the corrected seconds."""
    from calibrate import measure
    from workloads import WORKLOADS

    state, _, corrected = measure(WORKLOADS[workload].setup, seed)
    return state, corrected


def _setup_s(args):
    """Median corrected set-up time over fresh interpreters, so imports count."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def main(argv=None):
    args = _parse(argv)
    sys.path.insert(0, str(SRC))
    try:
        state, took = _setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import mge from {SRC}: {exc}", file=sys.stderr)
        return 2
    import mge

    if Path(mge.__file__).resolve().parent != SRC / "mge":
        print(f"mge imported from {mge.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(took)
        return 0

    from workloads import WORKLOADS

    setup_s = _setup_s(args)
    workload = WORKLOADS[args.workload]
    if args.trace:
        res = workload.run_traced(state, args.seconds)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(res.trace) + "\n")
        res.info.append(f"spans written to {path.relative_to(ROOT)}")
    else:
        res = workload.run(state, args.seconds)
        res.metrics["setup_s"] = (setup_s, "s")
        res.metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    for line in res.info:
        print(line)
    for message in res.errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    # an operation that raises stops the run, so none is counted as failed
    print(json.dumps({
        "correct": not res.errors,
        "attempted": res.attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(res.metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
