"""The benchmark tracer's patch points still exist and still see calls.

perfbench/tracer.py replaces mge names by attribute lookup; a refactor
that renames one, or that makes a caller bind a gadget at import time,
breaks its traced runs. This imports the tracer as the benchmark does
and runs one of each kind of call it wraps.
"""

import importlib
import random
from pathlib import Path

from mge import linalg, probelab
from mge.gf import field_new
from mge.masking import MaskingContext

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_contexts_wrap_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    field = field_new(4)
    system = linalg.random_system(field, 3, random.Random(7))
    want = linalg.gaussian_elimination(system)
    originals = (linalg.masked_solve, probelab.sec_cond_add,
                 dict(probelab.REGISTRY))

    def work():
        for trace in (None, []):
            ctx = MaskingContext(field, 2, seed=11)
            ctx.trace = trace
            assert linalg.masked_solve(ctx, system) == want
        solved = tracer.calls["rowops.sec_cond_add"]
        probelab.exhaustive_first_order("sec_cond_add", field_new(2), 2)
        return solved

    with tracer.timed():
        solved = work()
    assert (linalg.masked_solve, probelab.sec_cond_add,
            dict(probelab.REGISTRY)) == originals
    # the solves' pivot search and the probing lab's runner both reach it
    assert 0 < solved < tracer.calls["rowops.sec_cond_add"]
    assert tracer.calls["linalg.masked_solve"] == 2
    with tracer.counting():
        work()
    assert (linalg.masked_solve, probelab.sec_cond_add,
            dict(probelab.REGISTRY)) == originals
    assert tracer.counts["gf.mul"] > 0 and tracer.counts["masking.emit"] > 0


def test_tracer_sees_every_campaign_solve_and_system(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    acc = probelab._MomentAccumulator
    names = ("masked_solve", "random_system", "_welch",
             "exhaustive_first_order", "sec_cond_add", "sec_scalar_mult",
             "sec_mult_sub", "sec_mult", "sec_nonzero")

    def patch_points():
        return ([getattr(probelab, name) for name in names],
                acc.__dict__["add"], acc.__dict__["moments"],
                linalg.masked_solve, dict(probelab.REGISTRY))

    originals = patch_points()
    samples = 3
    with tracer.timed():
        verdicts = probelab.statistical_fixed_vs_random(
            "solve", m=2, samples_per_class=samples)
    assert patch_points() == originals
    assert all(v.samples == 2 * samples for v in verdicts)
    # the labelled solve and both classes' solves; the fixed system and
    # one fresh system per random-class trace
    assert tracer.calls["probelab.traced_solve"] == 2 * samples + 1
    assert tracer.calls["probelab.sysgen"] == samples + 1
    # one add per trace, moments and _welch twice each
    assert tracer.calls["probelab.moments"] == 2 * samples + 4
