"""Fixed-seed digests of probe traces, point labels and statistical verdicts.

Each test hashes what a traced computation records: the point ids and
values of record_trace for every registry gadget, one labelled traced
masked_solve with its outcome, counters and tape state, untraced
eliminations at the uov-ip size with their share ints, and the
fixed-vs-random verdicts with the exact bits of every statistic. How
probe values are recorded and how the campaign sums its moments may
change; none of these digests may.
"""

import hashlib
import random

import pytest

from mge import probelab as pl
from mge.gf import field_new
from mge.linalg import masked_solve, random_system, sec_row_ech, share_system
from mge.masking import MaskingContext

F16 = field_new(4)
F256 = field_new(8)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def verdict_lines(verdicts):
    return [f"{v.point_id} {float.hex(v.statistic)} {v.samples} {v.passed}"
            for v in verdicts]


STATISTICAL = {
    ("solve", 4):
        "398797ee0ec885cccaff45c3a64346209cc96510968480234c6c2765be039db0",
    ("solve_unmasked", 4):
        "c66ad0ebc2adc71443a803a5e290cd474405737273f4c80f4c71c40573367025",
    ("sec_cond_add", 4):
        "743b1ec8b73202963cef9d420579c4c0e0db39538caab918020ffcde7012c54d",
    ("sec_mult", 8):
        "11126dd6e2bdadabc7e78a79e09607e412ed422423aae99d8ee2ca1ba97ba438",
}


@pytest.mark.parametrize("target, w", sorted(STATISTICAL))
def test_statistical_verdicts(target, w):
    verdicts = pl.statistical_fixed_vs_random(
        target, field_new(w), n=2, m=4, samples_per_class=300, seed=5)
    assert digest(verdict_lines(verdicts)) == STATISTICAL[target, w]


RECORDED = {
    2: "706d4f94deb667b1c60990e81a65f46352474c84a31af83563ed1b93c8fe5448",
    3: "2ddbeba12b90fdb579f5eec2f30f9c03430aa3f3c94d7c1ef1edfc2ecfe71e10",
}


@pytest.mark.parametrize("n", sorted(RECORDED))
def test_record_trace_of_every_gadget(n):
    lines = []
    for name in pl.gadget_names():
        tr = pl.record_trace(name, n=n, seed=17)
        lines.append(f"{name} {tr.ids} {tr.values}")
    assert digest(lines) == RECORDED[n]


SOLVES = {
    2: "e2867d001caaacc1c7e3862b54beb1fce53d6ec09ba5ab52b625239d44628033",
    3: "4c158cbbe851ff6e0a37d196411ae2d4f38fb7f1665780b0e631d8e2295996d2",
}


@pytest.mark.parametrize("n", sorted(SOLVES))
def test_labelled_traced_solve(n):
    system = random_system(F16, 4, random.Random(23))
    ctx = MaskingContext(F16, n, seed=29)
    ctx.trace, ctx.trace_labels = [], []
    out = masked_solve(ctx, system)
    lines = [repr((out.x, out.fail_index, ctx.counters.snapshot(),
                   ctx.rng._state))]
    lines += [f"{lab} {v}" for lab, v in zip(ctx.trace_labels, ctx.trace)]
    assert digest(lines) == SOLVES[n]


ELIMINATIONS = {
    41: "fa9ff1326c7ef91d1eb605a9f2f150cdc8ea82ed1c1647ce9271ac1c0858509c",
    43: "44b6a96c42d44de2398b87e20f04ca287ab251c973e5b208096eac9a193810b6",
}


@pytest.mark.parametrize("seed", sorted(ELIMINATIONS))
def test_untraced_elimination_at_uov_ip(seed):
    # q = 256, m = 44: the untraced path draws through cap-sized refills
    # whose lane states are stepped on, so every drawn byte shows here
    lines = []
    for n in (2, 3, 4):
        system = random_system(F256, 44, random.Random(seed * 10 + n))
        ctx = MaskingContext(F256, n, seed=seed)
        rows = share_system(ctx, system)
        fail = sec_row_ech(ctx, rows)
        lines += [f"{n} {row.l} {list(row)}" for row in rows]
        lines.append(repr((fail, ctx.counters.snapshot(), ctx.rng._state)))
        ctx = MaskingContext(F256, n, seed=seed)
        out = masked_solve(ctx, system)
        lines.append(repr((out, ctx.counters.snapshot(), ctx.rng._state)))
    assert digest(lines) == ELIMINATIONS[seed]
