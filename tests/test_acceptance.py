"""End-to-end acceptance gate.

One test per headline guarantee, numbered 1..8. Each prints a single
[PASS]/[FAIL] line with the measured evidence before asserting, so the
pytest summary doubles as a checklist. Three criteria check an exact
documented relation where a blanket tolerance cannot hold:

* criterion 1: 90 of the 93 randomness cells are held to +/-1 of the
  embedded snapshot and six anchors are exact. The snapshot prints
  the snova-i-m80 (m=80) randomness for snova-iii-m100 (m=100), below
  its own snova-iii-m99 cells at the same q, while pipeline randomness
  strictly increases with m. The out-of-tolerance cells must therefore
  be exactly KNOWN_SNAPSHOT_DEVIATIONS, each must still be such a
  provable duplicate, and the model value for each must lie strictly
  above every smaller-m and below every larger-m printed value at the
  same q.
* criterion 3: unit-gadget counters equal the closed forms exactly.
  The pipeline closed form charges every slice at full length S(m),
  the table's charging convention, while the executed loops make m
  fewer unit calls of each of cond-add and mult-sub. Counters must
  equal form - m*(T_ca(1)+T_ms(1)) ops and form - m*(R_ca(1)+R_ms(1))
  bits exactly at m = 4, 44 and 64.
* criterion 8: the counter model stands in for cycle counts, so the
  m = 44 pipeline counters must meet criterion 3's relation exactly.

Runtime budgets are printed for information and never asserted.
"""

import random
import time

from mge import costmodel as cm
from mge import probelab as pl
from mge.gf import field_new
from mge.linalg import (
    gaussian_elimination,
    masked_solve,
    random_system,
    singular_system,
)
from mge.masking import DEFAULT_SEED, MaskingContext

TOL_OPS = 2
TOL_RAND = 1


def _report(num: int, ok: bool, detail: str, t0: float) -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail} ({time.perf_counter() - t0:.2f}s)")
    return ok


def _cell(rows, label, n):
    for r in rows:
        if r.label == label and r.n == n:
            return r
    raise AssertionError(f"missing row {label} n={n}")


def _printed_rand(label, n):
    return cm.PRINTED_TABLE[label][1][n - 2]


def _duplicate_reason(label, n):
    """Why a printed randomness cell cannot be matched, or None.

    The cell is listed when it copies the printed value of a row with a
    different m and sits below the printed value of a smaller-m row at
    the same q, while the model's randomness strictly increases with m.
    """
    p = cm.PRESETS[label]
    v = _printed_rand(label, n)
    copies = [o.label for o in cm.PARAM_SETS
              if o.m != p.m and _printed_rand(o.label, n) == v]
    above = [o.label for o in sorted(cm.PARAM_SETS, key=lambda o: -o.m)
             if o.q == p.q and o.m < p.m and _printed_rand(o.label, n) > v]
    rises = all(cm.r_cost("pipeline", n, m, w=p.w)
                < cm.r_cost("pipeline", n, m + 1, w=p.w)
                for m in range(1, p.m))
    if not (copies and above and rises):
        return None
    return f"copies {copies[0]}, below {above[0]}"


def _same_q_bracket(label, n):
    """Highest printed randomness below this m, lowest above, same q."""
    p = cm.PRESETS[label]
    peers = [o for o in cm.PARAM_SETS if o.q == p.q]
    lo = max((_printed_rand(o.label, n) for o in peers if o.m < p.m),
             default=None)
    hi = min((_printed_rand(o.label, n) for o in peers if o.m > p.m),
             default=None)
    return lo, hi


def test_criterion_1_randomness_table():
    t0 = time.perf_counter()
    rows = cm.cost_table()
    assert cm.CELL_TOLERANCE == {"ops": TOL_OPS, "rand": TOL_RAND}
    bad = [b for b in cm.verify_rows(rows) if b["column"] == "rand"]
    known = set(cm.KNOWN_SNAPSHOT_DEVIATIONS)
    off = {(b["label"], b["column"], b["n"]) for b in bad}
    drift = sorted(off - known)
    stale = sorted(known - off)

    anchors = [("uov-ip", 2, 742), ("uov-ip", 3, 2226), ("uov-ip", 4, 4452),
               ("mayo-i", 2, 1112), ("qruov-i-q7-m100", 2, 3102),
               ("mayo-iii", 2, 3680)]
    anchor_bad = [(lab, n, _cell(rows, lab, n).rand_scaled, want)
                  for lab, n, want in anchors
                  if _cell(rows, lab, n).rand_scaled != want]

    unproven = []
    unbracketed = []
    evidence = []
    for lab, col, n in sorted(known):
        reason = _duplicate_reason(lab, n)
        if reason is None:
            unproven.append((lab, col, n))
        got = _cell(rows, lab, n).rand_scaled
        lo, hi = _same_q_bracket(lab, n)
        if lo is None or hi is None or not lo < got < hi:
            unbracketed.append((lab, n, lo, got, hi))
        evidence.append(f"{lab} n={n} printed {_printed_rand(lab, n)} "
                        f"({reason}), model {got} in ({lo}, {hi})")

    ok = not (drift or stale or anchor_bad or unproven or unbracketed)
    unlisted = len(rows) - len(known)
    detail = (f"{unlisted - len(drift)}/{unlisted} reproducible randomness "
              f"cells within +/-{TOL_RAND}, "
              f"{len(anchors) - len(anchor_bad)}/{len(anchors)} spot anchors "
              f"exact; {len(known) - len(unproven)}/{len(known)} listed "
              "snapshot cells are provable duplicates: " + "; ".join(evidence))
    if drift:
        detail += f"; unlisted cells out of tolerance: {drift}"
    if stale:
        detail += f"; listed cells now within tolerance: {stale}"
    _report(1, ok, detail, t0)
    assert not anchor_bad, anchor_bad
    assert not drift, [b for b in bad
                       if (b["label"], b["column"], b["n"]) in drift]
    assert not stale, stale
    assert not unproven, unproven
    assert not unbracketed, unbracketed


def test_criterion_2_operations_table():
    t0 = time.perf_counter()
    rows = cm.cost_table()
    assert cm.CELL_TOLERANCE == {"ops": TOL_OPS, "rand": TOL_RAND}
    bad = [b for b in cm.verify_rows(rows) if b["column"] == "ops"]

    anchors = [("uov-ip", 2, 105), ("uov-ip", 3, 260),
               ("uov-iii", 2, 428), ("mayo-i", 2, 300)]
    anchor_bad = [(lab, n, _cell(rows, lab, n).ops_scaled, want)
                  for lab, n, want in anchors
                  if abs(_cell(rows, lab, n).ops_scaled - want) > TOL_OPS]

    ok = not bad and not anchor_bad
    _report(2, ok,
            f"{93 - len(bad)}/93 operations cells within +/-{TOL_OPS}, "
            f"{len(anchors) - len(anchor_bad)}/{len(anchors)} anchors within tolerance",
            t0)
    assert not anchor_bad, anchor_bad
    assert not bad, bad


def test_criterion_3_counter_vs_formula():
    t0 = time.perf_counter()
    plain = ["refresh", "strong_refresh", "full_add", "sec_mult", "sec_and",
             "sec_or", "sec_nonzero", "b2m", "b2minv"]
    rowg = ["sec_cond_add", "sec_scalar_mult", "sec_mult_sub"]

    unit_bad = []
    for n in (2, 3, 4, 5):
        for w in (4, 8):
            for g in plain:
                chk = cm.counter_vs_formula(g, n, w)
                if not chk.exact:
                    unit_bad.append((g, n, w, None))
            for g in rowg:
                for l in (1, 2, 10):
                    chk = cm.counter_vs_formula(g, n, w, size=l)
                    if not chk.exact:
                        unit_bad.append((g, n, w, l))

    n, w = 2, 8
    slip_ops = cm.t_cost("sec_cond_add", n, 1) + cm.t_cost("sec_mult_sub", n, 1)
    slip_bits = (cm.r_cost("sec_cond_add", n, 1, w=w)
                 + cm.r_cost("sec_mult_sub", n, 1, w=w))
    pipe = {m: cm.counter_vs_formula("pipeline", n, w, size=m)
            for m in (4, 44, 64)}
    pipe_bad = {m: (c.ops_run, c.ops_form - m * slip_ops,
                    c.bits_run, c.bits_form - m * slip_bits)
                for m, c in pipe.items()
                if c.ops_run != c.ops_form - m * slip_ops
                or c.bits_run != c.bits_form - m * slip_bits}

    ok = not unit_bad and not pipe_bad
    detail = (f"{144 - len(unit_bad)}/144 unit-gadget grid cells exact; "
              f"{len(pipe) - len(pipe_bad)}/{len(pipe)} pipeline sizes satisfy "
              "measured = form - m*(T_ca(1)+T_ms(1)) ops and "
              "- m*(R_ca(1)+R_ms(1)) bits exactly (" +
              ", ".join(f"m={m} ops {c.ops_run} vs {c.ops_form}-{m * slip_ops}, "
                        f"bits {c.bits_run} vs {c.bits_form}-{m * slip_bits}"
                        for m, c in sorted(pipe.items())) + ")")
    _report(3, ok, detail, t0)
    assert not unit_bad, unit_bad
    assert not pipe_bad, pipe_bad


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    gf256 = field_new(8)
    gf16 = field_new(4)
    rng = random.Random(0xACCE97)
    total = agree = 0
    first_bad = None

    def compare(field, n, sysm):
        nonlocal total, agree, first_bad
        ctx = MaskingContext(field, n, seed=rng.getrandbits(64))
        got = masked_solve(ctx, sysm)
        want = gaussian_elimination(sysm)
        total += 1
        same = (got.x == want.x and got.singular == want.singular
                and got.fail_index == want.fail_index)
        if same:
            agree += 1
        elif first_bad is None:
            first_bad = (field.q, n, sysm.a, sysm.b, got, want)

    for n in (2, 3, 4):
        for _ in range(1000):
            compare(gf256, n, random_system(gf256, 10, rng, invertible=False))
        for _ in range(1000):
            compare(gf16, n, random_system(gf16, 8, rng, invertible=False))
    for i in range(1000):
        compare(gf16, 2 + i % 3, singular_system(gf16, 6, rng))

    ok = agree == total
    _report(4, ok,
            f"{agree}/{total} solves agree with the reference oracle, "
            "aborts and abort indices included", t0)
    assert ok, first_bad


def test_criterion_5_exhaustive_first_order():
    t0 = time.perf_counter()
    gf16 = field_new(4)
    targets = ["refresh", "strong_refresh", "sec_mult", "sec_and",
               "sec_nonzero", "b2m", "b2minv", "sec_cond_add",
               "sec_scalar_mult", "sec_mult_sub"]
    broken = ["refresh_broken", "sec_mult_broken", "sec_nonzero_broken"]

    clean_bad = []
    for name in targets:
        secrets = pl._fit_secrets(pl.lookup(name), gf16)
        assert len(secrets) >= 8, (name, len(secrets))
        verdicts = pl.exhaustive_first_order(name, gf16, 2, secrets=secrets)
        fails = [v.point_id for v in verdicts if not v.passed]
        if fails:
            clean_bad.append((name, fails))

    broken_ok = {}
    for name in broken:
        verdicts = pl.exhaustive_first_order(name, gf16, 2)
        broken_ok[name] = sum(not v.passed for v in verdicts)

    undetected = [name for name, k in broken_ok.items() if k == 0]
    ok = not clean_bad and not undetected
    _report(5, ok,
            f"{len(targets) - len(clean_bad)}/{len(targets)} gadgets have "
            "secret-independent exact distributions at every point; "
            "broken variants flagged at " +
            ", ".join(f"{k} point(s) [{name}]"
                      for name, k in broken_ok.items()),
            t0)
    assert not clean_bad, clean_bad
    assert not undetected, undetected


def test_criterion_6_statistical_pipeline():
    t0 = time.perf_counter()
    gf16 = field_new(4)
    kw = dict(n=2, m=4, samples_per_class=50_000, threshold=4.5,
              seed=DEFAULT_SEED)

    masked = pl.statistical_fixed_vs_random("solve", gf16, **kw)
    masked_bad = [v for v in masked if not v.passed]
    masked_max = max(abs(v.statistic) for v in masked)

    unmasked = pl.statistical_fixed_vs_random("solve_unmasked", gf16, **kw)
    unmasked_hits = [v for v in unmasked if not v.passed]
    unmasked_max = max(abs(v.statistic) for v in unmasked)

    ok = not masked_bad and bool(unmasked_hits)
    _report(6, ok,
            f"masked pipeline max |t| = {masked_max:.2f} over "
            f"{len(masked)} points (threshold 4.5) at 10^5 traces; "
            f"unmasked oracle flagged at {len(unmasked_hits)}/"
            f"{len(unmasked)} points, max |t| = {unmasked_max:.1f}",
            t0)
    assert not masked_bad, [(v.point_id, v.statistic) for v in masked_bad]
    assert unmasked_hits, "unmasked path produced no detectable point"


def test_criterion_7_relative_cost_claims():
    t0 = time.perf_counter()
    rows = cm.cost_table()
    ratios = []
    for mayo, uov in (("mayo-iii", "uov-iii"), ("mayo-v", "uov-v")):
        for n in (2, 3, 4):
            a = _cell(rows, mayo, n)
            b = _cell(rows, uov, n)
            ratios.append((mayo, uov, n, a.ops_total / b.ops_total,
                           a.rand_bits / b.rand_bits))

    bad = [r for r in ratios
           if not (2.2 <= r[3] <= 2.4 and 1.1 <= r[4] <= 1.3)]
    ops_span = (min(r[3] for r in ratios), max(r[3] for r in ratios))
    rand_span = (min(r[4] for r in ratios), max(r[4] for r in ratios))
    ok = not bad
    _report(7, ok,
            f"mayo/uov ops ratios in [{ops_span[0]:.3f}, {ops_span[1]:.3f}] "
            f"(claim 2.3 +/- 0.1), randomness ratios in "
            f"[{rand_span[0]:.3f}, {rand_span[1]:.3f}] (claim 1.2 +/- 0.1)",
            t0)
    assert ok, bad


def test_level_one_parity():
    # the paper's abstract: costs are similar in UOV and MAYO for one
    # version of level I; mayo-i and uov-is both have q = 16 and m = 64
    t0 = time.perf_counter()
    rows = cm.cost_table()
    ratios = []
    for n in (2, 3, 4):
        a = _cell(rows, "mayo-i", n)
        b = _cell(rows, "uov-is", n)
        ratios.append((n, a.ops_total / b.ops_total, a.rand_bits / b.rand_bits))
    bad = [r for r in ratios if not (0.9 <= r[1] <= 1.1 and 0.9 <= r[2] <= 1.1)]
    ok = not bad
    print(f"[{'PASS' if ok else 'FAIL'}] level-I parity: mayo-i/uov-is ops "
          f"ratios {', '.join(f'{r[1]:.3f}' for r in ratios)}, randomness "
          f"ratios {', '.join(f'{r[2]:.3f}' for r in ratios)} at n = 2, 3, 4 "
          f"(claim 1 +/- 0.1) ({time.perf_counter() - t0:.2f}s)")
    assert ok, bad


def test_criterion_8_cycle_counts_substituted():
    # Hardware cycle counts are out of scope at desk scale. Substitute:
    # the counter model must track the instrumented pipeline at the
    # tabulated size, and masking must cost measurably more wall time
    # than the reference path.
    t0 = time.perf_counter()
    n, w, m = 2, 8, 44
    chk = cm.counter_vs_formula("pipeline", n, w, size=m)
    slip_ops = m * (cm.t_cost("sec_cond_add", n, 1)
                    + cm.t_cost("sec_mult_sub", n, 1))
    slip_bits = m * (cm.r_cost("sec_cond_add", n, 1, w=w)
                     + cm.r_cost("sec_mult_sub", n, 1, w=w))
    model_ok = (chk.ops_run == chk.ops_form - slip_ops
                and chk.bits_run == chk.bits_form - slip_bits)

    gf16 = field_new(4)
    rng = random.Random(7)
    systems = [random_system(gf16, 8, rng) for _ in range(20)]
    w0 = time.perf_counter()
    for sysm in systems:
        gaussian_elimination(sysm)
    t_plain = time.perf_counter() - w0
    ctx = MaskingContext(gf16, 2, seed=1)
    w0 = time.perf_counter()
    for sysm in systems:
        masked_solve(ctx, sysm)
    t_masked = time.perf_counter() - w0
    ratio = t_masked / max(t_plain, 1e-9)

    ok = model_ok and ratio > 1.0
    _report(8, ok,
            "cycle counts substituted by the counter model "
            f"(pipeline m=44 ops {chk.ops_run} vs {chk.ops_form}-{slip_ops}, "
            f"bits {chk.bits_run} vs {chk.bits_form}-{slip_bits}, exact) "
            "and a qualitative slowdown check "
            f"(masked/unmasked wall ratio {ratio:.0f}x at n=2)", t0)
    assert ok, (chk.ops_run, chk.ops_form - slip_ops,
                chk.bits_run, chk.bits_form - slip_bits, ratio)
