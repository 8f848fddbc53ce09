"""Closed-form cost model: frozen anchors, table reproduction, and
agreement between instrumented runs and the printed formulas."""

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mge import costmodel as cm
from mge.gf import field_new
from mge.linalg import (LinearSystem, SolveOutcome, masked_solve,
                        random_system, sec_row_ech, share_system)
from mge.masking import (DomainTape, MaskingContext, b2m, bool_share,
                         sec_nonzero)
from mge.rowops import (PackedRow, row_share, sec_cond_add, sec_mult_sub,
                        sec_scalar_mult)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

H = lambda n: (n * n - n) // 2


class TestUnitForms:
    def test_frozen_op_anchors(self):
        assert cm.t_cost("refresh", 2) == 5
        assert cm.t_cost("refresh", 4) == 13
        assert cm.t_cost("strong_refresh", 3) == 9
        assert cm.t_cost("full_add", 3) == 11
        assert cm.t_cost("sec_mult", 2) == 9
        assert cm.t_cost("sec_and", 5) == 75
        assert cm.t_cost("sec_not", 3) == 1
        assert cm.t_cost("sec_or", 2) == 14
        assert cm.t_cost("sec_nonzero", 2, w=8) == 103
        assert cm.t_cost("sec_nonzero", 3, w=4) == 182
        assert cm.t_cost("b2m", 2) == 5
        assert cm.t_cost("b2minv", 2) == 7
        assert cm.t_cost("sec_cond_add", 2, 1) == 14
        assert cm.t_cost("sec_cond_add", 3, 10) == 360
        assert cm.t_cost("sec_scalar_mult", 2, 1) == 14
        assert cm.t_cost("sec_mult_sub", 2, 1) == 11

    def test_frozen_rand_anchors(self):
        assert cm.r_cost("refresh", 3, w=8) == 16
        assert cm.r_cost("strong_refresh", 3, w=4) == 12
        assert cm.r_cost("sec_mult", 2, w=8) == 8
        assert cm.r_cost("sec_not", 4, w=8) == 0
        assert cm.r_cost("sec_cond_add", 2, 1, w=8) == 16
        assert cm.r_cost("sec_mult_sub", 2, 10, w=4) == 40
        assert cm.r_cost("b2minv", 3, w=8) == 24

    def test_pipeline_assembly_anchors(self):
        assert cm.t_cost("sec_row_ech", 2, 44, w=8) == 855008
        assert cm.t_cost("pipeline", 2, 44, w=8) == 858968
        assert cm.t_cost("sec_back_sub", 2, 44) == 858968 - 855008
        assert cm.r_cost("sec_row_ech", 2, 44, w=8) == 741576
        assert cm.r_cost("sec_back_sub", 2, 44, w=8) == 352
        assert cm.r_cost("pipeline", 2, 44, w=8) == 741928

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_pipeline_is_sum_of_stages(self, n, m):
        assert cm.t_cost("pipeline", n, m, w=8) == (
            cm.t_cost("sec_row_ech", n, m, w=8)
            + cm.t_cost("sec_back_sub", n, m))
        assert cm.r_cost("pipeline", n, m, w=4) == (
            cm.r_cost("sec_row_ech", n, m, w=4)
            + cm.r_cost("sec_back_sub", n, m, w=4))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            cm.t_cost("laplace_expansion", 2)
        with pytest.raises(ValueError):
            cm.t_cost("sec_cond_add", 2)  # size required
        with pytest.raises(ValueError):
            cm.t_cost("sec_nonzero", 2)  # width required
        with pytest.raises(ValueError):
            cm.r_cost("refresh", 2)  # width required for bit totals
        with pytest.raises(ValueError):
            cm.t_cost("refresh", 1)

    def test_w_eff_power_of_two_convention(self):
        assert cm.w_eff(16) == 4
        assert cm.w_eff(256) == 8
        assert cm.w_eff(7) == 3
        assert cm.w_eff(31) == 5
        assert cm.w_eff(127) == 7

    def test_div_round_half_up(self):
        assert cm._div_round(5, 2) == 3
        assert cm._div_round(4, 2) == 2
        assert cm._div_round(4095, 8192) == 0
        assert cm._div_round(4096, 8192) == 1
        assert cm._div_round(1499, 1000) == 1
        assert cm._div_round(1500, 1000) == 2


# (record type, keyword arguments with every default left out, its repr)
RECORDS = [
    (cm.GadgetSpec, dict(name="g", fn=None, kinds=("bool",), t=None, r=None),
     "GadgetSpec(name='g', fn=None, kinds=('bool',), t=None, r=None, "
     "needs_w=False, secrets=())"),
    (cm.ParamSet, dict(label="uov-ip", scheme="uov", level="Ip", q=256, m=44),
     "ParamSet(label='uov-ip', scheme='uov', level='Ip', q=256, m=44)"),
    (cm.CostRow, dict(label="mayo-i", scheme="mayo", level="I", q=16, m=64,
                      n=2, ops_total=2451520, ops_scaled=299,
                      rand_bits=1111744, rand_scaled=1112),
     "CostRow(label='mayo-i', scheme='mayo', level='I', q=16, m=64, n=2, "
     "ops_total=2451520, ops_scaled=299, rand_bits=1111744, "
     "rand_scaled=1112)"),
    (cm.CounterCheck, dict(gadget="refresh", n=2, w=8, size=None, ops_run=5,
                           ops_form=5, bits_run=8, bits_form=8),
     "CounterCheck(gadget='refresh', n=2, w=8, size=None, ops_run=5, "
     "ops_form=5, bits_run=8, bits_form=8)"),
    (SolveOutcome, dict(x=(1,)),
     "SolveOutcome(x=(1,), singular=False, fail_index=None)"),
    (LinearSystem, dict(field=field_new(2), a=[[1, 0], [0, 1]], b=[2, 3]),
     "LinearSystem(field=FieldSpec(w=2, poly=0x7), a=((1, 0), (0, 1)), "
     "b=(2, 3))"),
]


@pytest.mark.parametrize("cls, kwargs, text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
class TestRecords:
    def test_keyword_construction_fills_defaults(self, cls, kwargs, text):
        assert repr(cls(**kwargs)) == text

    def test_equal_records_are_equal_and_hash_alike(self, cls, kwargs, text):
        a, b = cls(**kwargs), cls(**kwargs)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_assignment_raises_attribute_error(self, cls, kwargs, text):
        rec = cls(**kwargs)
        with pytest.raises(AttributeError):
            setattr(rec, next(iter(kwargs)), None)
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert repr(rec) == text


def test_records_built_by_the_model_match_keyword_records():
    assert cm.PRESETS["uov-ip"] == cm.ParamSet(**RECORDS[1][1])
    assert cm.cost_row(cm.PRESETS["mayo-i"], 2) == cm.CostRow(**RECORDS[2][1])
    assert cm.counter_vs_formula("refresh", 2, w=8) == cm.CounterCheck(
        **RECORDS[3][1])


class TestParamSets:
    def test_table_has_31_rows_with_unique_labels(self):
        assert len(cm.PARAM_SETS) == 31
        labels = [p.label for p in cm.PARAM_SETS]
        assert len(set(labels)) == 31
        assert set(cm.PRESETS) == set(labels)

    def test_family_census(self):
        by_scheme = {}
        for p in cm.PARAM_SETS:
            by_scheme.setdefault(p.scheme, []).append(p)
        assert len(by_scheme["uov"]) == 4
        assert len(by_scheme["mayo"]) == 3
        assert len(by_scheme["qruov"]) == 12
        assert len(by_scheme["snova"]) == 9
        assert len(by_scheme["mqsign"]) == 3

    def test_w_property(self):
        for p in cm.PARAM_SETS:
            assert p.w == cm.w_eff(p.q)
            assert 1 <= p.w <= 8


@pytest.fixture(scope="module")
def rows():
    return cm.cost_table()


class TestTableReproduction:
    def test_row_count_and_order(self, rows):
        assert len(rows) == 93
        labels = [p.label for p in cm.PARAM_SETS]
        assert [(r.label, r.n) for r in rows] == [
            (lab, n) for lab in labels for n in (2, 3, 4)]

    def test_spot_anchor_cells(self, rows):
        cell = {(r.label, r.n): r for r in rows}
        assert cell[("uov-ip", 2)].rand_scaled == 742
        assert cell[("uov-ip", 3)].rand_scaled == 2226
        assert cell[("uov-ip", 4)].rand_scaled == 4452
        # ops cells land within the +-2 printing tolerance; the model
        # rounds half up where the snapshot's generator rounded up
        assert cell[("uov-ip", 2)].ops_scaled == 105
        assert abs(cell[("uov-ip", 3)].ops_scaled - 260) <= 2
        assert abs(cell[("uov-iii", 2)].ops_scaled - 428) <= 2
        assert abs(cell[("mayo-i", 2)].ops_scaled - 300) <= 2
        assert cell[("mayo-i", 2)].rand_scaled == 1112
        assert cell[("mayo-iii", 2)].rand_scaled == 3680
        assert cell[("qruov-i-q7-m100", 2)].rand_scaled == 3102

    def test_every_cell_within_tolerance_except_known(self, rows):
        bad = cm.verify_rows(rows)
        assert {(b["label"], b["column"], b["n"]) for b in bad} == set(
            cm.KNOWN_SNAPSHOT_DEVIATIONS)

    def test_tight_census_of_rounding_slack(self, rows):
        # strictly tighter than the acceptance tolerance: every
        # reproducible cell is off by at most one unit, never two
        known = set(cm.KNOWN_SNAPSHOT_DEVIATIONS)
        for r in rows:
            want_ops, want_rand = cm.PRINTED_TABLE[r.label]
            i = (2, 3, 4).index(r.n)
            assert abs(r.ops_scaled - want_ops[i]) <= 1
            if (r.label, "rand", r.n) not in known:
                assert abs(r.rand_scaled - want_rand[i]) <= 1

    def test_known_deviations_are_snova_iii_rand_cells(self):
        assert cm.KNOWN_SNAPSHOT_DEVIATIONS == (
            ("snova-iii-m100", "rand", 2),
            ("snova-iii-m100", "rand", 3),
            ("snova-iii-m100", "rand", 4),
        )
        # the snapshot prints another row's randomness there; the model
        # value is internally consistent with the same formulas that
        # reproduce the other 90 cells
        cell = {(r.label, r.n): r for r in cm.cost_table()}
        assert cell[("snova-iii-m100", 2)].rand_scaled == 4153
        assert cell[("snova-iii-m100", 3)].rand_scaled == 12458
        assert cell[("snova-iii-m100", 4)].rand_scaled == 24916

    def test_relative_cost_ratio_claims(self, rows):
        cell = {(r.label, r.n): r for r in rows}
        for n in (2, 3, 4):
            for mayo, uov in (("mayo-iii", "uov-iii"), ("mayo-v", "uov-v")):
                ops = cell[(mayo, n)].ops_total / cell[(uov, n)].ops_total
                rnd = cell[(mayo, n)].rand_bits / cell[(uov, n)].rand_bits
                assert abs(ops - 2.3) <= 0.1
                assert abs(rnd - 1.2) <= 0.1

    def test_csv_golden_prefix(self, rows):
        lines = cm.to_csv(rows).splitlines()
        assert lines[0] == cm.CSV_HEADER
        assert lines[1] == "uov,Ip,256,44,2,856900,105,741928,742"
        assert lines[4] == "uov,Is,16,64,2,2451520,299,1111744,1112"
        assert len(lines) == 94

    def test_totals_are_exact_integers(self, rows):
        for r in rows:
            assert isinstance(r.ops_total, int)
            assert isinstance(r.rand_bits, int)


def _random_input_from_a_range_table(ctx, rng, kind, size):
    # the reference draws: one inline range per kind, drawn by randrange
    q = ctx.field.q
    if kind == "row":
        return row_share(ctx, [rng.randrange(q) for _ in range(size)])
    if kind == "mult":
        return [rng.randrange(1, q) for _ in range(ctx.n)]
    if kind in ("system", "echelon"):
        rows = share_system(ctx, random_system(ctx.field, size, rng))
        if kind == "echelon":
            sec_row_ech(ctx, rows)
        return rows
    lo, hi = {"bool": (0, q), "nonzero": (1, q), "bit": (0, 2)}[kind]
    return bool_share(ctx, rng.randrange(lo, hi))


def _plain(value):
    # a PackedRow compares as its list of shares; keep its length too
    if isinstance(value, PackedRow):
        return ("row", value.l, list(value))
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


class TestInputKinds:
    SCALAR_KINDS = ("bit", "bool", "nonzero", "mult")

    def test_the_scalar_kinds_are_the_unsized_kinds_of_the_table(self):
        kinds = {k for g in cm.GADGET_SPECS for k in g.kinds}
        assert kinds - {"row", "system", "echelon"} == set(self.SCALAR_KINDS)

    @pytest.mark.parametrize("w", range(1, 9))
    def test_share_and_secret_spaces_are_the_explicit_ranges(self, w):
        field = field_new(w)
        last = field.q - 1
        want = {  # kind -> (share values, secret values), first and last
            "bit": ((0, 1), (0, 1)),
            "bool": ((0, last), (0, last)),
            "nonzero": ((0, last), (1, last)),
            "mult": ((1, last), (1, last)),
        }
        for kind in self.SCALAR_KINDS:
            for got, (lo, hi) in zip((cm.share_space(kind, field),
                                      cm.secret_space(kind, field)),
                                     want[kind]):
                assert list(got) == list(range(lo, hi + 1)), (kind, w)

    @pytest.mark.parametrize("w", [1, 2, 4, 8])
    @pytest.mark.parametrize("seed", [1, 7, 1234])
    def test_random_inputs_draw_as_a_range_table_did(self, w, seed):
        # rng.choice over a range draws what randrange over it did
        for spec in cm.GADGET_SPECS:
            size = 3 if spec.sized else None
            runs = []
            for make in (cm._random_input, _random_input_from_a_range_table):
                ctx = MaskingContext(field_new(w), 3, seed=seed)
                rng = random.Random(seed)
                args = [make(ctx, rng, kind, size) for kind in spec.kinds]
                runs.append((_plain(args), rng.getstate(), ctx.rng._state,
                             ctx.counters.snapshot()))
            assert runs[0] == runs[1], spec.name


class TestCounterAgreement:
    @pytest.mark.parametrize("gadget", [
        "refresh", "strong_refresh", "full_add", "sec_mult", "sec_and",
        "sec_not", "sec_or", "sec_nonzero", "b2m", "b2minv"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unit_gadgets_exact(self, gadget, n):
        for w in (4, 8):
            ck = cm.counter_vs_formula(gadget, n, w=w)
            assert ck.exact, (gadget, n, w, ck)

    @pytest.mark.parametrize("gadget", [
        "sec_cond_add", "sec_scalar_mult", "sec_mult_sub"])
    @pytest.mark.parametrize("l", [1, 2, 10])
    def test_row_gadgets_exact(self, gadget, l):
        for n in (2, 3):
            ck = cm.counter_vs_formula(gadget, n, w=8, size=l)
            assert ck.exact, (gadget, n, l, ck)

    def test_one_share_rejected_by_the_cost_model(self):
        with pytest.raises(ValueError, match="n >= 2"):
            cm.counter_vs_formula("refresh", 1, w=8)

    @pytest.mark.parametrize("n,m,w", [(2, 6, 8), (3, 5, 4), (2, 44, 8)])
    def test_pipeline_slip_is_exactly_the_vector_length_terms(self, n, m, w):
        # the printed assembly sums slice lengths as m(m+1)(2m+1)/6 where
        # the executed loops sum j^2 - 1 per column; the residue is m
        # unit-length calls
        ck = cm.counter_vs_formula("pipeline", n, w=w, size=m)
        slip_ops = m * (cm.t_cost("sec_cond_add", n, 1)
                        + cm.t_cost("sec_mult_sub", n, 1))
        slip_bits = 3 * m * H(n) * w
        assert ck.ops_run == ck.ops_form - slip_ops
        assert ck.bits_run == ck.bits_form - slip_bits

    def test_pipeline_relative_error_shrinks_with_m(self):
        checks = [cm.counter_vs_formula("pipeline", 2, w=8, size=m)
                  for m in (4, 10, 44)]
        rels = [(c.ops_form - c.ops_run) / c.ops_form for c in checks]
        assert rels[0] > rels[1] > rels[2]
        assert rels[2] < 0.01

    def test_tabulated_variant_uncharges_scalar_mult_refresh_copies(self):
        for (n, m) in ((2, 44), (3, 64), (4, 10)):
            slices = (m * m + 3 * m) // 2
            assert cm.tabulated_pipeline_ops(n, m, 8) == (
                cm.t_cost("pipeline", n, m, w=8) - slices * (n * n - n))


# runs each packed kernel and untraced sec_nonzero once at n = 3, w = 8,
# l = 5, and prints what each charged, whether costmodel was loaded
# before the first charge, whether numpy is loaded, and the table's forms
_CHARGES_SCRIPT = """\
import json, sys
from mge.gf import field_new
from mge.masking import MaskingContext, b2m, bool_share, sec_nonzero
from mge.rowops import row_share, sec_cond_add, sec_mult_sub, sec_scalar_mult
ctx = MaskingContext(field_new(8), 3, seed=7)
b = bool_share(ctx, 1)
x = row_share(ctx, [1, 2, 3, 4, 5])
y = row_share(ctx, [9, 8, 7, 6, 5])
p = b2m(ctx, bool_share(ctx, 3))
v = bool_share(ctx, 5)
loaded_early = "mge.costmodel" in sys.modules
ran = {}
for name, run in (("sec_cond_add", lambda: sec_cond_add(ctx, b, x, y)),
                  ("sec_scalar_mult", lambda: sec_scalar_mult(ctx, p, x)),
                  ("sec_mult_sub", lambda: sec_mult_sub(ctx, b, x, y)),
                  ("sec_nonzero", lambda: sec_nonzero(ctx, v))):
    before = ctx.counters.snapshot()
    run()
    after = ctx.counters.snapshot()
    ran[name] = [after[0] - before[0], after[2] - before[2]]
numpy = "numpy" in sys.modules
from mge import costmodel as cm
want = {g: [cm.t_cost(g, 3, 5), cm.r_cost(g, 3, 5, w=8)] for g in ran
        if g != "sec_nonzero"}
want["sec_nonzero"] = [cm.t_cost("sec_nonzero", 3, w=8),
                       cm.r_cost("sec_nonzero", 3, w=8)]
print(json.dumps([loaded_early, numpy, ran, want]))
"""


class TestRunTimeChargesReadTheTable:
    """The packed kernels and sec_nonzero charge the forms of
    GADGET_SPECS, and no other declaration of them exists."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("l", [1, 2, 10, 45])
    def test_packed_kernels(self, n, l):
        ctx = MaskingContext(field_new(8), n, seed=0x3C)
        rng = random.Random(n * 100 + l)
        b = bool_share(ctx, 1)
        x = row_share(ctx, [rng.randrange(256) for _ in range(l)])
        y = row_share(ctx, [rng.randrange(256) for _ in range(l)])
        p = b2m(ctx, bool_share(ctx, 3))
        for gadget, run in (
                ("sec_cond_add", lambda: sec_cond_add(ctx, b, x, y)),
                ("sec_scalar_mult", lambda: sec_scalar_mult(ctx, p, x)),
                ("sec_mult_sub", lambda: sec_mult_sub(ctx, b, x, y))):
            before = ctx.counters.snapshot()
            run()
            after = ctx.counters.snapshot()
            assert (after[0] - before[0], after[2] - before[2]) == (
                cm.t_cost(gadget, n, l), cm.r_cost(gadget, n, l, w=8)), gadget

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("w", range(1, 9))
    def test_untraced_sec_nonzero(self, n, w):
        # and the traced fold: both charge the forms on return
        ctx = MaskingContext(field_new(w), n, seed=0x3D)
        for trace in (None, []):
            ctx.trace = trace
            for v in {0, 1, (1 << w) - 1}:
                x = bool_share(ctx, v)
                before = ctx.counters.snapshot()
                sec_nonzero(ctx, x)
                after = ctx.counters.snapshot()
                assert (after[0] - before[0], after[2] - before[2]) == (
                    cm.t_cost("sec_nonzero", n, w=w),
                    cm.r_cost("sec_nonzero", n, w=w)), (trace, v)

    def test_a_fresh_interpreter_loads_the_table_on_first_charge(self):
        # mge.costmodel imports mge.rowops and mge.masking, so they read
        # it on first use; this covers that import without numpy
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", _CHARGES_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded_early, numpy, ran, want = json.loads(proc.stdout)
        assert not loaded_early
        assert not numpy
        assert ran == want


def _nonzero_alignment_bits(n, w):
    # sec_nonzero runs its fold on w padded to a power of two
    padded = 1 << (w - 1).bit_length()
    return cm.r_cost("sec_nonzero", n, w=w) - (n * n - n) * (padded - 1)


class TestEveryDrawCharged:
    """Counters against the draws a DomainTape records: one charged draw
    per draw, and its width in bits, plus sec_nonzero's alignment."""

    @staticmethod
    def _check(ctx, tape, nonzero_calls):
        n, w = ctx.n, ctx.field.w
        assert ctx.counters.rng_draws == len(tape.schedule)
        assert ctx.counters.rng_bits == (
            sum(width for width, _ in tape.schedule)
            + nonzero_calls * _nonzero_alignment_bits(n, w))

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("w", [1, 4, 8])
    def test_unit_and_row_gadgets(self, w, n, traced):
        for spec in cm.GADGET_SPECS:
            if spec.sized and "row" not in spec.kinds:
                continue
            for size in ((1, 3) if spec.sized else (None,)):
                tape = DomainTape()
                ctx = MaskingContext(field_new(w), n, tape=tape)
                rng = random.Random(n)
                args = [cm._random_input(ctx, rng, kind, size)
                        for kind in spec.kinds]
                if traced:
                    ctx.trace = []
                spec.fn(ctx, *args)
                self._check(ctx, tape, spec.name == "sec_nonzero")

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("w", [1, 4, 8])
    def test_solve(self, w, n, traced):
        m = 3
        field = field_new(w)
        tape = DomainTape()
        ctx = MaskingContext(field, n, tape=tape)
        if traced:
            ctx.trace = []
        out = masked_solve(ctx, random_system(field, m, random.Random(w + n)))
        assert not out.singular
        # P(m) pivot tests and m liveness tests
        self._check(ctx, tape, (m * m - m) // 2 + m)


class TestPhaseTable:
    """ech_phases against perfbench's phase split, which the benchmark's
    traced runs check every measured phase against."""

    @pytest.fixture(scope="class")
    def workloads(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.syspath_prepend(str(PERFBENCH))
            yield importlib.import_module("workloads")

    def test_phases_are_the_benchmark_phases_in_order(self, workloads):
        tracer = importlib.import_module("tracer")
        assert tuple(cm.ech_phases(4)) == tracer.PHASES[1:-1]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("w", [1, 4, 8])
    def test_executed_phases_equal_phase_terms(self, workloads, n, w):
        for m in (*range(1, 9), 44):
            terms = workloads.phase_terms(n, m, w)
            run = cm.ech_phase_costs(n, m, w, executed=True)
            assert run == {p: terms[p] for p in run}, (n, w, m)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("w", [1, 4, 8])
    def test_charged_minus_executed_is_m_unit_calls(self, n, w):
        unit = {"cond_add": "sec_cond_add", "mult_sub": "sec_mult_sub"}
        for m in (*range(1, 9), 44):
            charged = cm.ech_phase_costs(n, m, w)
            run = cm.ech_phase_costs(n, m, w, executed=True)
            for p in charged:
                g = unit.get(p)
                want = (0, 0) if g is None else (
                    m * cm.t_cost(g, n, 1), m * cm.r_cost(g, n, 1, w=w))
                got = tuple(a - b for a, b in zip(charged[p], run[p]))
                assert got == want, (p, n, w, m)
            assert sum(v[0] for v in charged.values()) == cm.t_cost(
                "sec_row_ech", n, m, w=w)
            assert sum(v[1] for v in charged.values()) == cm.r_cost(
                "sec_row_ech", n, m, w=w)
            assert cm.pipeline_slip(n, m, w) == (
                sum(v[0] for v in charged.values())
                - sum(v[0] for v in run.values()),
                sum(v[1] for v in charged.values())
                - sum(v[1] for v in run.values()))
