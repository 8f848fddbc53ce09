"""Probing lab: trace shapes, the exhaustive checker, its power against
seeded broken gadgets, and the statistical mode."""

import dataclasses
import functools
import itertools
import json
import random
from collections import Counter

import numpy as np
import pytest

from mge.gf import ZeroInverse, field_new
from mge import probelab as pl
from mge.linalg import masked_solve, random_system, singular_system
from mge.masking import (DomainTape, MaskingContext, ReplayTape, SeededTape,
                         ZeroSharing, b2m, refresh, strong_refresh)

F16 = field_new(4)
F4 = field_new(2)


class TestRegistry:
    def test_ten_real_gadgets_and_three_broken(self):
        real = pl.gadget_names(include_broken=False)
        assert set(real) == {
            "refresh", "strong_refresh", "sec_mult", "sec_and",
            "sec_nonzero", "b2m", "b2minv", "sec_cond_add",
            "sec_scalar_mult", "sec_mult_sub"}
        broken = set(pl.gadget_names()) - set(real)
        assert broken == {"refresh_broken", "sec_mult_broken",
                          "sec_nonzero_broken"}

    def test_lookup_normalizes_hyphens(self):
        assert pl.lookup("sec-cond-add").name == "sec_cond_add"
        assert pl.lookup("refresh-broken").name == "refresh_broken"

    def test_lookup_ignores_case_hyphens_and_underscores(self):
        assert pl.lookup("SecCondAdd").name == "sec_cond_add"
        assert pl.lookup("B2MINV").name == "b2minv"

    def test_secure_entries_follow_the_gadget_table(self):
        from mge import costmodel as cm

        table = [g for g in cm.GADGET_SPECS if g.secrets]
        assert [g.name for g in table] == pl.gadget_names(
            include_broken=False)
        for g in table:
            spec = pl.lookup(g.name)
            assert spec.secrets == g.secrets
            assert spec.kinds == tuple(
                "bool" if k == "row" else k for k in g.kinds)

    def test_unknown_name_raises(self):
        with pytest.raises(pl.UnknownGadget):
            pl.lookup("sec_teleport")

    def test_every_entry_has_enough_secrets(self):
        for name in pl.gadget_names(include_broken=False):
            spec = pl.lookup(name)
            assert len(spec.secrets) >= 8, name

    def test_label_id_format(self):
        assert pl.label_id(("refresh", "cp")) == "refresh.cp"
        assert pl.label_id(("smul", "pp", 0, 1)) == "smul.pp[0,1]"


class TestTraces:
    def test_refresh_n2_has_four_points(self):
        tr = pl.record_trace("refresh", F16, 2)
        assert len(tr.ids) == 4
        assert len(tr.values) == len(tr.ids)

    def test_point_sequence_same_for_all_secrets(self):
        for name in pl.gadget_names(include_broken=False):
            spec = pl.lookup(name)
            seqs = {
                tuple(pl.record_trace(name, F16, 2, secrets=s).ids)
                for s in spec.secrets[:4]
            }
            assert len(seqs) == 1, name

    def test_values_live_in_field(self):
        tr = pl.record_trace("sec_cond_add", F16, 3)
        assert all(0 <= v < 16 for v in tr.values)

    def test_public_openings_excluded_from_solve_verdicts(self):
        verdicts = pl.statistical_fixed_vs_random(
            "solve", F16, 2, m=2, samples_per_class=50, seed=3)
        assert all(".pub" not in v.point_id for v in verdicts)


class TestExhaustive:
    def test_refresh_passes_and_statistic_is_zero(self):
        verdicts = pl.exhaustive_first_order("refresh", F16, 2)
        assert len(verdicts) == 4
        assert all(v.passed and v.statistic == 0.0 for v in verdicts)

    def test_gf4_quick_sweep_of_core_gadgets(self):
        for name in ("strong_refresh", "sec_mult", "b2m", "sec_cond_add"):
            summary = pl.leak_summary(pl.exhaustive_first_order(name, F4, 2))
            assert summary["pass"], name

    def test_verdicts_are_deterministic(self):
        a = [v.to_dict() for v in pl.exhaustive_first_order("b2minv", F16, 2)]
        b = [v.to_dict() for v in pl.exhaustive_first_order("b2minv", F16, 2)]
        assert a == b

    def test_reused_mask_variant_leaks_on_the_mask_wire(self):
        verdicts = pl.exhaustive_first_order("refresh_broken", F16, 2)
        failing = [v.point_id for v in verdicts if not v.passed]
        assert failing, "checker missed the reused mask"

    def test_self_multiplication_leaks_on_a_partial_product(self):
        verdicts = pl.exhaustive_first_order("sec_mult_broken", F16, 2)
        failing = [v.point_id for v in verdicts if not v.passed]
        assert any("pp" in p for p in failing)

    def test_collapsed_share_variant_leaks_at_the_collapse(self):
        verdicts = pl.exhaustive_first_order("sec_nonzero_broken", F16, 2)
        failing = [v.point_id for v in verdicts if not v.passed]
        assert any("collapse" in p for p in failing)

    def test_cap_guard(self, monkeypatch):
        # the cap is read at call time
        monkeypatch.setattr(pl, "ENUMERATION_CAP", 10)
        with pytest.raises(pl.EnumerationTooLarge):
            pl.exhaustive_first_order("sec_cond_add", field_new(8), 2)

    def test_secret_of_wrong_arity_is_rejected(self):
        with pytest.raises(ValueError, match=r"\(1,\) of sec_mult must hold 2"):
            pl.exhaustive_first_order("sec_mult", F4, 2,
                                      secrets=((1, 2), (1,)))

    def test_secret_outside_its_kind_is_rejected(self):
        # a multiplicative sharing of 0 has no sharings to enumerate
        with pytest.raises(ValueError, match=r"\(0, 1\).*not a mult secret"):
            pl.exhaustive_first_order("sec_scalar_mult", F4, 2,
                                      secrets=((1, 1), (0, 1)))

    def test_secret_outside_the_field_is_rejected(self):
        with pytest.raises(ValueError, match=r"\(7,\).*over GF\(4\)"):
            pl.exhaustive_first_order("refresh", F4, 2, secrets=((7,), (1,)))

    @pytest.mark.parametrize("secrets", [(), ((1,),)])
    def test_fewer_than_two_assignments_are_rejected(self, secrets):
        with pytest.raises(ValueError, match="at least 2 secret assignments"):
            pl.exhaustive_first_order("refresh", F4, 2, secrets=secrets)

    @pytest.mark.parametrize("secrets", [((1,), (1,)), ([1], (1,)),
                                         ((1,), (2,), [1])])
    def test_repeated_assignments_are_rejected(self, monkeypatch, secrets):
        def boom(*args):
            raise AssertionError("the recording run started before the "
                                 "secrets were checked")

        monkeypatch.setitem(pl.REGISTRY, "refresh", dataclasses.replace(
            pl.lookup("refresh"), run=boom))
        with pytest.raises(ValueError, match="not pairwise distinct"):
            pl.exhaustive_first_order("refresh", F16, 2, secrets=secrets)

    def test_recorded_trace_checks_its_secret(self):
        with pytest.raises(ValueError, match=r"\(9, 9\).*over GF\(4\)"):
            pl.record_trace("sec_mult", F4, secrets=(9, 9))
        with pytest.raises(ValueError, match="must hold 2"):
            pl.record_trace("sec_mult", F4, secrets=(1,))

    def test_valid_explicit_secrets_run(self):
        verdicts = pl.exhaustive_first_order("sec_scalar_mult", F4, 2,
                                             secrets=((1, 1), (3, 2)))
        assert verdicts and all(v.passed for v in verdicts)

    def test_verdict_dict_is_json_safe(self):
        verdicts = pl.exhaustive_first_order("refresh", F16, 2)
        blob = json.dumps([v.to_dict() for v in verdicts])
        parsed = json.loads(blob)
        assert parsed[0]["mode"] == "exhaustive"
        assert parsed[0]["pass"] is True


def scalar_histograms(name, field, n):
    """The oracle: every input sharing on every tape as one scalar run on
    a ReplayTape, its (point, value) pairs counted in a Counter per
    default secret."""
    spec = pl.lookup(name)
    inputs = [[pl._sharings(kind, field, n, v)
               for kind, v in zip(spec.kinds, sec)]
              for sec in pl._fit_secrets(spec, field)]
    ctx = MaskingContext(field, n, tape=DomainTape())
    ctx.trace = []
    spec.run(ctx, *(sharings[0] for sharings in inputs[0]))
    tapes = [bytes(t) for t in itertools.product(
        *(range(nonzero, 1 << w) for w, nonzero in ctx.rng.schedule))]
    replay = ReplayTape(b"")
    ctx = MaskingContext(field, n, tape=replay)
    hists = []
    for sets in inputs:
        counts = Counter()
        for args in itertools.product(*sets):
            for tape in tapes:
                replay.rewind(tape)
                ctx.trace = trace = []
                spec.run(ctx, *args)
                counts.update(enumerate(trace))
        hists.append(counts)
    return hists


@functools.cache
def scalar_histograms_f4(name, n):
    return scalar_histograms(name, F4, n)


def lane_histograms(name, field, n):
    _, _, hists = pl.exhaustive_histograms(name, field, n)
    return [Counter({(int(p), int(v)): int(h[p, v])
                     for p, v in zip(*np.nonzero(h))}) for h in hists]


UNIT_GADGETS = ("refresh", "strong_refresh", "sec_mult", "sec_and",
                "sec_nonzero", "b2m", "b2minv")


def lanes(*values):
    return np.array(values, np.uint8).view(pl.Lanes)


class EmitCopies(list):
    """A probe trace that also keeps a copy of each value as emitted."""

    def __init__(self):
        super().__init__()
        self.copies = []

    def append(self, value):
        super().append(value)
        self.copies.append(np.copy(value))


class TestLanes:
    @pytest.mark.parametrize("name", pl.gadget_names())
    def test_histograms_equal_the_scalar_loop_n2(self, name):
        assert lane_histograms(name, F4, 2) == scalar_histograms(name, F4, 2)

    @pytest.mark.parametrize("name", UNIT_GADGETS)
    def test_histograms_equal_the_scalar_loop_n3(self, name):
        # sec_mult and sec_and run 16384 times per secret: eight chunks
        assert lane_histograms(name, F4, 3) == scalar_histograms(name, F4, 3)

    # sec_mult's tape cycle at n = 3 is 64 tapes, sec_cond_add's at n = 2 is
    # 16, and refresh_broken draws nothing: chunk sizes below a cycle,
    # equal to one, and above one without being a multiple of it
    @pytest.mark.parametrize("chunk", [1, 7, 48, 64, 100])
    @pytest.mark.parametrize("name, n", [("sec_mult", 3), ("sec_cond_add", 2),
                                         ("refresh_broken", 2)])
    def test_any_chunk_size_counts_every_run_once(self, monkeypatch, name, n,
                                                  chunk):
        want = scalar_histograms_f4(name, n)
        spec = pl.lookup(name)
        lengths = []

        def run(ctx, *args):
            if isinstance(ctx.rng, ReplayTape):
                vectors = [s for x in args for s in x] + list(ctx.rng._values)
                assert all(isinstance(v, pl.Lanes) for v in vectors)
                lengths.append({len(v) for v in vectors})
            return spec.run(ctx, *args)

        monkeypatch.setitem(pl.REGISTRY, name,
                            dataclasses.replace(spec, run=run))
        monkeypatch.setattr(pl, "LANE_CHUNK", chunk)
        assert lane_histograms(name, F4, n) == want
        # one lane count per traced run, never above the chunk size
        assert lengths and all(len(s) == 1 and max(s) <= chunk
                               for s in lengths)

    @pytest.mark.parametrize("gadget", [refresh, strong_refresh])
    def test_traced_refresh_keeps_inputs_and_emitted_values(self, gadget):
        x = [lanes(0, 1, 2, 3, 3, 1), lanes(3, 3, 0, 1, 2, 2),
             lanes(1, 0, 2, 2, 3, 0)]
        before = [np.copy(v) for v in x]
        draws = [lanes(1, 2, 3, 1, 2, 3), lanes(3, 3, 1, 2, 1, 2),
                 lanes(2, 1, 1, 3, 3, 2)]
        ctx = MaskingContext(pl.field_lanes(F4), 3, tape=ReplayTape(draws))
        ctx.trace = EmitCopies()
        y = gadget(ctx, x)
        assert all((a == b).all() for a, b in zip(x, before))
        assert all((v == c).all()
                   for v, c in zip(ctx.trace, ctx.trace.copies))
        assert all(isinstance(v, pl.Lanes) for v in y)

    def test_reused_mask_keeps_its_lanes(self):
        # refresh_broken's mask is the live share 0; an in-place ^= would
        # zero it together with share 0
        x = [lanes(1, 2, 3, 3), lanes(0, 1, 2, 3)]
        ctx = MaskingContext(pl.field_lanes(F4), 2)
        ctx.trace, ctx.trace_labels = EmitCopies(), []
        pl.lookup("refresh_broken").run(ctx, x)
        mask = ctx.trace[ctx.trace_labels.index(("refresh_broken", "r", 1))]
        assert mask.all() and (mask == x[0]).all()
        assert all((v == c).all()
                   for v, c in zip(ctx.trace, ctx.trace.copies))

    def test_lane_vector_is_true_when_any_lane_is(self):
        assert lanes(0, 0, 2)
        assert not lanes(0, 0, 0)
        assert lanes(1, 2, 0) == 0

    def test_inverse_of_a_zero_lane_raises(self):
        lf = pl.field_lanes(F16)
        assert lf.inv(lanes(1, 2, 15)).tolist() == [
            F16.inv(1), F16.inv(2), F16.inv(15)]
        with pytest.raises(ZeroInverse):
            lf.inv(lanes(1, 0, 15))

    def test_lane_products_follow_the_field(self):
        # the product table's row stride is 256 whatever the width
        for w in range(1, 9):
            field = field_new(w)
            q = field.q
            a = lanes(*range(q)).repeat(q)
            b = np.tile(lanes(*range(q)), q)
            assert pl.field_lanes(field).mul(a, b).tolist() == [
                field.mul(u, v) for u in range(q) for v in range(q)], w

    def test_b2m_on_a_batch_with_a_zero_lane_raises(self):
        # lane 1 shares 3 ^ 3 = 0; the others encode nonzero values
        x = [lanes(1, 3, 2), lanes(0, 3, 1)]
        ctx = MaskingContext(pl.field_lanes(F4), 2,
                             tape=ReplayTape([lanes(2, 2, 3)]))
        ctx.trace = []
        with pytest.raises(ZeroSharing):
            b2m(ctx, x)
        # with lane 1 nonzero too the same draws go through
        ctx.rng.rewind()
        assert len(b2m(ctx, [x[0], lanes(0, 2, 1)])) == 2


class TestStatistical:
    def test_masked_gadget_clean_at_modest_samples(self):
        verdicts = pl.statistical_fixed_vs_random(
            "refresh", F16, 2, samples_per_class=3000, seed=11)
        summary = pl.leak_summary(verdicts)
        assert summary["pass"], summary

    def test_broken_gadget_caught(self):
        verdicts = pl.statistical_fixed_vs_random(
            "refresh_broken", F16, 2, samples_per_class=3000, seed=11)
        assert not pl.leak_summary(verdicts)["pass"]

    def test_masked_solve_smoke(self):
        verdicts = pl.statistical_fixed_vs_random(
            "solve", F16, 2, m=3, samples_per_class=800, seed=7)
        summary = pl.leak_summary(verdicts)
        assert summary["points"] > 100
        assert summary["pass"], summary

    def test_unmasked_solve_fails_everywhere(self):
        verdicts = pl.statistical_fixed_vs_random(
            "solve_unmasked", F16, 2, m=3, samples_per_class=800, seed=7)
        summary = pl.leak_summary(verdicts)
        assert summary["failed"] == summary["points"]
        assert summary["worst_statistic"] > 4.5

    @pytest.mark.parametrize("name", ["b2m", "b2minv"])
    def test_nonzero_input_gadgets_get_one_verdict_per_point(self, name):
        verdicts = pl.statistical_fixed_vs_random(
            name, F16, 2, samples_per_class=100, seed=5)
        tr = pl.record_trace(name, F16, 2)
        assert [v.point_id for v in verdicts] == [
            i for i, lab in zip(tr.ids, tr.labels) if not pl.is_public(lab)]
        assert all(v.samples == 200 for v in verdicts)

    def test_nonzero_random_secrets_and_sharings_are_never_zero(self):
        rng = random.Random(3)
        for _ in range(400):
            v = pl._random_secret("nonzero", F4, rng)
            assert 1 <= v < F4.q
            shares = pl._random_sharing("nonzero", F4, 2, v, rng)
            assert shares[0] ^ shares[1] == v
        sharings = pl._sharings("mult", F4, 3, 2)
        assert len(sharings) == 9
        for a, b, c in sharings:
            assert 0 not in (a, b, c) and F4.mul(F4.mul(a, b), c) == 2

    def test_same_seed_reproduces_statistics(self):
        def run():
            return [v.statistic for v in pl.statistical_fixed_vs_random(
                "strong_refresh", F16, 2, samples_per_class=500, seed=42)]

        assert run() == run()

    def test_verdict_fields(self):
        v = pl.statistical_fixed_vs_random(
            "refresh", F16, 2, samples_per_class=200, seed=1)[0]
        d = v.to_dict()
        assert set(d) == {"point_id", "mode", "statistic", "samples", "pass"}
        assert d["mode"] == "statistical"
        assert d["samples"] == 400


    def test_one_trace_per_class_raises(self):
        acc = pl._MomentAccumulator(3)
        acc.add([1, 2, 3])
        with pytest.raises(ValueError):
            acc.moments()
        with pytest.raises(ValueError):
            pl.statistical_fixed_vs_random("refresh", F16, 2,
                                           samples_per_class=1, seed=1)


class FloatMoments:
    """The oracle: running float64 power sums of every trace's values."""

    def __init__(self, npoints):
        self.count = 0
        self.s1 = np.zeros(npoints)
        self.s2 = np.zeros(npoints)
        self.s4 = np.zeros(npoints)

    def add(self, values):
        v = np.asarray(values, dtype=np.float64)
        v2 = v * v
        self.count += 1
        self.s1 += v
        self.s2 += v2
        self.s4 += v2 * v2

    def moments(self):
        nsamp = self.count
        mean = self.s1 / nsamp
        var = (np.maximum(self.s2 / nsamp - mean * mean, 0.0)
               * nsamp / (nsamp - 1))
        mean2 = self.s2 / nsamp
        var2 = (np.maximum(self.s4 / nsamp - mean2 * mean2, 0.0)
                * nsamp / (nsamp - 1))
        return mean, var, mean2, var2


class TestMomentCounts:
    @pytest.mark.parametrize("q, npoints", [(2, 5), (16, 1308), (256, 41)])
    @pytest.mark.parametrize("whole", [True, False])
    def test_moments_equal_the_float_sums(self, q, npoints, whole):
        acc = pl._MomentAccumulator(npoints, q)
        # three full buffers, or three and a part one
        traces = 3 * acc._batch + (0 if whole else acc._batch // 2 + 1)
        rng = np.random.default_rng(q * npoints + whole)
        oracle = FloatMoments(npoints)
        for row in rng.integers(0, q, (traces, npoints)).tolist():
            acc.add(row)
            oracle.add(row)
        assert acc.count == traces
        for got, want in zip(acc.moments(), oracle.moments()):
            assert np.array_equal(got, want)

    def test_fewer_traces_than_a_buffer(self):
        acc = pl._MomentAccumulator(4, 16)
        oracle = FloatMoments(4)
        for row in ([1, 0, 15, 7], [3, 3, 0, 9], [15, 2, 2, 0]):
            acc.add(row)
            oracle.add(row)
        for got, want in zip(acc.moments(), oracle.moments()):
            assert np.array_equal(got, want)

    def test_value_outside_the_field_raises(self):
        acc = pl._MomentAccumulator(3, 16)
        acc.add([1, 2, 3])
        acc.add([1, 16, 3])
        with pytest.raises(ValueError, match="outside"):
            acc.moments()

    def test_trace_of_another_length_raises(self):
        acc = pl._MomentAccumulator(3, 16)
        with pytest.raises(ValueError, match="expected 3"):
            acc.add([1, 2])


def traced_run(name, field, n, labelled):
    """One traced registry run on fixed sharings and tape: the trace, the
    labels (None unlabelled), the counters and the tape state."""
    spec = pl.lookup(name)
    rng = random.Random(3)
    args = [pl._random_sharing(kind, field, n, v, rng) for kind, v in
            zip(spec.kinds, pl._fit_secrets(spec, field)[0])]
    ctx = MaskingContext(field, n, seed=5)
    ctx.trace, ctx.trace_labels = [], [] if labelled else None
    spec.run(ctx, *args)
    return (ctx.trace, ctx.trace_labels, ctx.counters.snapshot(),
            ctx.rng._state)


class TestRecording:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("w", [2, 4, 8])
    def test_every_wire_is_a_field_element(self, n, w):
        field = field_new(w)
        for name in pl.gadget_names():
            values = traced_run(name, field, n, False)[0]
            assert all(type(v) is int and 0 <= v < field.q
                       for v in values), name

    @pytest.mark.parametrize("n", [2, 3])
    def test_solve_wires_are_field_elements(self, n):
        system = random_system(F16, 4, random.Random(n))
        ctx = MaskingContext(F16, n, seed=n)
        ctx.trace = []
        masked_solve(ctx, system)
        assert all(type(v) is int and 0 <= v < 16 for v in ctx.trace)

    @pytest.mark.parametrize("n", [2, 3])
    def test_unlabelled_trace_equals_the_labelled_one(self, n):
        for name in pl.gadget_names():
            plain, none, *state = traced_run(name, F16, n, False)
            labelled, labels, *state2 = traced_run(name, F16, n, True)
            assert none is None and state == state2, name
            assert plain == labelled and len(labels) == len(plain), name

    @pytest.mark.parametrize("n", [2, 3])
    def test_unlabelled_solve_trace_equals_the_labelled_one(self, n):
        system = random_system(F16, 4, random.Random(n))
        runs = []
        for labels in (None, []):
            ctx = MaskingContext(F16, n, seed=n)
            ctx.trace, ctx.trace_labels = [], labels
            out = masked_solve(ctx, system)
            runs.append((out, ctx.trace, ctx.counters.snapshot(),
                         ctx.rng._state))
        assert runs[0] == runs[1]
        assert len(labels) == len(runs[1][1])


class TestSummary:
    def test_summary_shape(self):
        verdicts = pl.exhaustive_first_order("refresh", F16, 2)
        s = pl.leak_summary(verdicts)
        assert set(s) == {"points", "failed", "worst_statistic", "pass"}
        assert s["points"] == 4 and s["failed"] == 0


class Memo(dict):
    """A dict that calls before_store() before it stores a key."""

    def __init__(self, before_store):
        super().__init__()
        self.before_store = before_store

    def __setitem__(self, key, value):
        self.before_store()
        super().__setitem__(key, value)


def watch_tables(monkeypatch, budget):
    """Give the histogram memo `budget` bytes. Returns a list that gets,
    after every chunk and before every vector is stored, the memo's
    counted bytes, its bytes summed from its keys and histograms, and
    its stored vectors."""
    states = []

    class Watched(pl._Histograms):
        def __init__(self, *args):
            super().__init__(*args)
            self._memo = Memo(self.state)

        def state(self):
            memo = self._memo
            held = sum(len(k) + h.nbytes for k, h in memo.items())
            states.append((self.nbytes, held, len(memo)))

        def rows(self, trace, lanes):
            out = super().rows(trace, lanes)
            self.state()
            return out

    monkeypatch.setattr(pl, "_Histograms", Watched)
    monkeypatch.setattr(pl, "TABLE_BYTES", budget)
    return states


def one_vector_budget(want, q):
    """A budget that holds one vector of a full chunk with its histogram,
    but not two: each new vector empties the memo. want is the oracle's
    counts, whose point 0 counts every run."""
    runs = sum(c for (p, _), c in want[0].items() if p == 0)
    return min(runs, pl.LANE_CHUNK) + 8 * q + 8


class TestVectorTable:
    @pytest.mark.parametrize("name, n", [(name, 2) for name in pl.gadget_names()]
                             + [(name, 3) for name in UNIT_GADGETS])
    def test_histograms_equal_the_scalar_loop_at_one_vector(self, monkeypatch,
                                                            name, n):
        want = scalar_histograms_f4(name, n)
        budget = one_vector_budget(want, F4.q)
        states = watch_tables(monkeypatch, budget)
        assert lane_histograms(name, F4, n) == want
        assert states and all(b == held <= budget and stored <= 1
                              for b, held, stored in states)

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    @pytest.mark.parametrize("name, n", [("sec_mult", 3), ("sec_cond_add", 2)])
    def test_any_chunk_size_at_one_vector(self, monkeypatch, name, n, chunk):
        want = scalar_histograms_f4(name, n)
        monkeypatch.setattr(pl, "LANE_CHUNK", chunk)
        budget = one_vector_budget(want, F4.q)
        states = watch_tables(monkeypatch, budget)
        assert lane_histograms(name, F4, n) == want
        assert states and all(b == held <= budget for b, held, _ in states)

    def test_a_budget_below_one_vector_counts_each_point_alone(self,
                                                               monkeypatch):
        want = scalar_histograms_f4("sec_cond_add", 2)
        states = watch_tables(monkeypatch, 0)
        assert lane_histograms("sec_cond_add", F4, 2) == want
        assert states and all(state == (0, 0, 0) for state in states)

    def test_one_bincount_per_distinct_vector(self, monkeypatch):
        spec = pl.lookup("sec_cond_add")
        distinct, points = set(), []

        def run(ctx, *args):
            out = spec.run(ctx, *args)
            if isinstance(ctx.rng, ReplayTape):
                distinct.update(v.tobytes() for v in ctx.trace)
                points.append(len(ctx.trace))
            return out

        calls = []
        bincount = np.bincount

        def counting(*args, **kwargs):
            calls.append(args[0])
            return bincount(*args, **kwargs)

        monkeypatch.setitem(pl.REGISTRY, "sec_cond_add",
                            dataclasses.replace(spec, run=run))
        monkeypatch.setattr(np, "bincount", counting)
        pl.exhaustive_histograms("sec_cond_add", F4, 2)
        assert len(calls) == len(distinct) < sum(points)
        assert len({v.tobytes() for v in calls}) == len(calls)

    def test_bytes_stay_within_a_small_budget(self, monkeypatch):
        # sec_scalar_mult at n = 3 over GF(4): 216 chunks of 8192 lanes and
        # 379 distinct vectors, against room for three
        _, runs, want = pl.exhaustive_histograms("sec_scalar_mult", F4, 3)
        budget = 3 * (pl.LANE_CHUNK + 8 * F4.q) + 8 * 100
        states = watch_tables(monkeypatch, budget)
        _, got_runs, got = pl.exhaustive_histograms("sec_scalar_mult", F4, 3)
        assert got_runs == runs
        assert all(np.array_equal(g, h) for g, h in zip(got, want))
        assert all(b == held <= budget for b, held, _ in states)
        # the table filled to three vectors and was emptied many times over
        stored = [s for _, _, s in states]
        assert max(stored) == 3
        assert sum(b < a for a, b in zip(stored, stored[1:])) > 100


class TestSampledKeys:
    """A key hashes a sample of its vector's lanes but compares whole."""

    def test_vectors_equal_on_the_sample_stay_apart(self):
        a = lanes(*np.random.default_rng(3).integers(0, F4.q, 8192))
        b = a.copy()
        b[1] ^= 1  # lane 1 is outside the sample of every 129th lane
        key_a, key_b = pl._Key(a), pl._Key(b)
        assert hash(key_a) == hash(key_b) and key_a != key_b
        table = pl._Histograms([("t", "a"), ("t", "b")], F4.q,
                               pl.TABLE_BYTES)
        got = table.rows([a, b], 8192)
        assert len(table._memo) == 2
        assert got.tolist() == [np.bincount(a, minlength=F4.q).tolist(),
                                np.bincount(b, minlength=F4.q).tolist()]
        assert got[0].tolist() != got[1].tolist()

    def test_equal_vectors_made_apart_share_one_entry(self):
        a = lanes(*np.random.default_rng(4).integers(0, F4.q, 8192))
        b = lanes(*a.tolist())
        assert b is not a and not np.shares_memory(a, b)
        table = pl._Histograms([("t", "a"), ("t", "b")], F4.q,
                               pl.TABLE_BYTES)
        got = table.rows([a, b], 8192)
        assert len(table._memo) == 1
        assert got.tolist() == 2 * [np.bincount(a, minlength=F4.q).tolist()]


def emitting(monkeypatch, make):
    """Patch refresh to emit one more point, make(share 0), labelled
    ("refresh", "extra")."""
    spec = pl.lookup("refresh")

    def run(ctx, x):
        out = spec.run(ctx, x)
        ctx.emit(make(x[0]), ("refresh", "extra"))
        return out

    monkeypatch.setitem(pl.REGISTRY, "refresh",
                        dataclasses.replace(spec, run=run))


class TestPointTypes:
    @pytest.mark.parametrize("make, what", [
        (lambda v: 3, "of type int"),
        (lambda v: np.asarray(v, np.int64), "int64 of shape"),
        (lambda v: np.asarray(v, np.uint16), "uint16 of shape"),
    ])
    def test_point_that_is_not_a_lane_vector_is_refused(self, monkeypatch,
                                                        make, what):
        emitting(monkeypatch, make)
        calls = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount",
                            lambda *a, **k: calls.append(a) or bincount(*a, **k))
        with pytest.raises(pl.PointNotLanes,
                           match=rf"refresh\.extra is {what}") as info:
            pl.exhaustive_histograms("refresh", F16, 2)
        assert isinstance(info.value, TypeError)
        assert calls == []

    def test_vector_of_another_lane_count_is_refused(self, monkeypatch):
        emitting(monkeypatch, lambda v: np.asarray(v, np.uint8).reshape(-1)[:1])
        with pytest.raises(pl.PointNotLanes, match="of 256 lanes"):
            pl.exhaustive_histograms("refresh", F16, 2)

    def test_value_outside_the_field_is_refused(self, monkeypatch):
        emitting(monkeypatch, lambda v: v | 16)
        with pytest.raises(ValueError, match=r"point refresh\.extra carries "
                                             r"a value outside \[0, 16\)"):
            pl.exhaustive_histograms("refresh", F16, 2)

    def test_trace_longer_than_the_recorded_points_is_refused(self,
                                                              monkeypatch):
        spec = pl.lookup("refresh")

        def run(ctx, x):
            out = spec.run(ctx, x)
            if isinstance(ctx.rng, ReplayTape):
                ctx.trace.append(x[0])
            return out

        monkeypatch.setitem(pl.REGISTRY, "refresh",
                            dataclasses.replace(spec, run=run))
        with pytest.raises(ValueError, match="traced 5 points, the "
                                             "recording run 4"):
            pl.exhaustive_histograms("refresh", F16, 2)


class TestCampaignArguments:
    @pytest.fixture
    def no_work(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("work started before the arguments were "
                                 "checked")

        monkeypatch.setattr(pl, "random_system", boom)
        monkeypatch.setattr(pl.SeededTape, "spawn", boom)

    @pytest.mark.parametrize("target", ["refresh", "solve", "solve_unmasked"])
    @pytest.mark.parametrize("samples", [1, 0, -3])
    def test_fewer_than_two_samples_per_class(self, no_work, target, samples):
        with pytest.raises(ValueError, match=f"samples_per_class must be at "
                                             f"least 2, got {samples}$"):
            pl.statistical_fixed_vs_random(target, F16, 2,
                                           samples_per_class=samples)

    @pytest.mark.parametrize("target", ["refresh", "solve"])
    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0,
                                           -4.5])
    def test_threshold_not_finite_above_zero(self, no_work, target,
                                             threshold):
        with pytest.raises(ValueError, match=f"threshold must be a finite "
                                             f"number above 0, got "
                                             f"{threshold}$"):
            pl.statistical_fixed_vs_random(target, F16, 2,
                                           samples_per_class=4,
                                           threshold=threshold)

    @pytest.mark.parametrize("target", ["refresh", "sec_cond_add", "solve"])
    @pytest.mark.parametrize("n", [1, 0, -2])
    def test_fewer_than_two_shares(self, no_work, target, n):
        with pytest.raises(ValueError, match=f"need at least 2 shares, got "
                                             f"{n}$"):
            pl.statistical_fixed_vs_random(target, F16, n,
                                           samples_per_class=4)

    def test_unmasked_solve_reads_no_share_count(self):
        verdicts = pl.statistical_fixed_vs_random(
            "solve_unmasked", F16, 1, samples_per_class=2, seed=1)
        assert verdicts

    def test_least_accepted_arguments_run(self):
        verdicts = pl.statistical_fixed_vs_random(
            "refresh", F16, 2, samples_per_class=2, threshold=1e-9, seed=1)
        assert len(verdicts) == 4


class WidthLog(SeededTape):
    """A seeded tape that logs the width of every request."""

    def __init__(self, seed):
        super().__init__(seed)
        self.widths = {"draw": set(), "draw_nonzero": set(),
                       "draw_block": set()}

    def draw(self, width):
        self.widths["draw"].add(width)
        return super().draw(width)

    def draw_nonzero(self, width):
        self.widths["draw_nonzero"].add(width)
        return super().draw_nonzero(width)

    def draw_block(self, count, width):
        self.widths["draw_block"].add(width)
        return super().draw_block(count, width)


def test_every_draw_the_package_makes_is_one_to_eight_bits_wide():
    # the tapes serve widths 1..8 only: the solver, on both paths and on
    # singular systems too, and every registry gadget ask for no other
    rng = random.Random(27)
    seen = {"draw": set(), "draw_nonzero": set(), "draw_block": set()}

    def run(field, n, traced, gadget, *args):
        ctx = MaskingContext(field, n, tape=WidthLog(rng.getrandbits(64)))
        if traced:
            ctx.trace, ctx.trace_labels = [], []
        gadget(ctx, *args)
        for kind, widths in ctx.rng.widths.items():
            seen[kind] |= widths

    for w, n in itertools.product(range(1, 9), (2, 3, 4)):
        field = field_new(w)
        for system in (random_system(field, 3, rng),
                       random_system(field, 3, rng, invertible=False),
                       singular_system(field, 3, rng)):
            for traced in (False, True):
                run(field, n, traced, masked_solve, system)
    # every default secret fits from GF(4) on
    for w, n in itertools.product(range(2, 9), (2, 3)):
        field = field_new(w)
        for spec in pl.REGISTRY.values():
            secrets = pl._fit_secrets(spec, field)[0]
            run(field, n, True, spec.run,
                *(pl._random_sharing(kind, field, n, v, rng)
                  for kind, v in zip(spec.kinds, secrets)))
    assert seen == {kind: set(range(1, 9)) for kind in seen}
