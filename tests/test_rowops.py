"""Row gadget semantics, counters and input validation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mge.gf import field_new
from mge.masking import MaskingContext, b2m, bool_share, bool_unshare
from mge.tape import SeededTape
from mge.rowops import (
    LengthMismatch,
    LengthZero,
    PackedRow,
    row_drop,
    row_head,
    row_share,
    row_unshare,
    sec_cond_add,
    sec_mult_sub,
    sec_scalar_mult,
    unpack_row,
)
from mge import rowops

F16 = field_new(4)
F256 = field_new(8)


def _ctx(field, n, seed=0x2E):
    return MaskingContext(field, n, seed=seed)


class TestRowSharing:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_roundtrip(self, n):
        rng = random.Random(n)
        ctx = _ctx(F256, n)
        for _ in range(200):
            vals = [rng.randrange(256) for _ in range(rng.randrange(1, 12))]
            row = row_share(ctx, vals)
            assert isinstance(row, PackedRow) and row.l == len(vals)
            assert len(row) == n
            assert row_unshare(row) == vals

    def test_empty_row_rejected(self):
        with pytest.raises(LengthZero):
            row_share(_ctx(F16, 2), [])

    @pytest.mark.parametrize("values, k, v", [
        ([16, 200, 3], 0, 16), ([3, 300, 1], 1, 300), ([1, 2, -1], 2, -1)])
    def test_coefficient_outside_field_rejected_before_any_draw(self, values,
                                                                k, v):
        # GF(16): 16 and 200 used to be shared as bytes outside the field
        ctx = _ctx(F16, 3)
        state = ctx.rng._state
        with pytest.raises(ValueError,
                           match=rf"coefficient {k} is {v}, outside \[0, 16\)"):
            row_share(ctx, values)
        assert ctx.rng._state == state
        assert ctx.counters.snapshot() == (0, 0, 0)

    def test_charges_per_coefficient(self):
        ctx = _ctx(F256, 3)
        row_share(ctx, [1, 2, 3, 4])
        # (n-1) draws and (n-1) xors per coefficient, draws charge an op
        assert ctx.counters.snapshot() == (16, 8, 64)


class TestSemantics:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("l", [1, 2, 10])
    def test_cond_add_both_branches(self, n, l):
        rng = random.Random(31 * n + l)
        ctx = _ctx(F16, n)
        for bit in (0, 1):
            x = [rng.randrange(16) for _ in range(l)]
            y = [rng.randrange(16) for _ in range(l)]
            out = sec_cond_add(ctx, bool_share(ctx, bit), row_share(ctx, x),
                               row_share(ctx, y))
            want = [a ^ b for a, b in zip(x, y)] if bit else x
            assert row_unshare(out) == want

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("l", [1, 2, 10])
    def test_scalar_mult(self, n, l):
        rng = random.Random(7 * n + l)
        ctx = _ctx(F256, n)
        for _ in range(20):
            s = rng.randrange(1, 256)
            x = [rng.randrange(256) for _ in range(l)]
            p = b2m(ctx, bool_share(ctx, s))
            out = sec_scalar_mult(ctx, p, row_share(ctx, x))
            assert row_unshare(out) == [F256.mul(s, v) for v in x]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("l", [1, 2, 10])
    def test_mult_sub(self, n, l):
        rng = random.Random(13 * n + l)
        ctx = _ctx(F16, n)
        for _ in range(20):
            f = rng.randrange(16)
            r = [rng.randrange(16) for _ in range(l)]
            b = [rng.randrange(16) for _ in range(l)]
            out = sec_mult_sub(ctx, bool_share(ctx, f), row_share(ctx, r),
                               row_share(ctx, b))
            assert row_unshare(out) == [bv ^ F16.mul(f, rv)
                                        for rv, bv in zip(r, b)]

    def test_inputs_not_mutated(self):
        ctx = _ctx(F16, 2)
        x = row_share(ctx, [1, 2, 3])
        y = row_share(ctx, [4, 5, 6])
        snap_x, snap_y = list(x), list(y)
        sec_cond_add(ctx, bool_share(ctx, 1), x, y)
        p = b2m(ctx, bool_share(ctx, 7))
        sec_scalar_mult(ctx, p, x)
        sec_mult_sub(ctx, bool_share(ctx, 3), x, y)
        assert x == snap_x and y == snap_y


class TestCounters:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("w", [4, 8])
    @pytest.mark.parametrize("l", [1, 2, 10])
    def test_exact_grid(self, n, w, l):
        field = field_new(w)
        rng = random.Random(0x11)
        ctx = _ctx(field, n)
        b = bool_share(ctx, 1)
        x = row_share(ctx, [rng.randrange(field.q) for _ in range(l)])
        y = row_share(ctx, [rng.randrange(field.q) for _ in range(l)])
        p = b2m(ctx, bool_share(ctx, 3))

        def delta(run):
            before = ctx.counters.snapshot()
            run()
            after = ctx.counters.snapshot()
            return after[0] - before[0], after[2] - before[2]

        bits = (n * n - n) * l * w
        assert delta(lambda: sec_cond_add(ctx, b, x, y)) == (
            (5 * n * n - 3 * n) * l, bits)
        assert delta(lambda: sec_scalar_mult(ctx, p, x)) == (
            (5 * n * n - 3 * n) * l, bits)
        assert delta(lambda: sec_mult_sub(ctx, b, x, y)) == (
            (7 * n * n - 3 * n) * l // 2, bits // 2)

    def test_pinned_literals(self):
        # n=2, l=1: cond add 14 ops, scalar mult 14 ops, mult sub 11 ops
        ctx = _ctx(F256, 2)
        b = bool_share(ctx, 1)
        x = row_share(ctx, [5])
        y = row_share(ctx, [9])
        p = b2m(ctx, bool_share(ctx, 3))
        for run, want in ((lambda: sec_cond_add(ctx, b, x, y), 14),
                          (lambda: sec_scalar_mult(ctx, p, x), 14),
                          (lambda: sec_mult_sub(ctx, b, x, y), 11)):
            before = ctx.counters.ops
            run()
            assert ctx.counters.ops - before == want


class TestValidation:
    def test_share_count_mismatch(self):
        ctx = _ctx(F16, 3)
        good = row_share(ctx, [1, 2])
        bad = PackedRow([0x0201, 0x0403], 2)  # two shares, three expected
        with pytest.raises(LengthMismatch):
            sec_cond_add(ctx, bool_share(ctx, 1), good, bad)

    def test_row_length_mismatch(self):
        ctx = _ctx(F16, 2)
        with pytest.raises(LengthMismatch):
            sec_mult_sub(ctx, bool_share(ctx, 1), row_share(ctx, [1, 2]),
                         row_share(ctx, [1, 2, 3]))

    def test_list_row_rejected(self):
        listed = [[1, 2], [3, 4]]  # share-major coefficient lists
        for trace in (None, []):
            ctx = _ctx(F16, 2)
            ctx.trace = trace
            good = row_share(ctx, [1, 2])
            for run in (lambda: sec_cond_add(ctx, [1, 0], listed, good),
                        lambda: sec_cond_add(ctx, [1, 0], good, listed),
                        lambda: sec_scalar_mult(ctx, [1, 1], listed),
                        lambda: sec_mult_sub(ctx, [1, 0], listed, good),
                        lambda: sec_mult_sub(ctx, [1, 0], good, listed)):
                with pytest.raises(TypeError):
                    run()

    def test_factor_share_count(self):
        ctx = _ctx(F16, 2)
        with pytest.raises(LengthMismatch):
            sec_scalar_mult(ctx, [1, 1, 1], row_share(ctx, [1]))

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize("gadget", ["cond_add", "scalar_mult",
                                        "mult_sub"])
    def test_bit_and_factor_share_counts(self, gadget, count, traced):
        # n = 3: a short or long bit or factor sharing is rejected on
        # both paths before any draw or charge
        ctx = _ctx(F16, 3)
        x, y = row_share(ctx, [1, 2]), row_share(ctx, [3, 4])
        ctx.trace = [] if traced else None
        shares = [1, 0, 0, 1][:count]
        run = {"cond_add": lambda: sec_cond_add(ctx, shares, x, y),
               "scalar_mult": lambda: sec_scalar_mult(ctx, shares, x),
               "mult_sub": lambda: sec_mult_sub(ctx, shares, x, y)}[gadget]
        counters, state = ctx.counters.snapshot(), ctx.rng._state
        with pytest.raises(LengthMismatch):
            run()
        assert ctx.counters.snapshot() == counters
        assert ctx.rng._state == state
        assert not ctx.trace


# ------------------------------------------- packed path against scalar


def _twin_contexts(field, n, seed):
    """Same field, shares and tape seed; only the first one is traced."""
    traced = MaskingContext(field, n, seed=seed)
    traced.trace = []
    return traced, MaskingContext(field, n, seed=seed)


def _random_rows(field, n, l, rng, count):
    return [PackedRow([int.from_bytes(bytes(rng.randrange(field.q)
                                            for _ in range(l)), "little")
                       for _ in range(n)], l)
            for _ in range(count)]


def _assert_twins_agree(run, field, n, seed, l, rows=()):
    snap = [(list(r), r.l) for r in rows]
    traced, packed = _twin_contexts(field, n, seed)
    want = run(traced)
    got = run(packed)
    assert traced.trace, "the traced context must take the scalar path"
    for out in (want, got):
        assert isinstance(out, PackedRow) and out.l == l
    assert got == want
    assert packed.counters.snapshot() == traced.counters.snapshot()
    assert packed.rng._state == traced.rng._state
    assert [(list(r), r.l) for r in rows] == snap, "an input row changed"


ROW_CASE = dict(w=st.integers(1, 8), n=st.integers(2, 5),
                l=st.integers(1, 45), seed=st.integers(0, 2 ** 64 - 1))


@settings(max_examples=80, deadline=None)
@given(**ROW_CASE)
def test_cond_add_packed_matches_scalar(w, n, l, seed):
    field = field_new(w)
    rng = random.Random(seed)
    x, y = _random_rows(field, n, l, rng, 2)
    b = [rng.randrange(2) for _ in range(n)]
    _assert_twins_agree(lambda ctx: sec_cond_add(ctx, b, x, y), field, n,
                        seed, l, (x, y))


@settings(max_examples=80, deadline=None)
@given(**ROW_CASE)
def test_mult_sub_packed_matches_scalar(w, n, l, seed):
    field = field_new(w)
    rng = random.Random(seed)
    row, base = _random_rows(field, n, l, rng, 2)
    factor = [rng.randrange(field.q) for _ in range(n)]
    _assert_twins_agree(lambda ctx: sec_mult_sub(ctx, factor, row, base),
                        field, n, seed, l, (row, base))


@settings(max_examples=80, deadline=None)
@given(**ROW_CASE)
def test_scalar_mult_packed_matches_scalar(w, n, l, seed):
    field = field_new(w)
    rng = random.Random(seed)
    (x,) = _random_rows(field, n, l, rng, 1)
    p = [rng.randrange(1, field.q) for _ in range(n)]
    _assert_twins_agree(lambda ctx: sec_scalar_mult(ctx, p, x), field, n,
                        seed, l, (x,))


def test_packed_path_leaves_inputs_untouched():
    ctx = _ctx(F256, 3)
    x = row_share(ctx, [1, 2, 3])
    y = row_share(ctx, [4, 5, 6])
    snap = list(x), list(y)
    sec_cond_add(ctx, bool_share(ctx, 1), x, y)
    sec_mult_sub(ctx, bool_share(ctx, 7), x, y)
    sec_scalar_mult(ctx, b2m(ctx, bool_share(ctx, 9)), x)
    assert (x, y) == snap


@settings(max_examples=60, deadline=None)
@given(**ROW_CASE)
def test_row_share_and_live_tail_traced_matches_untraced(w, n, l, seed):
    field = field_new(w)
    rng = random.Random(seed)
    values = [rng.randrange(field.q) for _ in range(l)]
    _assert_twins_agree(lambda ctx: row_share(ctx, values), field, n, seed,
                        l)
    row = row_share(_ctx(field, n, seed), values)
    lists = unpack_row(row)
    assert row_unshare(row) == values
    assert row_head(row) == [s[0] for s in lists]
    if l > 1:
        dropped = row_drop(row)
        assert isinstance(dropped, PackedRow) and dropped.l == l - 1
        assert unpack_row(dropped) == [s[1:] for s in lists]
    assert unpack_row(row) == lists  # row_drop left its input alone


def test_packed_row_validation():
    ctx = _ctx(F16, 2)
    x = row_share(ctx, [1, 2, 3])
    with pytest.raises(LengthMismatch):
        sec_cond_add(ctx, bool_share(ctx, 1), x, row_share(ctx, [1, 2]))
    with pytest.raises(LengthMismatch):
        sec_scalar_mult(_ctx(F16, 3), [1, 1, 1], x)
    with pytest.raises(LengthZero):
        row_share(ctx, [])


@pytest.mark.parametrize("w", range(1, 9))
def test_mul_tables_equal_field_products(w):
    field = field_new(w)
    for c in range(field.q):
        want = bytes([field.mul(c, v) for v in range(field.q)]
                     + [0] * (256 - field.q))
        assert rowops._mul_table(field, c) == want, (w, c)


@pytest.mark.parametrize("w,n,l", [(1, 2, 3), (4, 3, 5), (8, 4, 2)])
def test_traced_row_share_emits_each_scalar_draw_and_last_share(w, n, l):
    field = field_new(w)
    values = [(7 * k + 3) % field.q for k in range(l)]
    ctx = _ctx(field, n, seed=91)
    ctx.trace, ctx.trace_labels = [], []
    row = row_share(ctx, values)
    scalar = SeededTape(91)
    want, labels = [], []
    for k, acc in enumerate(values):
        for i in range(n - 1):
            r = scalar.draw(w)
            acc ^= r
            want.append(r)
            labels.append(("rshare", "r", k, i))
        want.append(acc)
        labels.append(("rshare", "last", k))
    assert ctx.trace == want and ctx.trace_labels == labels
    assert unpack_row(row)[-1] == [want[(k + 1) * n - 1] for k in range(l)]
    assert ctx.rng._state == scalar._state
