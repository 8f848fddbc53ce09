"""Tests for sharings, the tape, and the unit gadgets.

Counter expectations are computed from independent closed forms local
to this file, then pinned as literals for a few anchor configurations.
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mge import masking, tape as tape_mod
from mge.gf import field_new
from mge.masking import (
    DEFAULT_SEED,
    DomainTape,
    MaskingContext,
    ReplayTape,
    SeededTape,
    ZeroSharing,
    b2m,
    b2minv,
    bool_share,
    bool_unshare,
    full_add,
    mult_unshare,
    refresh,
    sec_and,
    sec_mult,
    sec_nonzero,
    sec_not,
    sec_or,
    strong_refresh,
)

F16 = field_new(4)
F256 = field_new(8)
MASK64 = (1 << 64) - 1


def splitmix64_ref(seed):
    """Reference generator, written independently of the library."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


class TestTapes:
    def test_draw_is_top_bits_of_reference_stream(self):
        tape = SeededTape(12345)
        ref = splitmix64_ref(12345)
        for width in (1, 4, 8, 8, 1, 5):
            assert tape.draw(width) == next(ref) >> (64 - width)

    def test_default_seed_first_bytes_are_frozen(self):
        tape = SeededTape(DEFAULT_SEED)
        first = [tape.draw(8) for _ in range(4)]
        ref = splitmix64_ref(DEFAULT_SEED)
        assert first == [next(ref) >> 56 for _ in range(4)]

    def test_draw_nonzero_rejects_zero(self):
        tape = SeededTape(7)
        for _ in range(5000):
            assert tape.draw_nonzero(1) == 1

    def test_zero_width_nonzero_draw_rejected_before_the_tape_moves(self):
        # every 0-bit draw is 0, so the rejection loop could never end
        tape = SeededTape(5)
        tape.draw(8)
        state = tape._state
        with pytest.raises(ValueError, match="wide"):
            tape.draw_nonzero(0)
        assert tape._state == state

    @pytest.mark.parametrize("kind, width", [
        (kind, width) for kind in ("draw", "draw_nonzero")
        for width in (-1, 0, 9, 65)])
    def test_out_of_range_width_rejected_before_the_tape_moves(self, kind,
                                                               width):
        # a 0-bit draw would use up a buffered one, and a 9-bit one would
        # use one up before its negative shift failed
        ref = splitmix64_ref(5)
        tape = SeededTape(5)
        assert tape.draw(8) == next(ref) >> 56
        state = tape._state
        with pytest.raises(ValueError, match=f"1..8 bits wide, got {width}"):
            getattr(tape, kind)(width)
        assert tape._state == state
        assert tape.draw(8) == next(ref) >> 56
        if kind == "draw":
            ctx = MaskingContext(F16, 2, seed=5)
            with pytest.raises(ValueError, match="wide"):
                ctx.rand(width)
            assert ctx.rng._state == SeededTape(5)._state
            assert ctx.counters.snapshot() == (0, 0, 0)
            assert ctx.rand(4) == SeededTape(5).draw(4)

    def test_draw_nonzero_reads_the_tape_without_calling_draw(self, monkeypatch):
        # a wrapper installed on draw, such as a call-counting tracer, must
        # see one call per request, so draw_nonzero may not go through it
        ref = splitmix64_ref(7)
        tape = SeededTape(7)
        monkeypatch.setattr(SeededTape, "draw",
                            lambda self, width: pytest.fail("draw called"))
        for _ in range(40):
            want = next(ref) >> 60
            while not want:
                want = next(ref) >> 60
            assert tape.draw_nonzero(4) == want

    def test_spawn_diverges_from_parent(self):
        parent = SeededTape(3)
        child = parent.spawn()
        a = [parent.draw(8) for _ in range(16)]
        b = [child.draw(8) for _ in range(16)]
        assert a != b

    def test_replay_returns_values_in_order_and_rewinds(self):
        tape = ReplayTape([3, 1, 4, 1, 5])
        assert [tape.draw(4) for _ in range(5)] == [3, 1, 4, 1, 5]
        with pytest.raises(IndexError):
            tape.draw(4)
        tape.rewind()
        assert tape.draw_nonzero(4) == 3
        tape.rewind([9])
        assert tape.draw(4) == 9

    def test_domain_tape_records_width_and_nonzero_schedule(self):
        tape = DomainTape()
        ctx = MaskingContext(F16, 2, tape=tape)
        b2m(ctx, bool_share(ctx, 5))
        widths = [w for w, _ in tape.schedule]
        assert all(w == 4 for w in widths)
        # one sharing draw, then one nonzero mask draw (n=2: no inner draws)
        assert [nz for _, nz in tape.schedule] == [False, True]


    def test_replay_block_reads_the_next_values(self):
        tape = ReplayTape([3, 1, 4, 1, 5])
        assert tape.draw(4) == 3
        assert tape.draw_block(3, 4) == bytes([1, 4, 1])
        assert tape.draw(4) == 5
        tape.rewind()
        with pytest.raises(IndexError):
            tape.draw_block(6, 4)

    def test_domain_block_records_plain_draws(self):
        tape = DomainTape()
        assert tape.draw_block(3, 5) == bytes(3)
        assert tape.schedule == [(5, False)] * 3

    @pytest.mark.parametrize("width", [0, 9])
    def test_block_width_outside_a_byte_rejected(self, width):
        with pytest.raises(ValueError):
            SeededTape(1).draw_block(4, width)

    @pytest.mark.parametrize("count", [-1, -40])
    def test_negative_block_count_rejected_before_the_tape_moves(self, count):
        tape = SeededTape(5)
        ref = splitmix64_ref(5)
        assert tape.draw(8) == next(ref) >> 56
        state = tape._state
        with pytest.raises(ValueError, match="count"):
            tape.draw_block(count, 8)
        assert tape._state == state
        assert tape.draw(8) == next(ref) >> 56

    def test_seed_and_tape_together_rejected_before_a_tape_is_built(
            self, monkeypatch):
        # the seed used to be dropped in silence, the tape used
        def no_tape(*args):
            raise AssertionError("built a tape")

        monkeypatch.setattr(masking, "SeededTape", no_tape)
        with pytest.raises(ValueError, match="not both"):
            MaskingContext(F16, 2, seed=7, tape=ReplayTape([1]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 600), st.integers(0, 2 ** 64 - 1),
       st.integers(0, 600))
def test_draw_block_equals_a_loop_of_draws(width, count, seed, before):
    block_tape, loop_tape = SeededTape(seed), SeededTape(seed)
    # a block may follow blocks of other sizes, whose lane constants
    # are cached beside its own
    SeededTape(seed).draw_block(before, 8)
    assert block_tape.draw_block(count, width) == bytes(
        loop_tape.draw(width) for _ in range(count))
    assert block_tape._state == loop_tape._state
    assert block_tape.draw(8) == loop_tape.draw(8)


class ScalarSplitMix:
    """One SplitMix64 step per draw, with the state in the open."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def draw(self, width):
        return self.next64() >> (64 - width)

    def draw_nonzero(self, width):
        while True:
            v = self.draw(width)
            if v:
                return v


# a tape request: ("draw", width, repeats), ("nonzero", width, repeats),
# ("block", count, width), ("spawn",) or ("state",)
_TAPE_STEPS = st.one_of(
    st.tuples(st.just("draw"), st.integers(1, 8), st.integers(1, 80)),
    st.tuples(st.just("nonzero"), st.integers(1, 8), st.integers(1, 80)),
    st.tuples(st.just("block"), st.integers(0, 1500), st.integers(1, 8)),
    st.tuples(st.just("spawn")),
    st.tuples(st.just("state")),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.lists(_TAPE_STEPS, max_size=25))
def test_look_ahead_tape_equals_scalar_splitmix(seed, steps):
    # refills, blocks larger than the look-ahead cap and spawns
    # interleave; every value and every state must be the scalar one
    tape, ref = SeededTape(seed), ScalarSplitMix(seed)
    for step in steps:
        kind = step[0]
        if kind == "draw":
            _, width, times = step
            for _ in range(times):
                assert tape.draw(width) == ref.draw(width)
        elif kind == "nonzero":
            _, width, times = step
            for _ in range(times):
                assert tape.draw_nonzero(width) == ref.draw_nonzero(width)
        elif kind == "block":
            _, count, width = step
            assert tape.draw_block(count, width) == bytes(
                ref.draw(width) for _ in range(count))
        elif kind == "spawn":
            tape, ref = tape.spawn(), ScalarSplitMix(ref.next64())
        assert tape._state == ref.state
    assert tape.draw(8) == ref.draw(8)
    assert tape._state == ref.state


def test_back_to_back_cap_refills_equal_scalar_splitmix():
    # cap-sized refills step the lanes of the last one on; a spawn or a
    # block beyond the cap must make the next refill start from the
    # tape's state again
    cap = tape_mod._AHEAD_CAP
    tape, ref = SeededTape(0xC0FFEE), ScalarSplitMix(0xC0FFEE)

    def blocks(total, size):
        stepped = 0
        for _ in range(total // size):
            had = tape._states
            assert tape.draw_block(size, 8) == bytes(
                ref.draw(8) for _ in range(size))
            assert tape._state == ref.state
            stepped += had is not None and tape._states is not had
        return stepped

    # the look-ahead doubles up to the cap; then at least six cap-sized
    # refills follow one another
    assert blocks(12 * cap, 100) >= 6
    child = tape.spawn()
    child_ref = ScalarSplitMix(ref.next64())
    assert tape._states is None
    assert [child.draw(8) for _ in range(3 * cap)] == [
        child_ref.draw(8) for _ in range(3 * cap)]
    assert blocks(3 * cap, 300) >= 2
    tape.spawn()
    ref.next64()
    assert tape._states is None
    assert blocks(3 * cap, 250) >= 1
    # longer than the cap plus what is left of the buffer
    assert tape.draw_block(2 * cap + 7, 5) == bytes(
        ref.draw(5) for _ in range(2 * cap + 7))
    assert tape._states is None
    assert blocks(4 * cap, 128) >= 2
    assert tape.draw(8) == ref.draw(8)
    assert tape._state == ref.state


def test_interleaved_tapes_equal_scalar_splitmix():
    # two live tapes and a spawned child refill in turn at different
    # sizes, one above the cap, from the one cache of lane constants
    cap = tape_mod._AHEAD_CAP
    small, large = SeededTape(0xA11CE), SeededTape(0xB0B)
    small_ref, large_ref = ScalarSplitMix(0xA11CE), ScalarSplitMix(0xB0B)
    child = small.spawn()
    child_ref = ScalarSplitMix(small_ref.next64())
    stepped = 0
    for _ in range(12):
        had = small._states
        assert small.draw_block(400, 8) == bytes(
            small_ref.draw(8) for _ in range(400))
        stepped += had is not None and small._states is not had
        assert large.draw_block(cap + 300, 5) == bytes(
            large_ref.draw(5) for _ in range(cap + 300))
        assert [child.draw(3) for _ in range(70)] == [
            child_ref.draw(3) for _ in range(70)]
        for tape, ref in ((small, small_ref), (large, large_ref),
                          (child, child_ref)):
            assert tape._state == ref.state
    assert stepped >= 1  # the cap-sized refills stepped their lanes on
    assert large._states is None
    for tape, ref in ((small, small_ref), (large, large_ref),
                      (child, child_ref)):
        assert tape.draw_nonzero(8) == ref.draw_nonzero(8)
        assert tape.spawn().draw(8) == ScalarSplitMix(ref.next64()).draw(8)
        assert tape._state == ref.state


class TestSharing:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bool_roundtrip_exhaustive_gf16(self, n):
        ctx = MaskingContext(F16, n, seed=0xA5)
        for v in range(16):
            for _ in range(8):
                assert bool_unshare(bool_share(ctx, v)) == v

    def test_bool_roundtrip_random_gf256(self):
        rng = random.Random(0xC3)
        for _ in range(10_000):
            n = rng.randrange(2, 6)
            ctx = MaskingContext(F256, n, seed=rng.randrange(2 ** 63))
            v = rng.randrange(256)
            xs = bool_share(ctx, v)
            assert len(xs) == n
            assert bool_unshare(xs) == v

    def test_share_charges_n_minus_1_draws_and_xors(self):
        ctx = MaskingContext(F256, 4, seed=1)
        bool_share(ctx, 0x5A)
        # each tape draw is itself a charged op, plus one xor per share
        assert ctx.counters.snapshot() == (6, 3, 24)

    def test_rejects_out_of_range_value(self):
        ctx = MaskingContext(F16, 2, seed=1)
        with pytest.raises(ValueError):
            bool_share(ctx, 16)
        with pytest.raises(ValueError):
            bool_share(ctx, -1)

    def test_mult_unshare_multiplies(self):
        assert mult_unshare(F16, [3, 7, 1]) == F16.mul(F16.mul(3, 7), 1)


# Closed forms, restated locally so a regression in the library's
# bookkeeping cannot hide behind a matching regression in costmodel.
def ops_refresh(n):
    return 4 * n - 3


def ops_strong_refresh(n):
    return 3 * (n * n - n) // 2


def ops_full_add(n):
    return (3 * n * n - n - 2) // 2


def ops_sec_mult(n):
    return (7 * n * n - 5 * n) // 2


def ops_sec_or(n):
    return 2 * n + ops_sec_mult(n) + 1


def ops_sec_nonzero(n, w):
    ell = w.bit_length()
    return (5 * n * n + 2 * n - 1) + ell * (5 * n * n - n + 2)


def ops_b2m(n):
    return (5 * n * n - 7 * n + 4) // 2


def ops_b2minv(n):
    return (5 * n * n - 5 * n + 4) // 2


class TestGadgetCounters:
    """Every delta must equal the closed form exactly, no tolerance."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("w", [4, 8])
    def test_all_unit_gadgets(self, n, w):
        field = field_new(w)
        h = (n * n - n) // 2

        def delta(run):
            ctx = MaskingContext(field, n, seed=0x51)
            x = bool_share(ctx, 5 % field.q)
            y = bool_share(ctx, 9 % field.q)
            nz = bool_share(ctx, 3)
            before = ctx.counters.snapshot()
            run(ctx, x, y, nz)
            a = ctx.counters.snapshot()
            return a[0] - before[0], a[1] - before[1], a[2] - before[2]

        assert delta(lambda c, x, y, z: refresh(c, x)) == (
            ops_refresh(n), n - 1, (n - 1) * w)
        assert delta(lambda c, x, y, z: strong_refresh(c, x)) == (
            ops_strong_refresh(n), h, h * w)
        assert delta(lambda c, x, y, z: full_add(c, x)) == (
            ops_full_add(n), h, h * w)
        assert delta(lambda c, x, y, z: sec_mult(c, x, y)) == (
            ops_sec_mult(n), h, h * w)
        assert delta(lambda c, x, y, z: sec_and(c, x, y)) == (
            ops_sec_mult(n), h, h * w)
        assert delta(lambda c, x, y, z: sec_not(c, x)) == (1, 0, 0)
        assert delta(lambda c, x, y, z: sec_or(c, x, y)) == (
            ops_sec_or(n), h, h * w)
        # draws follow the executed fold (one strong refresh and one
        # masked AND per level); bits are aligned to the printed form
        ell = w.bit_length()
        levels = ell - 1
        assert delta(lambda c, x, y, z: sec_nonzero(c, x)) == (
            ops_sec_nonzero(n, w),
            levels * (n * n - n),
            (ell * ell - ell) // 2 * (n * n - n))
        # n-1 nonzero masks plus (n-1)(n-2)/2 rerandomizers, h in total
        assert delta(lambda c, x, y, z: b2m(c, z)) == (ops_b2m(n), h, h * w)
        assert delta(lambda c, x, y, z: b2minv(c, z)) == (
            ops_b2minv(n), h, h * w)

    def test_pinned_anchor_values(self):
        # frozen literals guard the local forms themselves
        assert ops_refresh(2) == 5
        assert ops_strong_refresh(4) == 18
        assert ops_full_add(3) == 11
        assert ops_sec_mult(2) == 9
        assert ops_sec_or(2) == 14
        assert ops_sec_nonzero(2, 8) == 103
        assert ops_b2m(2) == 5
        assert ops_b2minv(2) == 7
        assert ops_b2minv(3) == 17

    def test_counters_never_decrease(self):
        ctx = MaskingContext(F16, 3, seed=9)
        x = bool_share(ctx, 6)
        prev = ctx.counters.snapshot()
        for run in (refresh, strong_refresh, sec_nonzero):
            run(ctx, x)
            cur = ctx.counters.snapshot()
            assert all(c >= p for c, p in zip(cur, prev))
            assert cur[0] > prev[0]
            prev = cur


class TestGadgetSemantics:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("field", [F16, F256], ids=["gf16", "gf256"])
    def test_correctness_random(self, n, field):
        rng = random.Random(0xD4)
        ctx = MaskingContext(field, n, seed=0xD4)
        for _ in range(300):
            a = rng.randrange(field.q)
            b = rng.randrange(field.q)
            assert bool_unshare(refresh(ctx, bool_share(ctx, a))) == a
            assert bool_unshare(strong_refresh(ctx, bool_share(ctx, a))) == a
            assert full_add(ctx, bool_share(ctx, a)) == a
            xs, ys = bool_share(ctx, a), bool_share(ctx, b)
            assert bool_unshare(sec_mult(ctx, xs, ys)) == field.mul(a, b)
            assert bool_unshare(sec_and(ctx, xs, ys)) == a & b
            assert bool_unshare(sec_or(ctx, xs, ys)) == a | b
            zs = sec_not(ctx, bool_share(ctx, a))
            assert bool_unshare(zs) == a ^ 1
            assert bool_unshare(sec_nonzero(ctx, bool_share(ctx, a))) == int(
                a != 0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_b2m_b2minv_cover_every_nonzero_gf16(self, n):
        ctx = MaskingContext(F16, n, seed=0x77)
        for v in range(1, 16):
            assert mult_unshare(F16, b2m(ctx, bool_share(ctx, v))) == v
            got = mult_unshare(F16, b2minv(ctx, bool_share(ctx, v)))
            assert got == F16.inv(v)

    def test_b2m_rejects_zero_encoding(self):
        ctx = MaskingContext(F16, 2, seed=1)
        with pytest.raises(ZeroSharing):
            b2m(ctx, bool_share(ctx, 0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_b2m_never_recombines_its_input(self, monkeypatch, n):
        # the zero test reads share 0 of the result, x times every m_j,
        # so the unmasked input never sits on a wire
        def recombined(shares):
            raise AssertionError("b2m recombined its input")

        monkeypatch.setattr(masking, "bool_unshare", recombined)
        ctx = MaskingContext(F16, n, seed=0x5A)
        for v in range(1, 16):
            assert mult_unshare(F16, b2m(ctx, bool_share(ctx, v))) == v
            got = mult_unshare(F16, b2minv(ctx, bool_share(ctx, v)))
            assert got == F16.inv(v)
        with pytest.raises(ZeroSharing):
            b2minv(ctx, bool_share(ctx, 0))

    def test_zero_rejection_holds_under_optimize_flag(self):
        # assert statements vanish under -O; this check must not
        code = ("from mge.gf import field_new\n"
                "from mge.masking import MaskingContext, ZeroSharing, b2m\n"
                "ctx = MaskingContext(field_new(4), 2, seed=1)\n"
                "try:\n"
                "    b2m(ctx, [7, 7])\n"
                "except ZeroSharing:\n"
                "    print('rejected')\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "rejected"

    def test_sec_nonzero_output_is_valid_bit_sharing(self):
        ctx = MaskingContext(F256, 3, seed=5)
        for v in (0, 1, 128, 255):
            out = sec_nonzero(ctx, bool_share(ctx, v))
            assert bool_unshare(out) in (0, 1)

    def test_strong_refresh_output_share_is_uniform(self):
        # chi-square with 15 dof; 37.70 is the p = 0.001 cutoff
        ctx = MaskingContext(F16, 2, seed=0xBEEF)
        xs = bool_share(ctx, 0xA)
        counts = [0] * 16
        trials = 100_000
        for _ in range(trials):
            ys = strong_refresh(ctx, list(xs))
            counts[ys[0]] += 1
        expected = trials / 16
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 37.70, f"chi-square {chi2:.1f} exceeds p=0.001 cutoff"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("w", range(1, 9))
def test_untraced_sec_nonzero_equals_traced(n, w):
    # the traced context runs the scalar reference, the untraced one the
    # inline fold; every value for w <= 4, a sample above
    field = field_new(w)
    values = range(field.q) if w <= 4 else [0, 1, field.q - 1] + random.Random(
        w * 10 + n).sample(range(2, field.q - 1), 24)
    for x in values:
        seed = (x << 8) | (w << 4) | n
        traced = MaskingContext(field, n, seed=seed)
        packed = MaskingContext(field, n, seed=seed)
        shares = bool_share(traced, x)
        assert bool_share(packed, x) == shares
        traced.trace = []
        out = sec_nonzero(traced, shares)
        assert sec_nonzero(packed, shares) == out
        assert bool_unshare(out) == (x != 0)
        assert packed.counters.snapshot() == traced.counters.snapshot()
        assert packed.rng._state == traced.rng._state


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("w", range(1, 9))
def test_untraced_refresh_gadgets_equal_traced(n, w):
    # untraced, strong_refresh draws its pair randoms as one block;
    # full_add goes through it, and strong_refresh also runs at every
    # narrower width, as sec_nonzero's fold calls it
    field = field_new(w)
    rng = random.Random(n * 16 + w)
    for rep in range(6):
        x = [rng.randrange(field.q) for _ in range(n)]
        seed = rng.getrandbits(64)
        traced = MaskingContext(field, n, seed=seed)
        packed = MaskingContext(field, n, seed=seed)
        traced.trace = []
        for width in (None, *range(1, w)):
            assert (strong_refresh(packed, x, width=width)
                    == strong_refresh(traced, x, width=width))
            assert packed.counters.snapshot() == traced.counters.snapshot()
            assert packed.rng._state == traced.rng._state
        assert full_add(packed, x) == full_add(traced, x) == bool_unshare(x)
        assert packed.counters.snapshot() == traced.counters.snapshot()
        assert packed.rng._state == traced.rng._state


# each unit gadget as a function of (ctx, x); the two-input ones get x twice
_UNIT_GADGETS = {
    "refresh": refresh, "strong_refresh": strong_refresh,
    "full_add": full_add, "sec_not": sec_not, "sec_nonzero": sec_nonzero,
    "b2m": b2m, "b2minv": b2minv,
    "sec_mult": lambda ctx, x: sec_mult(ctx, x, x),
    "sec_and": lambda ctx, x: sec_and(ctx, x, x),
    "sec_or": lambda ctx, x: sec_or(ctx, x, x),
}


class TestShareCounts:
    # a sharing with too many or too few shares used to run: at n = 2
    # sec_mult([3, 5, 6], [7, 1, 2]) gave a sharing of 7 for a product
    # of 0, and at n = 3 two shares raised a bare IndexError
    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("n, count", [(2, 3), (3, 2), (3, 4)])
    @pytest.mark.parametrize("gadget", sorted(_UNIT_GADGETS))
    def test_wrong_share_count_rejected_before_any_draw(self, gadget, n,
                                                        count, traced):
        ctx = MaskingContext(F16, n, seed=0x5EED)
        ctx.trace = [] if traced else None
        counters, state = ctx.counters.snapshot(), ctx.rng._state
        with pytest.raises(masking.LengthMismatch, match=f"expected {n}"):
            _UNIT_GADGETS[gadget](ctx, [3, 5, 6, 1][:count])
        assert ctx.counters.snapshot() == counters
        assert ctx.rng._state == state
        assert not ctx.trace

    @pytest.mark.parametrize("gadget", [sec_mult, sec_and, sec_or])
    def test_either_operand_is_checked(self, gadget):
        ctx = MaskingContext(F16, 2, seed=3)
        state = ctx.rng._state
        for x, y in (([3, 5, 6], [7, 1]), ([3, 5], [7, 1, 2])):
            with pytest.raises(masking.LengthMismatch):
                gadget(ctx, x, y)
        assert ctx.counters.snapshot() == (0, 0, 0)
        assert ctx.rng._state == state

    def test_rowops_reexports_the_masking_error(self):
        from mge import rowops
        assert rowops.LengthMismatch is masking.LengthMismatch


class TestTraceShapes:
    @staticmethod
    def _traced(n, seed=1):
        ctx = MaskingContext(F16, n, seed=seed)
        ctx.trace = []
        ctx.trace_labels = []
        return ctx

    def test_refresh_n2_emits_exactly_four_points(self):
        ctx = self._traced(2)
        refresh(ctx, bool_share(ctx, 5))
        labels = [l for l in ctx.trace_labels if l[0] == "refresh"]
        assert len(labels) == 4
        assert labels[0] == ("refresh", "cp")
        assert labels[1:] == [("refresh", "r", 1), ("refresh", "y0", 1),
                              ("refresh", "yi", 1)]

    def test_refresh_n3_emits_seven_points(self):
        ctx = self._traced(3)
        refresh(ctx, bool_share(ctx, 5))
        assert sum(1 for l in ctx.trace_labels if l[0] == "refresh") == 7

    @pytest.mark.parametrize("gadget,tag", [(sec_mult, "smul"),
                                            (sec_and, "sand")])
    def test_isw_products_label_every_wire_under_their_tag(self, gadget, tag):
        ctx = MaskingContext(F16, 3, seed=1)
        x, y = bool_share(ctx, 5), bool_share(ctx, 9)
        ctx.trace, ctx.trace_labels = [], []
        gadget(ctx, x, y)
        want = [(tag, "pp", i, i) for i in range(3)]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            want += [(tag, "r", i, j), (tag, "pp", i, j), (tag, "u", i, j),
                     (tag, "pp", j, i), (tag, "t", i, j), (tag, "zi", i, j),
                     (tag, "zj", i, j)]
        assert ctx.trace_labels == want

    def test_isw_products_draw_at_their_width(self):
        tape = DomainTape()
        ctx = MaskingContext(F16, 3, tape=tape)
        sec_and(ctx, [1, 2, 3], [3, 2, 1], width=2)
        sec_mult(ctx, [1, 2, 3], [3, 2, 1])
        assert tape.schedule == [(2, False)] * 3 + [(4, False)] * 3

    def test_trace_disabled_by_default(self):
        ctx = MaskingContext(F16, 2, seed=1)
        refresh(ctx, bool_share(ctx, 5))
        assert ctx.trace is None

    def test_full_add_output_is_marked_public(self):
        ctx = self._traced(2)
        full_add(ctx, bool_share(ctx, 5))
        assert ("fadd", "pub") in ctx.trace_labels

    def test_label_sequence_is_data_independent(self):
        def labels(v, seed):
            ctx = self._traced(3, seed)
            sec_nonzero(ctx, bool_share(ctx, v))
            return list(ctx.trace_labels)

        base = labels(0, 1)
        for v, seed in ((7, 1), (0, 99), (15, 1234)):
            assert labels(v, seed) == base


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(2, 6), st.integers(0, 2 ** 63),
       st.integers(0, 255))
def test_share_refresh_unshare_roundtrip(w, n, seed, raw):
    field = field_new(w)
    v = raw % field.q
    ctx = MaskingContext(field, n, seed=seed)
    xs = bool_share(ctx, v)
    assert bool_unshare(strong_refresh(ctx, refresh(ctx, xs))) == v


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(2, 5), st.integers(0, 2 ** 63),
       st.integers(1, 255))
def test_b2m_roundtrip_property(w, n, seed, raw):
    field = field_new(w)
    v = 1 + raw % (field.q - 1)
    ctx = MaskingContext(field, n, seed=seed)
    assert mult_unshare(field, b2m(ctx, bool_share(ctx, v))) == v

