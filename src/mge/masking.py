"""Sharings, cost counters, the masking context and the scalar gadgets.

Representation. A Boolean sharing of x is a list of n field elements
whose XOR is x. A multiplicative sharing is a list of n nonzero
elements whose field product is x. Shared rows (in mge.rowops) are
PackedRows: n share ints with one coefficient per byte. A gadget given
a sharing of other than n shares raises LengthMismatch before it draws
or counts anything.

Tapes. The tapes live in mge.tape and are re-exported here. A
SeededTape computes its SplitMix64 outputs ahead of use, in one wide
int pass per refill that holds one state per 64-bit lane and runs each
multiply on the even and the odd lanes apart; every draw is 1..8 bits
wide. Its _state is the state that one scalar step per draw would have
left, so equal _state means equal draws from there on.

Cost accounting. Counters charge abstract unit operations the way the
closed forms in mge.costmodel count them: field ops, w-bit logical ops,
charged share copies, and one op per uniform draw. The MaskingContext
charges draws and bits as it makes them: rand and rand_nonzero for one
value, rand_block for a block. Every gadget counts every op it
executes, its draws included (b2m's docstring says which of its draws
are not ops), but two charge closed forms, read through closed_forms,
the one run-time reader of mge.costmodel's table: the packed row
kernels of mge.rowops add their op forms, and sec_nonzero, which runs
on the width padded to a power of two, sets ops and bits on return to
their values on entry plus its forms. After any single gadget call the
(ops, rng_bits) deltas equal the closed forms exactly. Inside a
sec_nonzero call the counters hold what its fold has executed, and the
bits it charges can be fewer than it draws, so counters are meant to
be read at gadget boundaries.

Pair order. The pairwise gadgets (strong_refresh, the ISW products,
sec_nonzero's fold and the row kernels) draw one random per share pair,
in the order share_pairs(n) lists them.

Probing hooks. When ctx.trace is a list, gadgets record one probe value
per unit operation that produces a share-derived wire (vector-level
copies collapse to one point carrying share 0, since every copied wire
duplicates an input wire already visible upstream). Each value goes
through the trace's append, one call per wire, never extend, so a list
that overrides append sees every value; a gadget binds that append in
its traced branch only, so an untraced call pays nothing for it. When
ctx.trace_labels is also a list, a point is recorded by
MaskingContext.emit instead, which appends the value and a stable label
tuple; unlabelled runs build no labels. Point sequences are
data-independent, so one labelled run fixes point identities for a
whole campaign. Labels whose second entry starts with "pub" mark
sanctioned public outputs. Only traced executions emit,
so the probing checks (acceptance criteria 5 and 6, mge leakcheck)
cover the traced path alone: the fixed-vs-random campaigns run it on
scalar ints, the exhaustive check on mge.probelab's lane vectors, one
lane per run. The untraced fold of sec_nonzero holds all n shares in
one int, and no check probes it.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from operator import and_

from .gf import FieldSpec
from .tape import DEFAULT_SEED, SeededTape
from .tape import DomainTape, ReplayTape  # noqa: F401  (re-exported)


class ZeroSharing(ValueError):
    """A gadget defined on nonzero values got a sharing of zero."""


class LengthMismatch(ValueError):
    """Rows or sharings whose share counts or lengths disagree."""


def _wrong_count(n: int, *sharings) -> LengthMismatch:
    # every gadget checks its sharings before it draws or counts
    got = " and ".join(str(len(x)) for x in sharings)
    return LengthMismatch(f"expected {n} shares, got {got}")


class CostCounters:
    """Monotone totals: unit ops, RNG draws, RNG bits."""

    __slots__ = ("ops", "rng_draws", "rng_bits")

    def __init__(self):
        self.ops = 0
        self.rng_draws = 0
        self.rng_bits = 0

    def snapshot(self) -> tuple[int, int, int]:
        return (self.ops, self.rng_draws, self.rng_bits)

    def __repr__(self):
        return (
            f"CostCounters(ops={self.ops}, rng_draws={self.rng_draws},"
            f" rng_bits={self.rng_bits})"
        )


class MaskingContext:
    """Field, share count, tape, counters and the optional probe trace.

    Single-owner: gadgets mutate the tape and counters in place, so a
    context must not be shared between concurrent computations. A seed
    builds a SeededTape; giving a tape as well is a ValueError.
    """

    __slots__ = ("field", "n", "rng", "counters", "trace", "trace_labels")

    def __init__(self, field: FieldSpec, n: int, seed: int | None = None,
                 tape=None):
        check_share_count(n)
        if seed is not None and tape is not None:
            raise ValueError("give a seed or a tape, not both")
        self.field = field
        self.n = n
        self.rng = tape if tape is not None else SeededTape(
            DEFAULT_SEED if seed is None else seed)
        self.counters = CostCounters()
        self.trace = None
        self.trace_labels = None

    def rand(self, width: int | None = None) -> int:
        """Uniform draw: one draw and width bits are charged."""
        w = self.field.w if width is None else width
        v = self.rng.draw(w)
        c = self.counters
        c.rng_draws += 1
        c.rng_bits += w
        return v

    def rand_block(self, count: int, width: int | None = None) -> bytes:
        """The next count draws, one byte each: count draws and
        count*width bits are charged."""
        w = self.field.w if width is None else width
        block = self.rng.draw_block(count, w)
        c = self.counters
        c.rng_draws += count
        c.rng_bits += count * w
        return block

    def rand_nonzero(self) -> int:
        """Uniform nonzero field element: one draw and w bits are charged."""
        w = self.field.w
        v = self.rng.draw_nonzero(w)
        c = self.counters
        c.rng_draws += 1
        c.rng_bits += w
        return v

    def emit(self, value: int, label) -> None:
        # a labelled point; unlabelled runs append to ctx.trace directly
        self.trace.append(value)
        if self.trace_labels is not None:
            self.trace_labels.append(label)


def check_share_count(n) -> None:
    """Raise ValueError unless n is a share count a context accepts."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need at least 2 shares, got {n!r}")


# ---------------------------------------------------------------- sharing


@cache
def share_pairs(n: int) -> tuple:
    """The share pairs (i, j), i < j, in pair-random draw order."""
    return tuple(combinations(range(n), 2))


def bool_share(ctx: MaskingContext, x: int) -> list[int]:
    """Split x into n XOR shares: n-1 draws, last share closes the sum."""
    if not 0 <= x < ctx.field.q:
        raise ValueError(f"value {x!r} outside [0, {ctx.field.q})")
    n = ctx.n
    s = [0] * n
    acc = x
    tr = ctx.trace
    if tr is not None:
        put, lab = tr.append, ctx.trace_labels
    for i in range(n - 1):
        r = ctx.rand()
        s[i] = r
        acc ^= r
        if tr is not None:
            put(r) if lab is None else ctx.emit(r, ("bshare", "r", i))
    s[n - 1] = acc
    ctx.counters.ops += 2 * (n - 1)  # a draw and an XOR per share
    if tr is not None:
        put(acc) if lab is None else ctx.emit(acc, ("bshare", "last"))
    return s


def bool_unshare(shares: list[int]) -> int:
    """Recombine; public operation, never called on masked-path data."""
    acc = 0
    for v in shares:
        acc ^= v
    return acc


def mult_unshare(field: FieldSpec, shares: list[int]) -> int:
    acc = 1
    for v in shares:
        acc = field.mul(acc, v)
    return acc


# ---------------------------------------------------------------- refresh


def refresh(ctx: MaskingContext, x: list[int]) -> list[int]:
    """Linear refresh against share 0; costs: its costmodel.GADGET_SPECS
    entry."""
    c = ctx.counters
    n = ctx.n
    if len(x) != n:
        raise _wrong_count(n, x)
    y = list(x)
    c.ops += n  # output copy is charged by the closed form
    tr = ctx.trace
    if tr is not None:
        put, lab = tr.append, ctx.trace_labels
        put(y[0]) if lab is None else ctx.emit(y[0], ("refresh", "cp"))
    for i in range(1, n):
        r = ctx.rand()
        y[0] ^= r
        y[i] ^= r
        c.ops += 3
        if tr is not None:
            put(r) if lab is None else ctx.emit(r, ("refresh", "r", i))
            put(y[0]) if lab is None else ctx.emit(y[0],
                                                   ("refresh", "y0", i))
            put(y[i]) if lab is None else ctx.emit(y[i],
                                                   ("refresh", "yi", i))
    return y


def strong_refresh(ctx: MaskingContext, x: list[int],
                   width: int | None = None) -> list[int]:
    """Pairwise refresh: one width-bit random per share pair, in pair
    order; 3 ops per pair (the draw and two XORs).

    Untraced, the pair randoms come from one block. Traced, each is one
    draw made as its pair is reached, which costs less than a block on
    the short pair counts of probing runs.
    """
    n = ctx.n
    if len(x) != n:
        raise _wrong_count(n, x)
    y = list(x)  # copy not charged
    pairs = share_pairs(n)
    tr = ctx.trace
    if tr is None:
        rs = ctx.rand_block(len(pairs), width)
    else:
        rs = None
        put, lab = tr.append, ctx.trace_labels
        put(y[0]) if lab is None else ctx.emit(y[0], ("sref", "cp"))
    for p, (i, j) in enumerate(pairs):
        r = ctx.rand(width) if rs is None else rs[p]
        y[i] ^= r
        y[j] ^= r
        if tr is not None:
            put(r) if lab is None else ctx.emit(r, ("sref", "r", i, j))
            put(y[i]) if lab is None else ctx.emit(y[i],
                                                   ("sref", "yi", i, j))
            put(y[j]) if lab is None else ctx.emit(y[j],
                                                   ("sref", "yj", i, j))
    ctx.counters.ops += 3 * len(pairs)
    return y


def full_add(ctx: MaskingContext, x: list[int]) -> int:
    """Strong refresh, then sum all shares into one public value."""
    y = strong_refresh(ctx, x)  # checks the share count first
    s = y[0]
    for i in range(1, ctx.n):
        s ^= y[i]
    ctx.counters.ops += ctx.n - 1
    tr = ctx.trace
    if tr is not None:
        lab = ctx.trace_labels
        tr.append(s) if lab is None else ctx.emit(s, ("fadd", "pub"))
    return s


# ---------------------------------------------------------------- products


def _isw(ctx: MaskingContext, x: list[int], y: list[int], prod, tag: str,
         width: int | None) -> list[int]:
    """ISW cross products (Ishai, Sahai & Wagner, CRYPTO 2003).

    prod is the share-wise product, tag the label prefix, width the
    draw width (None: the field width). One draw per share pair; costs:
    sec_mult's costmodel.GADGET_SPECS entry.
    """
    n = ctx.n
    if len(x) != n or len(y) != n:
        raise _wrong_count(n, x, y)
    c = ctx.counters
    tr = ctx.trace
    if tr is not None:
        put, lab = tr.append, ctx.trace_labels
    z = [0] * n
    for i in range(n):
        z[i] = prod(x[i], y[i])
        if tr is not None:
            put(z[i]) if lab is None else ctx.emit(z[i], (tag, "pp", i, i))
    c.ops += n
    for i, j in share_pairs(n):
        r = ctx.rand(width)
        p = prod(x[i], y[j])
        u = r ^ p
        q = prod(x[j], y[i])
        t = u ^ q  # ordering matters: (r + x_i y_j) + x_j y_i
        z[i] ^= r
        z[j] ^= t
        c.ops += 7  # the draw, two products and four XORs
        if tr is not None:
            put(r) if lab is None else ctx.emit(r, (tag, "r", i, j))
            put(p) if lab is None else ctx.emit(p, (tag, "pp", i, j))
            put(u) if lab is None else ctx.emit(u, (tag, "u", i, j))
            put(q) if lab is None else ctx.emit(q, (tag, "pp", j, i))
            put(t) if lab is None else ctx.emit(t, (tag, "t", i, j))
            put(z[i]) if lab is None else ctx.emit(z[i], (tag, "zi", i, j))
            put(z[j]) if lab is None else ctx.emit(z[j], (tag, "zj", i, j))
    return z


def sec_mult(ctx: MaskingContext, x: list[int], y: list[int]) -> list[int]:
    """Field multiplication; costs: its costmodel.GADGET_SPECS entry."""
    return _isw(ctx, x, y, ctx.field.mul, "smul", None)


def sec_and(ctx: MaskingContext, x: list[int], y: list[int],
            width: int | None = None) -> list[int]:
    """Bitwise AND under the same schedule and charges as sec_mult."""
    return _isw(ctx, x, y, and_, "sand", width)


def sec_not(ctx: MaskingContext, x: list[int]) -> list[int]:
    """Complement of a shared bit: flip the low bit of share 0."""
    if len(x) != ctx.n:
        raise _wrong_count(ctx.n, x)
    y = list(x)
    y[0] ^= 1
    ctx.counters.ops += 1
    tr = ctx.trace
    if tr is not None:
        lab = ctx.trace_labels
        tr.append(y[0]) if lab is None else ctx.emit(y[0], ("snot", "z0"))
    return y


def sec_or(ctx: MaskingContext, x: list[int], y: list[int],
           width: int | None = None) -> list[int]:
    """De Morgan OR on width-bit slices; costs: its costmodel.GADGET_SPECS
    entry."""
    n = ctx.n
    if len(x) != n or len(y) != n:
        raise _wrong_count(n, x, y)
    w = ctx.field.w if width is None else width
    ones = (1 << w) - 1
    c = ctx.counters
    tr = ctx.trace
    if tr is not None:
        put, lab = tr.append, ctx.trace_labels
    na = list(x)
    na[0] ^= ones
    c.ops += n  # copy-with-complement, charged per share
    if tr is not None:
        put(na[0]) if lab is None else ctx.emit(na[0], ("sor", "na"))
    nb = list(y)
    nb[0] ^= ones
    c.ops += n
    if tr is not None:
        put(nb[0]) if lab is None else ctx.emit(nb[0], ("sor", "nb"))
    z = sec_and(ctx, na, nb, width=w)
    z[0] ^= ones
    c.ops += 1
    if tr is not None:
        put(z[0]) if lab is None else ctx.emit(z[0], ("sor", "z0"))
    return z


# ------------------------------------------------------------- predicates


def sec_nonzero(ctx: MaskingContext, x: list[int]) -> list[int]:
    """Shared bit (x != 0) by OR-folding halves of the padded width.

    Both executions run the fold of the plan for (n, w) on the width
    padded to the next power of two: with a probe trace each level runs
    strong_refresh and sec_or, the reference; without one the same fold
    runs inline on the shares packed into one int. On return ops and
    bits are their values on entry plus the closed forms.
    """
    n = ctx.n
    if len(x) != n:
        raise _wrong_count(n, x)
    ops_form, bits_form, levels, spreads, shifts = _nonzero_plan(
        n, ctx.field.w)
    c = ctx.counters
    ops, bits = c.ops, c.rng_bits
    if ctx.trace is None:
        t = _nonzero_packed(ctx, int.from_bytes(bytes(x), "little"),
                            levels, spreads, shifts, n)
    else:
        put, lab = ctx.trace.append, ctx.trace_labels
        t = list(x)
        put(t[0]) if lab is None else ctx.emit(t[0], ("snz", "cp"))
        for half, _, ones in levels:
            hi = [(v >> half) & ones for v in t]
            lo = [v & ones for v in t]
            put(hi[0]) if lab is None else ctx.emit(hi[0],
                                                    ("snz", "hi", 2 * half))
            put(lo[0]) if lab is None else ctx.emit(lo[0],
                                                    ("snz", "lo", 2 * half))
            hi = strong_refresh(ctx, hi, width=half)
            t = sec_or(ctx, hi, lo, width=half)
        put(t[0]) if lab is None else ctx.emit(t[0], ("snz", "bit"))
    c.ops = ops + ops_form
    c.rng_bits = bits + bits_form
    return t


@cache
def closed_forms(gadget: str, n: int, size: int | None = None,
                 w: int | None = None) -> tuple[int, int]:
    """(t_cost, r_cost) from mge.costmodel's table, which imports this
    module for its callables and so is imported here on first use."""
    from .costmodel import r_cost, t_cost
    return t_cost(gadget, n, size, w=w), r_cost(gadget, n, size, w=w)


# (n, w) -> the fold of sec_nonzero: its two closed forms; per fold level
# the half width, its mask in every share's byte and in share 0's; per
# share pair (i, j) the int with bytes i and j set to 1; the shifts 8d
# that line share i + d up with share i, d = 1..n-1
@cache
def _nonzero_plan(n, w):
    every = int.from_bytes(b"\x01" * n, "little")
    levels = []
    half = 1 << (w - 1).bit_length() >> 1  # of w padded to a power of 2
    while half:
        ones = (1 << half) - 1
        levels.append((half, ones * every, ones))
        half >>= 1
    spreads = tuple((1 << 8 * i) | (1 << 8 * j) for i, j in share_pairs(n))
    return (*closed_forms("sec_nonzero", n, w=w), tuple(levels), spreads,
            tuple(range(8, 8 * n, 8)))


def _nonzero_packed(ctx, t, levels, spreads, shifts, n):
    # share i of every wire is byte i of one int. Per level the scalar
    # path draws the strong_refresh randoms, then those of sec_or's
    # sec_and, one per pair each, all half bits wide; r * spread XORs a
    # pair's random into both of its shares.
    pairs = len(spreads)
    for half, mask, ones in levels:
        rs = ctx.rand_block(2 * pairs, half)
        hi = (t >> half) & mask
        lo = t & mask
        for r, s in zip(rs, spreads):
            hi ^= r * s
        # De Morgan: complement share 0 of both inputs and of the AND
        hi ^= ones
        lo ^= ones
        t = hi & lo
        for r, s in zip(rs[pairs:], spreads):
            t ^= r * s
        # ISW cross terms: share i + d takes hi_i lo_(i+d) ^ hi_(i+d) lo_i
        for d in shifts:
            t ^= ((hi << d) & lo) ^ (hi & (lo << d))
        t ^= ones
    return list(t.to_bytes(n, "little"))


# ------------------------------------------------------------ conversions


def b2m(ctx: MaskingContext, x: list[int]) -> list[int]:
    """Boolean to multiplicative sharing. Input must encode a nonzero.

    Costs: its costmodel.GADGET_SPECS entry. Like every gadget it
    counts an op per uniform draw, except for its n-1 nonzero draws of
    multiplicative shares: those are randomness, not ops.
    A sharing of zero raises ZeroSharing after its draws and ops: share
    0 of the result is x times every m_j, zero exactly when x is, so the
    input is never recombined.
    """
    n = ctx.n
    if len(x) != n:
        raise _wrong_count(n, x)
    field = ctx.field
    mul = field.mul
    c = ctx.counters
    tr = ctx.trace
    xs = list(x)
    m = [0] * n
    m1 = xs[0]
    c.ops += 1  # seed the accumulator from share 0
    if tr is not None:
        put, lab = tr.append, ctx.trace_labels
        put(m1) if lab is None else ctx.emit(m1, ("b2m", "cp"))
    for j in range(1, n):
        mj = ctx.rand_nonzero()
        if tr is not None:
            put(mj) if lab is None else ctx.emit(mj, ("b2m", "mj", j))
        m1 = mul(m1, mj)
        c.ops += 1
        if tr is not None:
            put(m1) if lab is None else ctx.emit(m1, ("b2m", "acc", j))
        for k in range(1, n - j):
            r = ctx.rand()
            p = mul(mj, xs[k])
            t = p ^ r
            m1 ^= t
            xs[k] = r
            c.ops += 5  # the draw, a product, two XORs and the copy
            if tr is not None:
                put(r) if lab is None else ctx.emit(r, ("b2m", "r", j, k))
                put(p) if lab is None else ctx.emit(p, ("b2m", "xm", j, k))
                put(t) if lab is None else ctx.emit(t, ("b2m", "xr", j, k))
                put(m1) if lab is None else ctx.emit(m1, ("b2m", "m1", j, k))
                put(r) if lab is None else ctx.emit(r, ("b2m", "cpr", j, k))
        t = mul(mj, xs[n - j])
        m1 ^= t
        c.ops += 2
        if tr is not None:
            put(t) if lab is None else ctx.emit(t, ("b2m", "xt", j))
            put(m1) if lab is None else ctx.emit(m1, ("b2m", "mt", j))
        m[j] = field.inv(mj)
        c.ops += 1
        if tr is not None:
            put(m[j]) if lab is None else ctx.emit(m[j], ("b2m", "inv", j))
    if m1 == 0:
        raise ZeroSharing("b2m input encodes zero")
    m[0] = m1
    return m


def b2minv(ctx: MaskingContext, x: list[int]) -> list[int]:
    """Multiplicative sharing of the inverse: b2m then invert each share."""
    m = b2m(ctx, x)  # checks the share count first
    inv = ctx.field.inv
    c = ctx.counters
    tr = ctx.trace
    if tr is not None:
        put, lab = tr.append, ctx.trace_labels
    for i in range(ctx.n):
        m[i] = inv(m[i])
        c.ops += 1
        if tr is not None:
            put(m[i]) if lab is None else ctx.emit(m[i], ("b2mi", "pinv", i))
    return m
