"""Gadgets on shared rows.

A shared row is a PackedRow: a list of n share ints with the row length
in its l slot. Coefficient k of share i is byte k of int i (w <= 8), and
the XOR of the n ints is the row.

The three row gadgets (conditional row addition, scaling by a
multiplicatively shared factor, multiply-accumulate by a Boolean-shared
factor) each have two executions of one algorithm. With a probe trace
(ctx.trace is a list) a gadget runs coefficient by coefficient through
the scalar gadgets of mge.masking, emitting a point per wire; that is
the reference. It reads its rows' coefficient columns with _columns
and packs its output columns with _pack, the inverse; both pass the
share values of a one-coefficient row through as they are, which is
how the probing lab's lane vectors cross them. Without one a kernel
runs on the share ints: each ISW pair and refresh step is one XOR or
AND over the whole row, GF products go through a factor's 256-byte
row of the field's FieldSpec.products table, and the randoms come
from one MaskingContext.rand_block, sliced in the order the scalar
path draws them: per coefficient, pair by pair in masking.share_pairs
order. Both executions give the same shares, counters at the gadget
boundary and final tape state. Only the traced path emits probe
points, so the probing checks (acceptance criteria 5 and 6, mge
leakcheck) cover it alone; a kernel's ints and bytes can hold several
shares of one value, and no check probes them.
row_share has one body on both paths; traced, it also emits its draws.

Charging. As everywhere, the context charges the draws and bits of
every block and each gadget counts every op it executes, one per draw
included. Every form lives in mge.costmodel's table; the traced path's
executed count equals the op form, and the kernels charge that form,
read through masking.closed_forms, the one reader of the table at run
time. Bits are charged only by the context, as they are drawn.

Live tails (mge.linalg): a row holds the columns it has left; row_head
reads the shares of its coefficient 0 and row_drop removes it.
"""

from __future__ import annotations

from functools import cache

from .masking import (LengthMismatch, MaskingContext, closed_forms, refresh,
                      sec_and, sec_mult, share_pairs, strong_refresh)


class PackedRow(list):
    """A shared row: n share ints, coefficient k in byte k, length l."""

    __slots__ = ("l",)

    def __init__(self, shares, l: int):
        self.extend(shares)  # a bound call; list.__init__ costs twice as much
        self.l = l


class LengthZero(ValueError):
    """Empty rows are not valid gadget inputs."""


def _check_row(row, n: int) -> int:
    try:
        l = row.l
    except AttributeError:
        raise TypeError(f"a shared row is a PackedRow, not a "
                        f"{type(row).__name__}") from None
    if len(row) != n:
        raise LengthMismatch(f"expected {n} shares, got {len(row)}")
    if l == 0:
        raise LengthZero("row of length 0")
    return l


def unpack_row(row: PackedRow) -> list[list[int]]:
    """The coefficient lists of the n shares."""
    return [list(v.to_bytes(row.l, "little")) for v in row]


def row_head(row: PackedRow) -> list[int]:
    """The shares of coefficient 0."""
    return [v & 0xFF for v in row]


def row_drop(row: PackedRow) -> PackedRow:
    """The row without coefficient 0."""
    return PackedRow([v >> 8 for v in row], row.l - 1)


def _pack(shares, l: int) -> PackedRow:
    # one coefficient sequence per share, each value a byte; a
    # one-coefficient row takes its values as they are, which also
    # passes the probing lab's lane vectors through
    if l == 1:
        return PackedRow([s for s, in shares], 1)
    return PackedRow([int.from_bytes(s, "little") for s in shares], l)


def _columns(row: PackedRow):
    # the inverse of _pack: an iterable of the coefficients' n share
    # values; a one-coefficient row passes its values through as they
    # are, lane vectors included, and a longer one splits by one
    # to_bytes a share
    l = row.l
    if l == 1:
        return (row,)
    return zip(*[v.to_bytes(l, "little") for v in row])


def _mul_table(field, c: int) -> bytes:
    # the bytes.translate table of v -> c*v: row c of the field's products
    return field.products[c << 8:(c + 1) << 8]


def row_share(ctx: MaskingContext, values: list[int]) -> PackedRow:
    """Share a public row coefficient-wise: n-1 draws and n-1 XORs each."""
    l = len(values)
    if l == 0:
        raise LengthZero("row of length 0")
    q = ctx.field.q
    for k, v in enumerate(values):
        if not 0 <= v < q:
            raise ValueError(f"coefficient {k} is {v!r}, outside [0, {q})")
    per = ctx.n - 1
    # per coefficient, shares 0..n-2 in turn
    block = ctx.rand_block(per * l)
    if ctx.trace is not None:
        put, lab = ctx.trace.append, ctx.trace_labels
        for k, acc in enumerate(values):
            for i, r in enumerate(block[k * per:(k + 1) * per]):
                acc ^= r
                put(r) if lab is None else ctx.emit(r, ("rshare", "r", k, i))
            put(acc) if lab is None else ctx.emit(acc, ("rshare", "last", k))
    shares = [int.from_bytes(block[i::per], "little") for i in range(per)]
    ctx.counters.ops += 2 * per * l
    last = int.from_bytes(bytes(values), "little")
    for v in shares:
        last ^= v
    return PackedRow(shares + [last], l)


def row_unshare(row: PackedRow) -> list[int]:
    acc = 0
    for v in row:
        acc ^= v
    return list(acc.to_bytes(row.l, "little"))


def sec_cond_add(ctx: MaskingContext, b: list[int], x: PackedRow,
                 y: PackedRow) -> PackedRow:
    """x + b*y for a shared bit b; costs: its GADGET_SPECS entry.

    b is extended share-locally to a full-width mask, then every
    coefficient goes through AND, XOR into x, and a strong refresh.
    """
    n = ctx.n
    l = _check_row(x, n)
    if _check_row(y, n) != l:
        raise LengthMismatch("row lengths differ")
    if len(b) != n:
        raise LengthMismatch(f"expected {n} bit shares, got {len(b)}")
    w = ctx.field.w
    ones = (1 << w) - 1
    # sign-extend each bit share to w bits; local move, not charged
    ext = [(-(bi & 1)) & ones for bi in b]
    if ctx.trace is None:
        return _cond_add_packed(ctx, ext, x, y, l)
    put, lab = ctx.trace.append, ctx.trace_labels
    put(ext[0]) if lab is None else ctx.emit(ext[0], ("scad", "ext"))
    c = ctx.counters
    cols = []
    for k, (xk, yk) in enumerate(zip(_columns(x), _columns(y))):
        a = sec_and(ctx, yk, ext)
        s = [xi ^ ai for xi, ai in zip(xk, a)]
        c.ops += n
        put(s[0]) if lab is None else ctx.emit(s[0], ("scad", "s", k))
        cols.append(strong_refresh(ctx, s))
    return _pack(zip(*cols), l)


@cache
def _byte_ones(l: int) -> int:
    """The int with byte 1 in each of its l bytes."""
    return int.from_bytes(b"\x01" * l, "little")


def _cond_add_packed(ctx, ext, x, y, l):
    # per coefficient the scalar path draws the P sec_and randoms, then
    # the P strong_refresh randoms: pair p reads every span-th byte from p
    # and from P + p. Both land on shares i and j of the pair, and XOR is
    # associative, so one pass over the pairs applies them together.
    n = ctx.n
    pairs = share_pairs(n)
    npairs = len(pairs)
    span = 2 * npairs
    block = ctx.rand_block(span * l)
    ones = _byte_ones(l)
    e = [v * ones for v in ext]
    s = [xi ^ (yi & ei) for xi, yi, ei in zip(x, y, e)]
    for p, (i, j) in enumerate(pairs):
        r = (int.from_bytes(block[p::span], "little")
             ^ int.from_bytes(block[npairs + p::span], "little"))
        s[i] ^= r
        s[j] ^= r ^ (y[i] & e[j]) ^ (y[j] & e[i])
    ctx.counters.ops += closed_forms("sec_cond_add", n, l, ctx.field.w)[0]
    return PackedRow(s, l)


def sec_scalar_mult(ctx: MaskingContext, p: list[int],
                    x: PackedRow) -> PackedRow:
    """Scale a row by multiplicatively shared p; costs: its GADGET_SPECS
    entry.

    One factor share at a time; every coefficient is refreshed after
    each factor.
    """
    n = ctx.n
    l = _check_row(x, n)
    if len(p) != n:
        raise LengthMismatch(f"expected {n} factor shares, got {len(p)}")
    if ctx.trace is None:
        return _scalar_mult_packed(ctx, p, x, l)
    mul = ctx.field.mul
    c = ctx.counters
    cols = list(_columns(x))  # working copy by coefficient, not charged
    put, lab = ctx.trace.append, ctx.trace_labels
    put(cols[0][0]) if lab is None else ctx.emit(cols[0][0], ("ssm", "cp"))
    for j, pj in enumerate(p):
        for k, col in enumerate(cols):
            col = [mul(pj, v) for v in col]
            c.ops += n
            put(col[0]) if lab is None else ctx.emit(col[0],
                                                     ("ssm", "mul", j, k))
            cols[k] = refresh(ctx, col)
    return _pack(zip(*cols), l)


def _scalar_mult_packed(ctx, p, x, l):
    # per factor share, then per coefficient, refresh draws n-1 randoms
    n = ctx.n
    field = ctx.field
    per = n - 1
    stride = per * l
    block = ctx.rand_block(n * stride)
    v = x
    for j in range(n):
        tab = _mul_table(field, p[j])
        v = [int.from_bytes(vi.to_bytes(l, "little").translate(tab), "little")
             for vi in v]
        base = j * stride
        for i in range(1, n):
            r = int.from_bytes(block[base + i - 1:base + stride:per], "little")
            v[0] ^= r
            v[i] ^= r
    ctx.counters.ops += closed_forms("sec_scalar_mult", n, l, field.w)[0]
    return PackedRow(v, l)


def sec_mult_sub(ctx: MaskingContext, factor: list[int], row: PackedRow,
                 base: PackedRow) -> PackedRow:
    """base + factor*row coefficient-wise; costs: its GADGET_SPECS
    entry."""
    n = ctx.n
    l = _check_row(row, n)
    if _check_row(base, n) != l:
        raise LengthMismatch("row lengths differ")
    if len(factor) != n:
        raise LengthMismatch(f"expected {n} factor shares, got "
                             f"{len(factor)}")
    if ctx.trace is None:
        return _mult_sub_packed(ctx, factor, row, base, l)
    c = ctx.counters
    put, lab = ctx.trace.append, ctx.trace_labels
    cols = []
    for k, (rk, bk) in enumerate(zip(_columns(row), _columns(base))):
        t = sec_mult(ctx, factor, rk)
        z = [bi ^ ti for bi, ti in zip(bk, t)]
        c.ops += n
        put(z[0]) if lab is None else ctx.emit(z[0], ("sms", "z", k))
        cols.append(z)
    return _pack(zip(*cols), l)


def _mult_sub_packed(ctx, factor, row, base, l):
    # sec_mult draws one random per pair, pairs in order, per coefficient
    n = ctx.n
    field = ctx.field
    pairs = share_pairs(n)
    npairs = len(pairs)
    block = ctx.rand_block(npairs * l)
    # one translate per factor share covers every row share: slot b of
    # wide[a], 8l bits wide, is factor share a times row share b
    cat = b"".join([v.to_bytes(l, "little") for v in row])
    wide = [int.from_bytes(cat.translate(_mul_table(field, f)), "little")
            for f in factor]
    bits = 8 * l
    lane = (1 << bits) - 1
    z = [((wide[i] >> (bits * i)) & lane) ^ base[i] for i in range(n)]
    for p, (i, j) in enumerate(pairs):
        r = int.from_bytes(block[p::npairs], "little")
        z[i] ^= r
        # r plus factor share i times row share j, then plus j times i:
        # r is added first, as in masking._isw
        z[j] ^= ((r ^ ((wide[i] >> (bits * j)) & lane))
                 ^ ((wide[j] >> (bits * i)) & lane))
    ctx.counters.ops += closed_forms("sec_mult_sub", n, l, field.w)[0]
    return PackedRow(z, l)
