"""Gadgets on shared rows.

A shared row has two forms. A list row (SharedRow) is share-major: n
equal-length coefficient lists whose elementwise XOR is the row. A
PackedRow is a list of n share ints with the row length in its l slot:
coefficient k of share i is byte k of int i (w <= 8).

The three row gadgets (conditional row addition, scaling by a
multiplicatively shared factor, multiply-accumulate by a Boolean-shared
factor) each have two executions of one algorithm. With a probe trace
(ctx.trace is a list) a gadget runs coefficient by coefficient on list
rows through the scalar gadgets of mge.masking, emitting a point per
wire; that is the reference. Without one a kernel runs on share ints:
each ISW pair and refresh step is one XOR or AND over the whole row,
GF products go through a 256-byte multiply table per factor, and the
randoms come from one SeededTape.draw_block, sliced in the order the
scalar path draws them. A PackedRow comes back packed; a list row is
packed, run through the same kernel and unpacked. Both executions give
the same shares, counters at the gadget boundary and final tape state.

Live tails (mge.linalg): a row holds the columns it has left; row_head
reads the shares of its coefficient 0 and row_drop removes it.
"""

from __future__ import annotations

from .masking import MaskingContext, refresh, sec_and, sec_mult, strong_refresh

SharedRow = list


class PackedRow(list):
    """n share ints plus the row length l; untraced gadgets only."""

    __slots__ = ("l",)


def _packed_row(shares, l: int) -> PackedRow:
    row = PackedRow(shares)
    row.l = l
    return row


class LengthMismatch(ValueError):
    """Rows or sharings whose share counts or lengths disagree."""


class LengthZero(ValueError):
    """Empty rows are not valid gadget inputs."""


def _check_row(row, n: int) -> int:
    if len(row) != n:
        raise LengthMismatch(f"expected {n} shares, got {len(row)}")
    if isinstance(row, PackedRow):
        l = row.l
    else:
        l = len(row[0])
        for s in row:
            if len(s) != l:
                raise LengthMismatch("share vectors differ in length")
    if l == 0:
        raise LengthZero("row of length 0")
    return l


def pack_row(row: SharedRow) -> PackedRow:
    """The packed form of a list row."""
    return _packed_row([int.from_bytes(bytes(s), "little") for s in row],
                       len(row[0]))


def unpack_row(row) -> SharedRow:
    """The list form of a row; a list row is returned as it is."""
    if isinstance(row, PackedRow):
        return [list(v.to_bytes(row.l, "little")) for v in row]
    return row


def row_head(row) -> list[int]:
    """The shares of coefficient 0."""
    if isinstance(row, PackedRow):
        return [v & 0xFF for v in row]
    return [s[0] for s in row]


def row_drop(row):
    """The row without coefficient 0, in the same form."""
    if isinstance(row, PackedRow):
        return _packed_row([v >> 8 for v in row], row.l - 1)
    return [s[1:] for s in row]


def _run_packed(kernel, ctx, arg, rows, l):
    # the list API wraps the int kernel; the result takes rows[0]'s form
    ints = [r if isinstance(r, PackedRow) else pack_row(r) for r in rows]
    out = _packed_row(kernel(ctx, arg, *ints, l), l)
    return out if isinstance(rows[0], PackedRow) else unpack_row(out)


# (w, poly, c) -> bytes.translate table of v -> c*v, built on first use
_MUL_TABLES: dict = {}


def _mul_table(field, c: int) -> bytes:
    key = (field.w, field.poly, c)
    t = _MUL_TABLES.get(key)
    if t is None:
        mul = field.mul
        # bytes outside the field never occur in a valid row; map them to 0
        t = _MUL_TABLES[key] = bytes([mul(c, v) for v in range(field.q)]
                                     + [0] * (256 - field.q))
    return t


# Closed forms of the row gadgets for n shares, row length l and w-bit
# coefficients: the packed paths charge them, and the scalar paths'
# executed counts equal them; mge.costmodel tabulates them.


def cond_add_ops(n: int, l: int) -> int:
    return (5 * n * n - 3 * n) * l


def cond_add_bits(n: int, l: int, w: int) -> int:
    return (n * n - n) * l * w


# scaling charges per coefficient what conditional addition does
scalar_mult_ops, scalar_mult_bits = cond_add_ops, cond_add_bits


def mult_sub_ops(n: int, l: int) -> int:
    return (7 * n * n - 3 * n) // 2 * l


def mult_sub_bits(n: int, l: int, w: int) -> int:
    return (n * n - n) // 2 * l * w


def row_share(ctx: MaskingContext, values: list[int]) -> SharedRow:
    """Share a public row coefficient-wise (share-major result)."""
    if ctx.trace is None:
        return unpack_row(row_share_packed(ctx, values))
    if len(values) == 0:
        raise LengthZero("row of length 0")
    n = ctx.n
    row = [[0] * len(values) for _ in range(n)]
    for k, v in enumerate(values):
        acc = v
        for i in range(n - 1):
            r = ctx.rand()
            row[i][k] = r
            acc ^= r
            ctx.emit(r, ("rshare", "r", k, i))
        row[n - 1][k] = acc
        ctx.emit(acc, ("rshare", "last", k))
    ctx.counters.ops += (n - 1) * len(values)
    return row


def row_share_packed(ctx: MaskingContext, values: list[int]) -> PackedRow:
    """row_share into a PackedRow: the same draws, shares and charges."""
    l = len(values)
    if l == 0:
        raise LengthZero("row of length 0")
    per = ctx.n - 1
    w = ctx.field.w
    # per coefficient the scalar path draws shares 0..n-2 in turn
    block = ctx.rng.draw_block(per * l, w)
    shares = [int.from_bytes(block[i::per], "little") for i in range(per)]
    last = int.from_bytes(bytes(values), "little")
    for v in shares:
        last ^= v
    c = ctx.counters
    c.ops += 2 * per * l
    c.rng_draws += per * l
    c.rng_bits += per * l * w
    return _packed_row(shares + [last], l)


def row_unshare(row: SharedRow) -> list[int]:
    out = list(row[0])
    for s in row[1:]:
        for k, v in enumerate(s):
            out[k] ^= v
    return out


def sec_cond_add(ctx: MaskingContext, b: list[int], x: SharedRow,
                 y: SharedRow) -> SharedRow:
    """x + b*y for a shared bit b: ops (5n^2-3n)l, bits (n^2-n)lw.

    b is extended share-locally to a full-width mask, then every
    coefficient goes through AND, XOR into x, and a strong refresh.
    """
    n = ctx.n
    l = _check_row(x, n)
    if _check_row(y, n) != l:
        raise LengthMismatch("row lengths differ")
    w = ctx.field.w
    ones = (1 << w) - 1
    # sign-extend each bit share to w bits; local move, not charged
    ext = [(-(bi & 1)) & ones for bi in b]
    if ctx.trace is None:
        return _run_packed(_cond_add_packed, ctx, ext, (x, y), l)
    ctx.emit(ext[0], ("scad", "ext"))
    c = ctx.counters
    cols = []
    for k in range(l):
        a = sec_and(ctx, [s[k] for s in y], ext)
        s = [x[i][k] ^ a[i] for i in range(n)]
        c.ops += n
        ctx.emit(s[0], ("scad", "s", k))
        cols.append(strong_refresh(ctx, s))
    return [list(s) for s in zip(*cols)]


def _cond_add_packed(ctx, ext, x, y, l):
    # per coefficient the scalar path draws the P sec_and randoms, then
    # the P strong_refresh randoms: pair p reads every span-th byte from p
    # and from P + p. Both land on shares i and j of the pair, and XOR is
    # associative, so one pass over the pairs applies them together.
    n = ctx.n
    w = ctx.field.w
    pairs = (n * n - n) // 2
    span = 2 * pairs
    size = span * l
    block = ctx.rng.draw_block(size, w)
    lanes = int.from_bytes(b"\x01" * l, "little")
    e = [v * lanes for v in ext]
    s = [xi ^ (yi & ei) for xi, yi, ei in zip(x, y, e)]
    p = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            r = (int.from_bytes(block[p::span], "little")
                 ^ int.from_bytes(block[pairs + p::span], "little"))
            s[i] ^= r
            s[j] ^= r ^ (y[i] & e[j]) ^ (y[j] & e[i])
            p += 1
    c = ctx.counters
    c.ops += cond_add_ops(n, l)
    c.rng_draws += size
    c.rng_bits += cond_add_bits(n, l, w)
    return s


def sec_scalar_mult(ctx: MaskingContext, p: list[int],
                    x: SharedRow) -> SharedRow:
    """Scale a row by multiplicatively shared p: ops (5n^2-3n)l.

    One factor share at a time; every coefficient is refreshed after
    each factor so randomness totals (n^2-n)lw bits.
    """
    n = ctx.n
    l = _check_row(x, n)
    if len(p) != n:
        raise LengthMismatch(f"expected {n} factor shares, got {len(p)}")
    if ctx.trace is None:
        return _run_packed(_scalar_mult_packed, ctx, p, (x,), l)
    mul = ctx.field.mul
    c = ctx.counters
    y = [list(s) for s in x]  # working copy, not charged
    ctx.emit(y[0][0], ("ssm", "cp"))
    for j, pj in enumerate(p):
        for k in range(l):
            col = [mul(pj, s[k]) for s in y]
            c.ops += n
            ctx.emit(col[0], ("ssm", "mul", j, k))
            for s, v in zip(y, refresh(ctx, col)):
                s[k] = v
    return y


def _scalar_mult_packed(ctx, p, x, l):
    # per factor share, then per coefficient, refresh draws n-1 randoms
    n = ctx.n
    field = ctx.field
    w = field.w
    per = n - 1
    stride = per * l
    block = ctx.rng.draw_block(n * stride, w)
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
    c = ctx.counters
    c.ops += scalar_mult_ops(n, l)
    c.rng_draws += n * stride
    c.rng_bits += scalar_mult_bits(n, l, w)
    return v


def sec_mult_sub(ctx: MaskingContext, factor: list[int], row: SharedRow,
                 base: SharedRow) -> SharedRow:
    """base + factor*row coefficient-wise: ops (7n^2-3n)l/2."""
    n = ctx.n
    l = _check_row(row, n)
    if _check_row(base, n) != l:
        raise LengthMismatch("row lengths differ")
    if ctx.trace is None:
        return _run_packed(_mult_sub_packed, ctx, factor, (row, base), l)
    c = ctx.counters
    cols = []
    for k in range(l):
        t = sec_mult(ctx, factor, [s[k] for s in row])
        cols.append([base[i][k] ^ t[i] for i in range(n)])
        c.ops += n
        ctx.emit(cols[k][0], ("sms", "z", k))
    return [list(s) for s in zip(*cols)]


def _mult_sub_packed(ctx, factor, row, base, l):
    # sec_mult draws one random per pair, pairs in order, per coefficient
    n = ctx.n
    field = ctx.field
    w = field.w
    pairs = (n * n - n) // 2
    block = ctx.rng.draw_block(pairs * l, w)
    # one translate per factor share covers every row share: slot b of
    # wide[a], 8l bits wide, is factor share a times row share b
    cat = b"".join([v.to_bytes(l, "little") for v in row])
    wide = [int.from_bytes(cat.translate(_mul_table(field, f)), "little")
            for f in factor]
    bits = 8 * l
    lane = (1 << bits) - 1
    z = [((wide[i] >> (bits * i)) & lane) ^ base[i] for i in range(n)]
    p = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            r = int.from_bytes(block[p::pairs], "little")
            z[i] ^= r
            # factor share i times row share j, plus j times i
            z[j] ^= r ^ (((wide[i] >> (bits * j))
                          ^ (wide[j] >> (bits * i))) & lane)
            p += 1
    c = ctx.counters
    c.ops += mult_sub_ops(n, l)
    c.rng_draws += pairs * l
    c.rng_bits += mult_sub_bits(n, l, w)
    return z
