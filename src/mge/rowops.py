"""Gadgets on shared rows.

A SharedRow is share-major: a list of n equal-length coefficient lists
whose elementwise XOR is the encoded row. The three gadgets here are
the row-level building blocks of the elimination pipeline: conditional
row addition, scaling by a multiplicatively shared factor, and
multiply-accumulate by a Boolean-shared factor.

Each row gadget has two executions of one algorithm. With a probe trace
(ctx.trace is a list) it runs coefficient by coefficient through the
scalar gadgets of mge.masking, emitting a point per wire; that is the
reference. Without one it runs packed: every share row becomes one int
holding a coefficient per byte (w <= 8), so each ISW pair and refresh
step is one XOR or AND over the whole row, GF products go through a
256-byte multiply table per factor, and the randoms come from one
SeededTape.draw_block, sliced in the order the scalar path draws them.
Both give the same output shares, the same counters at the gadget
boundary and the same final tape state.
"""

from __future__ import annotations

from .masking import MaskingContext, refresh, sec_and, sec_mult, strong_refresh

SharedRow = list


class LengthMismatch(ValueError):
    """Rows or sharings whose share counts or lengths disagree."""


class LengthZero(ValueError):
    """Empty rows are not valid gadget inputs."""


def _check_row(row, n: int) -> int:
    if len(row) != n:
        raise LengthMismatch(f"expected {n} shares, got {len(row)}")
    l = len(row[0])
    if l == 0:
        raise LengthZero("row of length 0")
    for s in row:
        if len(s) != l:
            raise LengthMismatch("share vectors differ in length")
    return l


def _packed(row) -> list[int]:
    return [int.from_bytes(bytes(s), "little") for s in row]


def _unpacked(ints, l: int) -> SharedRow:
    return [list(v.to_bytes(l, "little")) for v in ints]


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


def scalar_mult_ops(n: int, l: int) -> int:
    return (5 * n * n - 3 * n) * l


def scalar_mult_bits(n: int, l: int, w: int) -> int:
    return (n * n - n) * l * w


def mult_sub_ops(n: int, l: int) -> int:
    return (7 * n * n - 3 * n) // 2 * l


def mult_sub_bits(n: int, l: int, w: int) -> int:
    return (n * n - n) // 2 * l * w


def row_share(ctx: MaskingContext, values: list[int]) -> SharedRow:
    """Share a public row coefficient-wise (share-major result)."""
    if len(values) == 0:
        raise LengthZero("row of length 0")
    n = ctx.n
    row = [[0] * len(values) for _ in range(n)]
    tr = ctx.trace
    for k, v in enumerate(values):
        acc = v
        for i in range(n - 1):
            r = ctx.rand()
            row[i][k] = r
            acc ^= r
            if tr is not None:
                ctx.emit(r, ("rshare", "r", k, i))
        row[n - 1][k] = acc
        if tr is not None:
            ctx.emit(acc, ("rshare", "last", k))
    ctx.counters.ops += (n - 1) * len(values)
    return row


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
        return _cond_add_packed(ctx, ext, x, y, l)
    ctx.emit(ext[0], ("scad", "ext"))
    out = [[0] * l for _ in range(n)]
    c = ctx.counters
    for k in range(l):
        yk = [y[i][k] for i in range(n)]
        a = sec_and(ctx, yk, ext)
        s = [x[i][k] ^ a[i] for i in range(n)]
        c.ops += n
        ctx.emit(s[0], ("scad", "s", k))
        s = strong_refresh(ctx, s)
        for i in range(n):
            out[i][k] = s[i]
    return out


def _cond_add_packed(ctx, ext, x, y, l):
    # per coefficient the scalar path draws the P sec_and randoms, then
    # the P strong_refresh randoms: pair p reads every span-th byte
    n = ctx.n
    w = ctx.field.w
    pairs = (n * n - n) // 2
    span = 2 * pairs
    block = ctx.rng.draw_block(span * l, w)
    lanes = int.from_bytes(b"\x01" * l, "little")
    e = [v * lanes for v in ext]
    ys = _packed(y)
    z = [ys[i] & e[i] for i in range(n)]
    p = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            r = int.from_bytes(block[p::span], "little")
            z[i] ^= r
            z[j] ^= r ^ (ys[i] & e[j]) ^ (ys[j] & e[i])
            p += 1
    s = [xi ^ zi for xi, zi in zip(_packed(x), z)]
    for i in range(n - 1):
        for j in range(i + 1, n):
            r = int.from_bytes(block[p::span], "little")
            s[i] ^= r
            s[j] ^= r
            p += 1
    c = ctx.counters
    c.ops += cond_add_ops(n, l)
    c.rng_draws += span * l
    c.rng_bits += cond_add_bits(n, l, w)
    return _unpacked(s, l)


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
        return _scalar_mult_packed(ctx, p, x, l)
    mul = ctx.field.mul
    c = ctx.counters
    y = [list(s) for s in x]  # working copy, not charged
    ctx.emit(y[0][0], ("ssm", "cp"))
    for j in range(n):
        pj = p[j]
        for k in range(l):
            col = [mul(pj, y[i][k]) for i in range(n)]
            c.ops += n
            ctx.emit(col[0], ("ssm", "mul", j, k))
            col = refresh(ctx, col)
            for i in range(n):
                y[i][k] = col[i]
    return y


def _scalar_mult_packed(ctx, p, x, l):
    # per factor share, then per coefficient, refresh draws n-1 randoms
    n = ctx.n
    field = ctx.field
    w = field.w
    per = n - 1
    stride = per * l
    block = ctx.rng.draw_block(n * stride, w)
    rows = [bytes(s) for s in x]
    for j in range(n):
        tab = _mul_table(field, p[j])
        v = [int.from_bytes(b.translate(tab), "little") for b in rows]
        base = j * stride
        for i in range(1, n):
            r = int.from_bytes(block[base + i - 1:base + stride:per], "little")
            v[0] ^= r
            v[i] ^= r
        rows = [vi.to_bytes(l, "little") for vi in v]
    c = ctx.counters
    c.ops += scalar_mult_ops(n, l)
    c.rng_draws += n * stride
    c.rng_bits += scalar_mult_bits(n, l, w)
    return [list(b) for b in rows]


def sec_mult_sub(ctx: MaskingContext, factor: list[int], row: SharedRow,
                 base: SharedRow) -> SharedRow:
    """base + factor*row coefficient-wise: ops (7n^2-3n)l/2."""
    n = ctx.n
    l = _check_row(row, n)
    if _check_row(base, n) != l:
        raise LengthMismatch("row lengths differ")
    if ctx.trace is None:
        return _mult_sub_packed(ctx, factor, row, base, l)
    c = ctx.counters
    out = [[0] * l for _ in range(n)]
    for k in range(l):
        rk = [row[i][k] for i in range(n)]
        t = sec_mult(ctx, factor, rk)
        for i in range(n):
            out[i][k] = base[i][k] ^ t[i]
        c.ops += n
        ctx.emit(out[0][k], ("sms", "z", k))
    return out


def _mult_sub_packed(ctx, factor, row, base, l):
    # sec_mult draws one random per pair, pairs in order, per coefficient
    n = ctx.n
    field = ctx.field
    w = field.w
    pairs = (n * n - n) // 2
    block = ctx.rng.draw_block(pairs * l, w)
    rows = [bytes(s) for s in row]
    # prod[a][b] = factor share a times row share b
    prod = []
    for f in factor:
        tab = _mul_table(field, f)
        prod.append([int.from_bytes(b.translate(tab), "little") for b in rows])
    z = [prod[i][i] ^ bi for i, bi in enumerate(_packed(base))]
    p = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            r = int.from_bytes(block[p::pairs], "little")
            z[i] ^= r
            z[j] ^= r ^ prod[i][j] ^ prod[j][i]
            p += 1
    c = ctx.counters
    c.ops += mult_sub_ops(n, l)
    c.rng_draws += pairs * l
    c.rng_bits += mult_sub_bits(n, l, w)
    return _unpacked(z, l)
