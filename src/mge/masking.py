"""Sharings, randomness tapes, cost counters and the scalar gadgets.

Representation. A Boolean sharing of x is a list of n field elements
whose XOR is x. A multiplicative sharing is a list of n nonzero
elements whose field product is x. Shared rows (in mge.rowops) are
share-major: n lists of equal length.

Cost accounting. Counters charge abstract unit operations the way the
closed forms in mge.costmodel count them: field ops, w-bit logical ops,
charged share copies, and one op per charged RNG draw. After any single
gadget call the (ops, rng_bits) deltas equal the closed forms exactly.
Two conventions matter and are applied here once:

* multiplicative-share draws inside b2m are randomness but not ops;
* sec_nonzero executes on the width padded to a power of two, then
  aligns its op and bit totals to the closed form (which counts levels
  as ceil(log2(w+1))) when it returns. Alignment can subtract a few
  bits, so counters are meant to be read at gadget boundaries.

Probing hooks. When ctx.trace is a list, gadgets append one probe value
per unit operation that produces a share-derived wire (vector-level
copies collapse to one point carrying share 0, since every copied wire
duplicates an input wire already visible upstream). When
ctx.trace_labels is also a list, a stable label tuple is appended per
point; point sequences are data-independent, so one labeled run fixes
point identities for a whole campaign. Labels whose second entry starts
with "pub" mark sanctioned public outputs.
"""

from __future__ import annotations

from .gf import FieldSpec

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

DEFAULT_SEED = 0x243F6A8885A308D3

# draw_block lays its SplitMix64 lanes 128 bits apart in one int: a lane
# times a 64-bit constant fits its slot, so no carry crosses lanes.
# A lane's byte 7 is its top 8 bits; a w-bit draw keeps the top w of them.
_TOP_BITS = tuple(bytes(v >> (8 - w) for v in range(256)) for w in range(9))
# Lane constants of the largest block so far: count, ones, 64-bit masks
# and the gamma ramp (lane t holds (t+1)*gamma mod 2^64). Smaller blocks
# shift them down, so the cache never holds more than one block's size.
_lanes = [0, 0, 0, 0]


def _lane_constants(count: int):
    top, ones, mask, ramp = _lanes
    if count > top:
        ones = int.from_bytes((1).to_bytes(16, "little") * count, "little")
        mask = ones * _M64
        ramp = int.from_bytes(b"".join(
            ((t * _GAMMA) & _M64).to_bytes(16, "little")
            for t in range(1, count + 1)), "little")
        _lanes[:] = count, ones, mask, ramp
    elif count < top:
        drop = (top - count) << 7
        ones >>= drop
        mask >>= drop
    return ones, mask, ramp


class SeededTape:
    """Counter-based deterministic source of uniform w-bit draws."""

    __slots__ = ("_state",)

    def __init__(self, seed: int = DEFAULT_SEED):
        self._state = seed & _M64

    def _next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _M64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def draw(self, width: int) -> int:
        return self._next64() >> (64 - width)

    def draw_nonzero(self, width: int) -> int:
        # rejection keeps the distribution uniform on [1, 2^width)
        while True:
            v = self._next64() >> (64 - width)
            if v:
                return v

    def draw_block(self, count: int, width: int) -> bytes:
        """The next count draw(width) values, one byte each, width <= 8.

        SplitMix64 is counter-based: draw t depends only on the state
        plus t*gamma, so all count outputs come from one pass of wide
        int arithmetic. The tape ends where count draws would leave it.
        """
        if not 1 <= width <= 8:
            raise ValueError(f"block draws are 1..8 bits wide, got {width}")
        s = self._state
        ones, mask, ramp = _lane_constants(count)
        z = (s * ones + ramp) & mask  # the mask also drops unused ramp lanes
        # mask before each multiply: the shifts spill a lane's low bits
        # into the spare top of the lane below
        z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        z ^= z >> 31
        self._state = (s + count * _GAMMA) & _M64
        out = z.to_bytes(count << 4, "little")[7::16]
        return out if width == 8 else out.translate(_TOP_BITS[width])

    def spawn(self) -> "SeededTape":
        """Derive an independent child tape (splittable use)."""
        return SeededTape(self._next64())


class ReplayTape:
    """Feeds back a fixed list of values; used for tape enumeration."""

    __slots__ = ("_values", "_i")

    def __init__(self, values):
        self._values = values
        self._i = 0

    def draw(self, width):
        v = self._values[self._i]
        self._i += 1
        return v

    draw_nonzero = draw

    def draw_block(self, count, width):
        end = self._i + count
        if end > len(self._values):
            raise IndexError("replay tape exhausted")
        v = bytes(self._values[self._i:end])
        self._i = end
        return v

    def rewind(self, values=None):
        if values is not None:
            self._values = values
        self._i = 0


class DomainTape:
    """Records the draw schedule of a run; returns fixed legal values."""

    __slots__ = ("schedule",)

    def __init__(self):
        self.schedule = []

    def draw(self, width):
        self.schedule.append((width, False))
        return 0

    def draw_nonzero(self, width):
        self.schedule.append((width, True))
        return 1

    def draw_block(self, count, width):
        self.schedule.extend([(width, False)] * count)
        return bytes(count)


class ZeroSharing(ValueError):
    """A gadget defined on nonzero values got a sharing of zero."""


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
    context must not be shared between concurrent computations.
    """

    __slots__ = ("field", "n", "rng", "counters", "trace", "trace_labels")

    def __init__(self, field: FieldSpec, n: int, seed: int | None = None,
                 tape=None):
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"need at least 2 shares, got {n!r}")
        self.field = field
        self.n = n
        self.rng = tape if tape is not None else SeededTape(
            DEFAULT_SEED if seed is None else seed)
        self.counters = CostCounters()
        self.trace = None
        self.trace_labels = None

    def rand(self, width: int | None = None) -> int:
        """Charged uniform draw: one op plus width random bits."""
        w = self.field.w if width is None else width
        v = self.rng.draw(w)
        c = self.counters
        c.rng_draws += 1
        c.rng_bits += w
        c.ops += 1
        return v

    def rand_nonzero(self, width: int | None = None) -> int:
        """Uniform nonzero draw; randomness is counted, the op is not."""
        w = self.field.w if width is None else width
        v = self.rng.draw_nonzero(w)
        c = self.counters
        c.rng_draws += 1
        c.rng_bits += w
        return v

    def emit(self, value: int, label) -> None:
        # callers guard on ctx.trace so labels are only built when tracing
        self.trace.append(value)
        if self.trace_labels is not None:
            self.trace_labels.append(label)


# ---------------------------------------------------------------- sharing


def bool_share(ctx: MaskingContext, x: int) -> list[int]:
    """Split x into n XOR shares: n-1 draws, last share closes the sum."""
    if not 0 <= x < ctx.field.q:
        raise ValueError(f"value {x!r} outside [0, {ctx.field.q})")
    n = ctx.n
    s = [0] * n
    acc = x
    for i in range(n - 1):
        r = ctx.rand()
        s[i] = r
        acc ^= r
        if ctx.trace is not None:
            ctx.emit(r, ("bshare", "r", i))
    s[n - 1] = acc
    ctx.counters.ops += n - 1
    if ctx.trace is not None:
        ctx.emit(acc, ("bshare", "last"))
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
    """Linear refresh against share 0. ops 4n-3, bits (n-1)w."""
    c = ctx.counters
    n = ctx.n
    y = list(x)
    c.ops += n  # output copy is charged by the closed form
    tr = ctx.trace
    if tr is not None:
        ctx.emit(y[0], ("refresh", "cp"))
    for i in range(1, n):
        r = ctx.rand()
        y[0] ^= r
        y[i] ^= r
        c.ops += 2
        if tr is not None:
            ctx.emit(r, ("refresh", "r", i))
            ctx.emit(y[0], ("refresh", "y0", i))
            ctx.emit(y[i], ("refresh", "yi", i))
    return y


def strong_refresh(ctx: MaskingContext, x: list[int],
                   width: int | None = None) -> list[int]:
    """Pairwise refresh: ops 3(n^2-n)/2, bits (n^2-n)/2 * width."""
    c = ctx.counters
    n = ctx.n
    y = list(x)  # copy not charged
    tr = ctx.trace
    if tr is not None:
        ctx.emit(y[0], ("sref", "cp"))
    for i in range(n - 1):
        for j in range(i + 1, n):
            r = ctx.rand(width)
            y[i] ^= r
            y[j] ^= r
            c.ops += 2
            if tr is not None:
                ctx.emit(r, ("sref", "r", i, j))
                ctx.emit(y[i], ("sref", "yi", i, j))
                ctx.emit(y[j], ("sref", "yj", i, j))
    return y


def full_add(ctx: MaskingContext, x: list[int]) -> int:
    """Strong refresh, then sum all shares into one public value."""
    y = strong_refresh(ctx, x)
    s = y[0]
    for i in range(1, ctx.n):
        s ^= y[i]
    ctx.counters.ops += ctx.n - 1
    if ctx.trace is not None:
        ctx.emit(s, ("fadd", "pub"))
    return s


# ---------------------------------------------------------------- products


def sec_mult(ctx: MaskingContext, x: list[int], y: list[int]) -> list[int]:
    """Cross-product multiplication: ops (7n^2-5n)/2, bits (n^2-n)/2 w."""
    n = ctx.n
    mul = ctx.field.mul
    c = ctx.counters
    tr = ctx.trace
    z = [0] * n
    for i in range(n):
        z[i] = mul(x[i], y[i])
        if tr is not None:
            ctx.emit(z[i], ("smul", "pp", i, i))
    c.ops += n
    for i in range(n - 1):
        for j in range(i + 1, n):
            r = ctx.rand()
            p = mul(x[i], y[j])
            u = r ^ p
            q = mul(x[j], y[i])
            t = u ^ q  # ordering matters: (r + x_i y_j) + x_j y_i
            z[i] ^= r
            z[j] ^= t
            c.ops += 6
            if tr is not None:
                ctx.emit(r, ("smul", "r", i, j))
                ctx.emit(p, ("smul", "pp", i, j))
                ctx.emit(u, ("smul", "u", i, j))
                ctx.emit(q, ("smul", "pp", j, i))
                ctx.emit(t, ("smul", "t", i, j))
                ctx.emit(z[i], ("smul", "zi", i, j))
                ctx.emit(z[j], ("smul", "zj", i, j))
    return z


def sec_and(ctx: MaskingContext, x: list[int], y: list[int],
            width: int | None = None) -> list[int]:
    """Bitwise AND under the same schedule and charges as sec_mult."""
    n = ctx.n
    c = ctx.counters
    tr = ctx.trace
    z = [0] * n
    for i in range(n):
        z[i] = x[i] & y[i]
        if tr is not None:
            ctx.emit(z[i], ("sand", "pp", i, i))
    c.ops += n
    for i in range(n - 1):
        for j in range(i + 1, n):
            r = ctx.rand(width)
            p = x[i] & y[j]
            u = r ^ p
            q = x[j] & y[i]
            t = u ^ q
            z[i] ^= r
            z[j] ^= t
            c.ops += 6
            if tr is not None:
                ctx.emit(r, ("sand", "r", i, j))
                ctx.emit(p, ("sand", "pp", i, j))
                ctx.emit(u, ("sand", "u", i, j))
                ctx.emit(q, ("sand", "pp", j, i))
                ctx.emit(t, ("sand", "t", i, j))
                ctx.emit(z[i], ("sand", "zi", i, j))
                ctx.emit(z[j], ("sand", "zj", i, j))
    return z


def sec_not(ctx: MaskingContext, x: list[int]) -> list[int]:
    """Complement of a shared bit: flip the low bit of share 0."""
    y = list(x)
    y[0] ^= 1
    ctx.counters.ops += 1
    if ctx.trace is not None:
        ctx.emit(y[0], ("snot", "z0"))
    return y


def sec_or(ctx: MaskingContext, x: list[int], y: list[int],
           width: int | None = None) -> list[int]:
    """De Morgan OR on width-bit slices: ops 2n + T_and + 1."""
    n = ctx.n
    w = ctx.field.w if width is None else width
    ones = (1 << w) - 1
    c = ctx.counters
    tr = ctx.trace
    na = list(x)
    na[0] ^= ones
    c.ops += n  # copy-with-complement, charged per share
    if tr is not None:
        ctx.emit(na[0], ("sor", "na"))
    nb = list(y)
    nb[0] ^= ones
    c.ops += n
    if tr is not None:
        ctx.emit(nb[0], ("sor", "nb"))
    z = sec_and(ctx, na, nb, width=w)
    z[0] ^= ones
    c.ops += 1
    if tr is not None:
        ctx.emit(z[0], ("sor", "z0"))
    return z


# ------------------------------------------------------------- predicates


def _ceil_log2(v: int) -> int:
    return (v - 1).bit_length()


def sec_nonzero(ctx: MaskingContext, x: list[int]) -> list[int]:
    """Shared bit (x != 0) by OR-folding halves of the padded width.

    Executes on the width padded to the next power of two; op and bit
    totals are aligned to the closed form on return.
    """
    n = ctx.n
    w = ctx.field.w
    c = ctx.counters
    tr = ctx.trace
    t = list(x)
    c.ops += n  # working copy is charged
    if tr is not None:
        ctx.emit(t[0], ("snz", "cp"))
    width = 1 << (w - 1).bit_length() if w > 1 else 1
    levels = 0
    while width > 1:
        half = width >> 1
        mask = (1 << half) - 1
        hi = [(v >> half) & mask for v in t]
        lo = [v & mask for v in t]
        if tr is not None:
            ctx.emit(hi[0], ("snz", "hi", width))
            ctx.emit(lo[0], ("snz", "lo", width))
        hi = strong_refresh(ctx, hi, width=half)
        t = sec_or(ctx, hi, lo, width=half)
        width = half
        levels += 1
    if tr is not None:
        ctx.emit(t[0], ("snz", "bit"))
    # align to the closed form: it counts L = ceil(log2(w+1)) levels
    big_l = _ceil_log2(w + 1)
    printed_ops = (5 * n * n + 2 * n - 1) + big_l * (5 * n * n - n + 2)
    natural_ops = n + levels * (5 * n * n - 2 * n + 1)
    c.ops += printed_ops - natural_ops
    padded = 1 << (w - 1).bit_length() if w > 1 else 1
    printed_bits = (big_l * big_l - big_l) // 2 * (n * n - n)
    natural_bits = (n * n - n) * (padded - 1)
    c.rng_bits += printed_bits - natural_bits
    return t


# ------------------------------------------------------------ conversions


def b2m(ctx: MaskingContext, x: list[int]) -> list[int]:
    """Boolean to multiplicative sharing. Input must encode a nonzero.

    ops (5n^2-7n+4)/2, draws (n^2-n)/2, bits (n^2-n)/2 w. The n-1
    multiplicative-share draws are randomness but not charged ops.
    """
    if bool_unshare(x) == 0:
        raise ZeroSharing("b2m input encodes zero")
    n = ctx.n
    field = ctx.field
    mul = field.mul
    c = ctx.counters
    tr = ctx.trace
    xs = list(x)
    m = [0] * n
    m1 = xs[0]
    c.ops += 1  # seed the accumulator from share 0
    if tr is not None:
        ctx.emit(m1, ("b2m", "cp"))
    for j in range(1, n):
        mj = ctx.rand_nonzero()
        if tr is not None:
            ctx.emit(mj, ("b2m", "mj", j))
        m1 = mul(m1, mj)
        c.ops += 1
        if tr is not None:
            ctx.emit(m1, ("b2m", "acc", j))
        for k in range(1, n - j):
            r = ctx.rand()
            p = mul(mj, xs[k])
            t = p ^ r
            m1 ^= t
            xs[k] = r
            c.ops += 4
            if tr is not None:
                ctx.emit(r, ("b2m", "r", j, k))
                ctx.emit(p, ("b2m", "xm", j, k))
                ctx.emit(t, ("b2m", "xr", j, k))
                ctx.emit(m1, ("b2m", "m1", j, k))
                ctx.emit(r, ("b2m", "cpr", j, k))
        t = mul(mj, xs[n - j])
        m1 ^= t
        c.ops += 2
        if tr is not None:
            ctx.emit(t, ("b2m", "xt", j))
            ctx.emit(m1, ("b2m", "mt", j))
        m[j] = field.inv(mj)
        c.ops += 1
        if tr is not None:
            ctx.emit(m[j], ("b2m", "inv", j))
    m[0] = m1
    return m


def b2minv(ctx: MaskingContext, x: list[int]) -> list[int]:
    """Multiplicative sharing of the inverse: b2m then invert each share."""
    m = b2m(ctx, x)
    inv = ctx.field.inv
    c = ctx.counters
    tr = ctx.trace
    for i in range(ctx.n):
        m[i] = inv(m[i])
        c.ops += 1
        if tr is not None:
            ctx.emit(m[i], ("b2mi", "pinv", i))
    return m
