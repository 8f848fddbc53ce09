"""Row echelon solving: plain reference path and the masked pipeline.

Both paths work on the augmented m x (m+1) matrix and follow the same
schedule: (1) for each candidate row below, add it into the pivot row
if the pivot is still zero, (2) reveal whether the pivot is nonzero and
abort if not, (3) scale the pivot row by the pivot inverse, (4)
eliminate the pivot column below, then back-substitute bottom-up. The
masked path keeps every matrix entry Boolean-shared; the only values it
ever opens are the per-column pivot-liveness bit and, during back
substitution, the solution coefficients themselves.

Masked rows are mge.rowops PackedRows from share_system to sec_back_sub,
kept as live tails. While column j is eliminated, coefficient 0 of each
row from j down is column j (byte 0 of every share); then the rows below
drop it, so row j ends as columns j..m.

A LinearSystem holds (field, a, b) and derives m from a; every way to
build one, _make, _replace, copy and pickle, goes through __new__.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import xor

from .gf import FieldSpec
from .masking import (
    MaskingContext,
    b2minv,
    full_add,
    sec_nonzero,
    sec_not,
    strong_refresh,
)
from .rowops import (
    LengthMismatch,
    LengthZero,
    row_drop,
    row_head,
    row_share,
    sec_cond_add,
    sec_mult_sub,
    sec_scalar_mult,
    unpack_row,
)


class LinearSystem(namedtuple("LinearSystem", "field a b")):
    """Square system A x = b over one field; validated on construction."""

    __slots__ = ()

    def __new__(cls, field: FieldSpec, a, b):
        if not isinstance(a, (list, tuple)):
            raise ValueError(f"A must be a list of rows, got {type(a).__name__}")
        m = len(a)
        if m == 0:
            raise LengthZero("empty system")
        for i, row in enumerate((*a, b)):
            what = "rhs b" if i == m else f"matrix row A[{i}]"
            if not isinstance(row, (list, tuple)):
                raise ValueError(f"{what} must be a list, got "
                                 f"{type(row).__name__}")
            if len(row) != m:
                raise LengthMismatch(f"{what} of length {len(row)}, want {m}")
            for v in row:
                # bool is an int subclass; JSON true is not a field element
                if type(v) is not int or not 0 <= v < field.q:
                    raise ValueError(f"{what}: entry {v!r} is not an integer "
                                     f"in [0, {field.q})")
        return super().__new__(cls, field, tuple(tuple(row) for row in a),
                               tuple(b))

    @property
    def m(self) -> int:
        """The system's size, A's row count; derived, not stored."""
        return len(self.a)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through here: validate as __new__ does
        return cls(*iterable)


# x is None when the solve aborts at column fail_index
SolveOutcome = namedtuple("SolveOutcome", "x singular fail_index",
                          defaults=(False, None))


def gaussian_elimination(system: LinearSystem, pivot_tries: int | None = None,
                         trace=None, trace_labels=None) -> SolveOutcome:
    """Reference solver; mirrors the masked schedule value for value.

    The optional trace collects the data-dependent control values this
    path examines (pivots, elimination factors, solution entries); the
    point sequence is data-independent so traces are comparable.
    """
    field = system.field
    mul = field.mul
    m = system.m

    def emit(v, label):
        if trace is not None:
            trace.append(v)
            if trace_labels is not None:
                trace_labels.append(label)

    t = [list(system.a[j]) + [system.b[j]] for j in range(m)]
    for j in range(m):
        last = m if pivot_tries is None else min(m, j + 1 + pivot_tries)
        for k in range(j + 1, last):
            emit(t[j][j], ("uge", "try", j, k))
            if t[j][j] == 0:
                for i in range(j, m + 1):
                    t[j][i] ^= t[k][i]
        emit(t[j][j], ("uge", "pivot", j))
        if t[j][j] == 0:
            return SolveOutcome(None, singular=True, fail_index=j)
        inv = field.inv(t[j][j])
        for i in range(j, m + 1):
            t[j][i] = mul(inv, t[j][i])
        for k in range(j + 1, m):
            c = t[k][j]
            emit(c, ("uge", "factor", j, k))
            for i in range(j, m + 1):
                t[k][i] ^= mul(c, t[j][i])
    x = [0] * m
    for j in range(m - 1, -1, -1):
        x[j] = t[j][m]
        emit(x[j], ("uge", "x", j))
        for k in range(j):
            t[k][m] ^= mul(t[k][j], x[j])
    return SolveOutcome(tuple(x))


# ------------------------------------------------------------ masked path


class FieldMismatch(ValueError):
    """A masking context over a field of another width than the
    system's; a width names its field."""


def share_system(ctx: MaskingContext, system: LinearSystem) -> list:
    """Share the augmented matrix row-wise (not part of gadget costs).

    A context whose field has another width than the system's is refused
    before anything is drawn.
    """
    cf, sf = ctx.field, system.field
    if cf.w != sf.w:
        raise FieldMismatch(f"the context is over {cf!r}, the system over "
                            f"{sf!r}")
    return [row_share(ctx, list(system.a[j]) + [system.b[j]])
            for j in range(system.m)]


def sec_row_ech(ctx: MaskingContext, rows: list,
                pivot_tries: int | None = None) -> int | None:
    """In-place shared row echelon; returns the failing column or None.

    Abort is immediate: the first column whose revealed liveness bit is
    zero stops the computation.
    """
    m = len(rows)
    c = ctx.counters
    for j in range(m):
        last = m if pivot_tries is None else min(m, j + 1 + pivot_tries)
        for k in range(j + 1, last):
            nz = sec_nonzero(ctx, row_head(rows[j]))
            b = sec_not(ctx, nz)
            rows[j] = sec_cond_add(ctx, b, rows[j], rows[k])
        live = full_add(ctx, sec_nonzero(ctx, row_head(rows[j])))
        c.ops += 1  # public liveness test
        if live == 0:
            return j
        pinv = b2minv(ctx, row_head(rows[j]))
        rows[j] = sec_scalar_mult(ctx, pinv, rows[j])
        for k in range(j + 1, m):
            s = strong_refresh(ctx, row_head(rows[k]))
            rows[k] = row_drop(sec_mult_sub(ctx, s, rows[j], rows[k]))
    return None


def sec_back_sub(ctx: MaskingContext, rows: list) -> list[int]:
    """Open solution entries bottom-up, folding each into rows above.

    Pivots are unit after sec_row_ech, so the opened augmented entry of
    row j is x_j; rows above absorb x_j times their column-j entry,
    index j - m - 1 of a share whichever column the row starts at.
    """
    m = len(rows)
    n = ctx.n
    mul = ctx.field.mul
    c = ctx.counters
    tr = ctx.trace
    if tr is not None:
        put, lab = tr.append, ctx.trace_labels
    rows = [unpack_row(r) for r in rows]
    x = [0] * m
    for j in range(m - 1, -1, -1):
        x[j] = full_add(ctx, [s[-1] for s in rows[j]])
        col = j - m - 1
        for k, row in enumerate(rows[:j]):
            for i, s in enumerate(row):
                s[-1] ^= mul(x[j], s[col])
                if tr is not None:
                    put(s[-1]) if lab is None else ctx.emit(
                        s[-1], ("sbs", "upd", j, k, i))
            c.ops += 2 * n
    return x


def masked_solve(ctx: MaskingContext, system: LinearSystem,
                 pivot_tries: int | None = None) -> SolveOutcome:
    """Share, eliminate, back-substitute. Opens only sanctioned values."""
    rows = share_system(ctx, system)
    fail = sec_row_ech(ctx, rows, pivot_tries=pivot_tries)
    if fail is not None:
        return SolveOutcome(None, singular=True, fail_index=fail)
    return SolveOutcome(tuple(sec_back_sub(ctx, rows)))


# --------------------------------------------------------- test utilities


def random_system(field: FieldSpec, m: int, rng,
                  invertible: bool = True) -> LinearSystem:
    """Uniform random system; rejection-sample until invertible if asked."""
    while True:
        a = [[rng.randrange(field.q) for _ in range(m)] for _ in range(m)]
        b = [rng.randrange(field.q) for _ in range(m)]
        sys_ = LinearSystem(field, a, b)
        if not invertible or gaussian_elimination(sys_).x is not None:
            return sys_


def singular_system(field: FieldSpec, m: int, rng) -> LinearSystem:
    """Structurally rank-deficient: A = B (m x m-1) times C (m-1 x m)."""
    if m < 2:
        return LinearSystem(field, [[0]], [rng.randrange(field.q)])
    mul = field.mul
    bmat = [[rng.randrange(field.q) for _ in range(m - 1)] for _ in range(m)]
    cmat = [[rng.randrange(field.q) for _ in range(m)] for _ in range(m - 1)]
    a = [[0] * m for _ in range(m)]
    for arow, brow in zip(a, bmat):
        for brt, crow in zip(brow, cmat):
            for s in range(m):
                arow[s] ^= mul(brt, crow[s])
    b = [rng.randrange(field.q) for _ in range(m)]
    return LinearSystem(field, a, b)


def residual(system: LinearSystem, x) -> list[int]:
    """A x - b; all zeros iff x solves the system."""
    mul = system.field.mul
    return [reduce(xor, map(mul, row, x), bj)
            for row, bj in zip(system.a, system.b)]
