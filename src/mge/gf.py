"""Arithmetic in small binary fields GF(2^w), 1 <= w <= 8.

Field elements are plain Python ints in [0, 2^w), read as polynomials
over GF(2) (bit i is the coefficient of x^i). Addition is XOR and costs
nothing to set up; multiplication and inversion go through a FieldSpec,
which tabulates every product and inverse at construction. There is one
field per width: GF(2^w) is always reduced by DEFAULT_POLY[w], so a
width names its field. FieldSpec.products is the one product table of
a field: mul reads it, the row kernels of mge.rowops slice a factor's
row from it, and the probing lab's LaneField views it as a numpy array.

A FieldSpec is immutable after construction and safe to share between
threads. Its constructor holds the one width check, an exact int (no
bool, no float) in 1..8. Obtain one through field_new(), which caches
one per width keyed by value and type, so True and 3.0 reach that check;
copies and unpickled FieldSpecs come from it too.
"""

from __future__ import annotations

from functools import lru_cache


class WidthOutOfRange(ValueError):
    """Field width outside the supported range 1..8."""


class ZeroInverse(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


# Each width's one irreducible modulus. 0x11B is the usual x^8+x^4+x^3+x+1.
DEFAULT_POLY = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
}


def _mul_ref(a: int, b: int, poly: int, w: int) -> int:
    # shift-and-add with eager reduction; table-free, used only at init
    top = 1 << w
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return acc


class FieldSpec:
    """GF(2^w): width, modulus DEFAULT_POLY[w], and the lookup tables.

    products is 65536 bytes: row a, bytes 256a..256a+255, is the
    bytes.translate table of v -> a*v, 0 for v >= q, and every row for
    a >= q is zero. inverses holds the q inverses, 0 at 0.
    """

    __slots__ = ("w", "poly", "q", "products", "inverses")

    def __init__(self, w: int):
        if type(w) is not int or not 1 <= w <= 8:
            raise WidthOutOfRange(f"w must be an int in 1..8, got {w!r}")
        poly = DEFAULT_POLY[w]
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "poly", poly)
        q = 1 << w
        object.__setattr__(self, "q", q)

        # The multiplicative group is cyclic of order q-1: exp holds the
        # powers of the first generator, laid out twice over so a log
        # sum needs no modular reduction.
        exp = [1]
        for gen in range(2, q):
            exp, x = [1], gen
            while x != 1:
                exp.append(x)
                x = _mul_ref(x, gen, poly, w)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        exp += exp

        # a*v = exp[log a + log v]: row a translates the logs of 1..q-1
        # by the exp table rotated to start at log a
        logs = bytes(log[1:q])
        rows = [bytes(256)]
        for a in range(1, q):
            rot = bytes(exp[log[a]:log[a] + q - 1]) + bytes(257 - q)
            rows.append(b"\0" + logs.translate(rot) + bytes(256 - q))
        object.__setattr__(self, "products",
                           b"".join(rows) + bytes(256 * (256 - q)))
        # the inverse of g^i is g^(q-1-i)
        object.__setattr__(self, "inverses", bytes(
            [0] + [exp[q - 1 - log[v]] for v in range(1, q)]))

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    def __repr__(self):
        return f"FieldSpec(w={self.w}, poly=0x{self.poly:X})"

    def __reduce__(self):
        # copy and pickle rebuild through field_new, not by setting state
        return field_new, (self.w,)

    def mul(self, a: int, b: int) -> int:
        """Product of two elements. Inputs must lie in [0, q)."""
        return self.products[(a << 8) | b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return self.inverses[a]


@lru_cache(maxsize=None, typed=True)
def field_new(w: int) -> FieldSpec:
    """The FieldSpec of GF(2^w), built on first use and cached."""
    return FieldSpec(w)
