"""Field arithmetic checked against a coefficient-list reference.

The reference implementation below multiplies by explicit convolution
over GF(2) coefficient vectors and reduces by long division, sharing no
code with the table-driven path under test. Inverses are found by brute
force search.
"""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from mge import gf
from mge.gf import (
    DEFAULT_POLY,
    FieldSpec,
    WidthOutOfRange,
    ZeroInverse,
    _mul_ref,
    field_new,
)


def _bits(v):
    return [(v >> i) & 1 for i in range(v.bit_length())]


def _unbits(c):
    v = 0
    for i, bit in enumerate(c):
        v |= (bit & 1) << i
    return v


def ref_mul(a, b, poly, w):
    ca, cb = _bits(a), _bits(b)
    prod = [0] * (len(ca) + len(cb))
    for i, x in enumerate(ca):
        if x:
            for j, y in enumerate(cb):
                prod[i + j] ^= y
    cp = _bits(poly)
    deg = len(cp) - 1
    for i in range(len(prod) - 1, deg - 1, -1):
        if prod[i]:
            for j, y in enumerate(cp):
                prod[i - deg + j] ^= y
    return _unbits(prod[:w])


def ref_inv(a, poly, w):
    for b in range(1, 1 << w):
        if ref_mul(a, b, poly, w) == 1:
            return b
    raise AssertionError(f"no inverse for {a:#x}")


def ref_divides(d, p):
    # long division over coefficient lists; True when remainder is zero
    cp = _bits(p)
    cd = _bits(d)
    while len(cp) >= len(cd):
        if cp[-1]:
            off = len(cp) - len(cd)
            for j, y in enumerate(cd):
                cp[off + j] ^= y
        cp.pop()
    return not any(cp)


def ref_irreducible(p, w):
    if p.bit_length() != w + 1:
        return False
    return not any(ref_divides(d, p) for d in range(2, 1 << w))


def test_known_products_and_inverses():
    f16 = field_new(4)
    assert f16.mul(0x2, 0x9) == 0x1
    assert f16.inv(0x2) == 0x9
    f256 = field_new(8)
    assert f256.mul(0x53, 0xCA) == 0x01
    assert 0x53 ^ 0xCA == 0x99


def test_width_bounds():
    for w in (0, 9, -1, "4", 3.0):
        with pytest.raises(WidthOutOfRange):
            field_new(w)


def test_zero_inverse_raises():
    with pytest.raises(ZeroInverse):
        field_new(8).inv(0)


def test_fieldspec_immutable_and_cached():
    f = field_new(5)
    with pytest.raises(AttributeError):
        f.w = 6
    assert field_new(5) is f


def test_a_width_names_its_one_field():
    # a polynomial used to select another field of the same width
    with pytest.raises(TypeError):
        field_new(4, 0x19)
    with pytest.raises(TypeError):
        FieldSpec(4, 0x19)
    for w in range(1, 9):
        assert field_new(w) is field_new(w)


@pytest.mark.parametrize("w", [True, False, 3.0], ids=["True", "False", "3.0"])
def test_a_width_is_an_exact_int(w, monkeypatch):
    # True would name a second GF(2) beside field_new(1); with no modulus
    # to read, building any table raises KeyError instead
    monkeypatch.setattr(gf, "DEFAULT_POLY", {})
    with pytest.raises(WidthOutOfRange):
        field_new(w)
    with pytest.raises(WidthOutOfRange):
        FieldSpec(w)


def test_fieldspec_copies_and_pickles_through_field_new():
    f = field_new(4)
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    # one built apart from the cache comes back as the cached field
    g = FieldSpec(4)
    assert g is not f
    assert pickle.loads(pickle.dumps(g)) is f
    assert copy.copy(g) is f


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_exhaustive_small_widths(w):
    f = field_new(w)
    q = f.q
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == ref_mul(a, b, f.poly, w)
    for a in range(1, q):
        assert f.inv(a) == ref_inv(a, f.poly, w)


def test_inverse_identity_all_widths():
    for w in range(1, 9):
        f = field_new(w)
        for a in range(1, f.q):
            assert f.mul(a, f.inv(a)) == 1


def test_random_pairs_gf256():
    f = field_new(8)
    rng = random.Random(0x6FA)
    for _ in range(100_000):
        a = rng.randrange(256)
        b = rng.randrange(256)
        assert f.mul(a, b) == ref_mul(a, b, f.poly, 8)


def test_irreducibility_counts_match_reference():
    # degree d monic irreducibles over GF(2): 2, 1, 2, 3, 6 for d=1..5
    expected = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6}
    for w, want in expected.items():
        theirs = sum(
            ref_irreducible(p, w) for p in range(1 << w, 1 << (w + 1))
        )
        assert theirs == want
    # so the reference can vouch for the one modulus of each width
    for w, poly in DEFAULT_POLY.items():
        assert ref_irreducible(poly, w), w


@pytest.mark.parametrize("w", range(1, 9))
def test_tables_equal_shift_and_add_products_and_brute_inverses(w):
    # products is 256 rows of 256 bytes; zero outside the field
    f = field_new(w)
    q, poly = f.q, f.poly
    want = bytearray(1 << 16)
    for a in range(q):
        for b in range(q):
            want[(a << 8) | b] = _mul_ref(a, b, poly, w)
    assert f.products == bytes(want)
    inverses = [0] + [next(b for b in range(1, q) if _mul_ref(a, b, poly, w)
                           == 1) for a in range(1, q)]
    assert list(f.inverses) == inverses


def test_default_polys_all_construct():
    for w, poly in DEFAULT_POLY.items():
        f = field_new(w)
        assert f.poly == poly
        assert f.q == 1 << w


@given(
    w=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_field_axioms(w, data):
    f = field_new(w)
    a = data.draw(st.integers(0, f.q - 1))
    b = data.draw(st.integers(0, f.q - 1))
    c = data.draw(st.integers(0, f.q - 1))
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
    assert f.mul(a, 1) == a
    if a:
        assert f.mul(a, f.inv(a)) == 1
        power = 1
        for _ in range(f.q - 1):
            power = f.mul(power, a)
        assert power == 1
