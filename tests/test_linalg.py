"""Reference eliminator properties and masked/reference agreement.

The reference path is checked against brute force on small systems,
and against the residual on everything else, before it is trusted as
the oracle for the masked path.
"""

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mge.gf import FieldSpec, field_new
from mge.masking import MaskingContext
from mge.linalg import (
    FieldMismatch,
    LinearSystem,
    gaussian_elimination,
    masked_solve,
    random_system,
    residual,
    singular_system,
)
from mge.rowops import LengthMismatch, LengthZero

F4 = field_new(2)
F16 = field_new(4)
F256 = field_new(8)


def brute_force(system):
    """Try every candidate vector; None if no solution exists."""
    for cand in itertools.product(range(system.field.q),
                                  repeat=system.m):
        if all(v == 0 for v in residual(system, cand)):
            return cand
    return None


class TestReferencePath:
    def test_exhaustive_against_brute_force_gf4_m2(self):
        # 4^4 matrices x 4^2 rhs = 4096 full systems
        for a_flat in itertools.product(range(4), repeat=4):
            a = [a_flat[:2], a_flat[2:]]
            for b in itertools.product(range(4), repeat=2):
                sysm = LinearSystem(F4, a, b)
                out = gaussian_elimination(sysm)
                want = brute_force(sysm)
                if out.x is not None:
                    assert out.x == want
                else:
                    # singular: either no solution or a non-unique one
                    assert want is None or _solution_count(sysm) > 1

    def test_residual_zero_on_random_invertible(self):
        rng = random.Random(0x1D)
        for _ in range(200):
            sysm = random_system(F256, rng.randrange(1, 8), rng)
            out = gaussian_elimination(sysm)
            assert out.x is not None and not out.singular
            assert residual(sysm, out.x) == [0] * sysm.m

    def test_identity_system(self):
        a = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
        b = [3, 1, 4, 1, 5]
        out = gaussian_elimination(LinearSystem(F16, a, b))
        assert out.x == (3, 1, 4, 1, 5)

    def test_singular_reports_first_dead_column(self):
        # column 0 is all zeros, so elimination dies at index 0
        sysm = LinearSystem(F16, [[0, 1], [0, 2]], [1, 1])
        out = gaussian_elimination(sysm)
        assert out.singular and out.fail_index == 0 and out.x is None

    def test_structurally_singular_generator(self):
        rng = random.Random(0x5E)
        for _ in range(100):
            sysm = singular_system(F16, rng.randrange(2, 7), rng)
            assert gaussian_elimination(sysm).singular

    def test_pivot_tries_limits_rescue_attempts(self):
        # row 2 could rescue the pivot, but only one try is allowed
        sysm = LinearSystem(F16, [[0, 1, 1], [0, 2, 3], [5, 0, 1]],
                            [1, 1, 1])
        assert gaussian_elimination(sysm).singular is False
        assert gaussian_elimination(sysm, pivot_tries=1).singular


def _solution_count(system):
    return sum(
        1 for cand in itertools.product(range(system.field.q),
                                        repeat=system.m)
        if all(v == 0 for v in residual(system, cand)))


class TestMaskedAgainstReference:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_invertible_batch(self, n):
        rng = random.Random(0xAB + n)
        for trial in range(60):
            field = F256 if trial % 2 else F16
            sysm = random_system(field, rng.randrange(1, 8), rng)
            ref = gaussian_elimination(sysm)
            ctx = MaskingContext(field, n, seed=rng.randrange(2 ** 63))
            got = masked_solve(ctx, sysm)
            assert got.x == ref.x
            assert not got.singular

    @pytest.mark.parametrize("n", [2, 3])
    def test_singular_batch_same_abort_index(self, n):
        rng = random.Random(0xCD + n)
        for _ in range(60):
            sysm = singular_system(F16, rng.randrange(2, 7), rng)
            ref = gaussian_elimination(sysm)
            ctx = MaskingContext(F16, n, seed=rng.randrange(2 ** 63))
            got = masked_solve(ctx, sysm)
            assert got.singular and ref.singular
            assert got.fail_index == ref.fail_index
            assert got.x is None

    def test_result_independent_of_masking_seed(self):
        rng = random.Random(0xEF)
        sysm = random_system(F16, 5, rng)
        ref = gaussian_elimination(sysm)
        for seed in (1, 2, 0xDEAD, 2 ** 61):
            ctx = MaskingContext(F16, 2, seed=seed)
            assert masked_solve(ctx, sysm).x == ref.x

    def test_pivot_tries_agreement(self):
        sysm = LinearSystem(F16, [[0, 1, 1], [0, 2, 3], [5, 0, 1]],
                            [1, 1, 1])
        for tries in (0, 1, 2, None):
            ref = gaussian_elimination(sysm, pivot_tries=tries)
            ctx = MaskingContext(F16, 2, seed=9)
            got = masked_solve(ctx, sysm, pivot_tries=tries)
            assert (got.x, got.singular, got.fail_index) == (
                ref.x, ref.singular, ref.fail_index)

    def test_m1_edge(self):
        for v, rhs in ((3, 7), (1, 0)):
            sysm = LinearSystem(F16, [[v]], [rhs])
            ctx = MaskingContext(F16, 2, seed=4)
            assert masked_solve(ctx, sysm).x == (F16.mul(F16.inv(v), rhs),)
        sysm = LinearSystem(F16, [[0]], [5])
        ctx = MaskingContext(F16, 2, seed=4)
        got = masked_solve(ctx, sysm)
        assert got.singular and got.fail_index == 0


class TestValidation:
    def test_nonsquare_rejected(self):
        with pytest.raises(LengthMismatch):
            LinearSystem(F16, [[1, 2], [3, 4], [5, 6]], [1, 2, 3])
        with pytest.raises(LengthMismatch):
            LinearSystem(F16, [[1, 2, 3], [4, 5, 6]], [1, 2])

    def test_rhs_length_rejected(self):
        with pytest.raises(LengthMismatch):
            LinearSystem(F16, [[1, 2], [3, 4]], [1])

    def test_empty_rejected(self):
        with pytest.raises(LengthZero):
            LinearSystem(F16, [], [])

    def test_out_of_range_entries_rejected(self):
        with pytest.raises(ValueError):
            LinearSystem(F16, [[16, 0], [0, 1]], [0, 0])
        with pytest.raises(ValueError):
            LinearSystem(F16, [[1, 0], [0, 1]], [0, -1])

    @pytest.mark.parametrize("w", [8, 2])
    def test_context_over_another_field_rejected_before_any_draw(self, w):
        # a GF(256) context used to solve a GF(16) system with no error
        # and a wrong solution
        sysm = random_system(F16, 4, random.Random(5))
        ctx = MaskingContext(FieldSpec(w), 3, seed=9)
        state = ctx.rng._state
        with pytest.raises(FieldMismatch):
            masked_solve(ctx, sysm)
        assert ctx.rng._state == state
        assert ctx.counters.snapshot() == (0, 0, 0)
        # an equal field built apart from the cache is the same field
        ctx = MaskingContext(FieldSpec(4), 3, seed=9)
        assert masked_solve(ctx, sysm) == gaussian_elimination(sysm)

    def test_system_is_immutable(self):
        sysm = LinearSystem(F16, [[1, 0], [0, 1]], [2, 3])
        with pytest.raises(AttributeError):
            sysm.m = 5
        assert isinstance(sysm.a[0], tuple)

    def test_system_copies_through_its_constructor(self):
        # copy rebuilds through the validating constructor, which takes no m
        sysm = LinearSystem(F16, [[1, 0], [0, 1]], [2, 3])
        dup = copy.copy(sysm)
        assert dup == sysm and type(dup) is LinearSystem and dup.m == 2

    def test_system_deep_copies_and_pickles(self):
        sysm = random_system(F16, 3, random.Random(2))
        for dup in (copy.deepcopy(sysm), pickle.loads(pickle.dumps(sysm))):
            assert dup == sysm and type(dup) is LinearSystem
            assert dup.field is F16
            assert masked_solve(MaskingContext(dup.field, 2, seed=1),
                                dup) == gaussian_elimination(sysm)

    def test_make_and_replace_validate_as_the_constructor_does(self):
        sysm = LinearSystem(F16, [[1, 0], [0, 1]], [2, 3])
        with pytest.raises(LengthMismatch):
            sysm._replace(b=[1])
        with pytest.raises(ValueError):
            sysm._replace(a=[[16, 0], [0, 1]])
        with pytest.raises(ValueError):
            LinearSystem._make((F16, [[1, 0], [0, 1]], [0, -1]))
        with pytest.raises(LengthZero):
            LinearSystem._make((F16, [], []))
        dup = sysm._replace(b=[1, 1])
        assert type(dup) is LinearSystem and dup.b == (1, 1)
        assert isinstance(dup.a[0], tuple) and dup.a == sysm.a

    def test_m_is_the_row_count_and_is_never_stored(self):
        sysm = random_system(F16, 3, random.Random(4))
        assert sysm.m == len(sysm.a) == 3
        assert sysm._fields == ("field", "a", "b")
        with pytest.raises(ValueError, match="'m'"):
            sysm._replace(m=3)

    def test_replace_validates_and_derives_m_again(self):
        sysm = LinearSystem(F16, [[1, 0], [0, 1]], [2, 3])
        three = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        big = sysm._replace(a=three, b=[1, 2, 3])
        assert type(big) is LinearSystem and big.m == 3
        assert big.a == tuple(map(tuple, three)) and big.b == (1, 2, 3)
        assert sysm._replace(a=[[7]], b=[1]).m == 1
        with pytest.raises(LengthMismatch):
            sysm._replace(a=three)  # b keeps its two entries
        with pytest.raises(LengthZero):
            sysm._replace(a=[], b=[])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2 ** 62),
       st.integers(2, 4))
def test_masked_matches_reference_property(w, m, seed, n):
    field = field_new(w)
    rng = random.Random(seed)
    sysm = random_system(field, m, rng, invertible=False)
    ref = gaussian_elimination(sysm)
    ctx = MaskingContext(field, n, seed=seed)
    got = masked_solve(ctx, sysm)
    assert (got.x, got.singular, got.fail_index) == (
        ref.x, ref.singular, ref.fail_index)
    if ref.x is not None:
        assert residual(sysm, ref.x) == [0] * m


# ------------------------------------------- packed path against scalar


@pytest.mark.parametrize("m", range(1, 11))
@pytest.mark.parametrize("field", [F16, F256], ids=["gf16", "gf256"])
def test_traced_and_untraced_solves_agree(field, m):
    # a traced context runs the scalar row gadgets, an untraced one the
    # packed ones; shares never differ, so neither do x, counters or tape
    rng = random.Random(1000 * field.w + m)
    systems = [random_system(field, m, rng, invertible=False),
               singular_system(field, m, rng)]
    for sysm in systems:
        n = 2 + rng.randrange(3)
        seed = rng.getrandbits(64)
        traced = MaskingContext(field, n, seed=seed)
        traced.trace = []
        packed = MaskingContext(field, n, seed=seed)
        want = masked_solve(traced, sysm)
        assert masked_solve(packed, sysm) == want
        assert packed.counters.snapshot() == traced.counters.snapshot()
        assert packed.rng._state == traced.rng._state
    assert want.singular  # the rank-deficient system aborts on both paths


@pytest.mark.parametrize("field, n, singular", [
    (F256, 2, False), (F256, 3, False), (F256, 2, True)],
    ids=["n2", "n3", "n2-singular"])
def test_traced_and_untraced_solves_agree_at_m44(field, n, singular):
    # the uov-ip size: long live tails, 946 row-gadget calls per kind
    rng = random.Random(44 * n + singular)
    sysm = (singular_system(field, 44, rng) if singular
            else random_system(field, 44, rng, invertible=False))
    seed = rng.getrandbits(64)
    traced = MaskingContext(field, n, seed=seed)
    traced.trace = []
    packed = MaskingContext(field, n, seed=seed)
    want = masked_solve(traced, sysm)
    assert masked_solve(packed, sysm) == want
    assert packed.counters.snapshot() == traced.counters.snapshot()
    assert packed.rng._state == traced.rng._state
    assert want.singular == singular
    assert want == gaussian_elimination(sysm)


def test_solver_import_loads_no_numpy_dataclasses_inspect_or_statistics():
    # each costs every fresh interpreter start-up time: numpy only the
    # statistical probing lab needs, and the CLI loads it on demand;
    # dataclasses pulls in inspect, ast and dis, so the solver's records
    # are named tuples; statistics only `mge bench` reads
    code = ("import sys, mge.linalg, mge.costmodel, mge.cli\n"
            "print([m for m in ('numpy', 'dataclasses', 'inspect',\n"
            "                   'statistics') if m in sys.modules])\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
