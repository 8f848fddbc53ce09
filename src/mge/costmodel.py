"""The gadget table, closed-form costs, and the scheme table.

GADGET_SPECS declares every gadget once: its callable, input kinds,
closed forms and the probing lab's default secrets. MaskingContext
charges each draw and its bits as it is made, and each gadget counts
every op it executes, one per uniform draw included, but for two kinds
of call that charge closed forms: the packed row kernels (mge.rowops)
add their op forms, and sec_nonzero (mge.masking) sets ops and bits on
return to their values on entry plus its forms. Every closed form
lives in this table, and masking.closed_forms is its one reader at run
time. A composite's form sums its parts'. t_cost / r_cost return the
forms in exact integer arithmetic.

ech_phases declares the elimination's cost once, one row per phase of
sec_row_ech named as its T_ech term: the gadget calls and public ops of
one step, and the step count as charged and as executed. T_ech and
R_ech sum the charged phases, composing t_cost and r_cost alike. The
charged count is the full-slice one: cond_add and mult_sub are charged
S(m) unit calls, while the loops, at the column with i rows left, make
i-1 calls on a slice of length i+1, S(m) - m in all. pipeline_slip,
charged minus executed, is the exact gap between the pipeline form and
a measured solve: m*(T_ca(1)+T_ms(1)) ops, m*(R_ca(1)+R_ms(1)) bits.

The scheme comparison table scales ops by 1/8192 and random bits by
1/1000. Reproducing the tabulated integers takes two charging
conventions. First, the full-slice count above: charging the executed
counts instead moves 82 of the 93 randomness cells and all six
randomness anchors off the snapshot. Second, a scalar-mult variant for
ops only: inside the table, scalar multiplication charges the refresh
without its output copy (4n^2-2n per coefficient instead of 5n^2-3n),
so tabulated_pipeline_ops subtracts n^2-n per scaled coefficient.
Randomness needs no further variant. PRINTED_TABLE is the frozen
snapshot being reproduced, within CELL_TOLERANCE;
KNOWN_SNAPSHOT_DEVIATIONS lists the cells where the snapshot is
internally inconsistent (one row duplicates the randomness of a smaller
parameter set) and cannot be matched.
"""

from __future__ import annotations

import random
from collections import namedtuple
from math import comb
from operator import sub

from .gf import field_new
from .masking import (
    MaskingContext,
    b2m,
    b2minv,
    bool_share,
    full_add,
    refresh,
    sec_and,
    sec_mult,
    sec_nonzero,
    sec_not,
    sec_or,
    strong_refresh,
)
from .linalg import random_system, sec_back_sub, sec_row_ech, share_system
from .rowops import row_share, sec_cond_add, sec_mult_sub, sec_scalar_mult

OPS_DIVISOR = 8192
RAND_DIVISOR = 1000


def w_eff(q: int) -> int:
    """Bits needed for one element of a size-q field."""
    return (q - 1).bit_length()


# ------------------------------------------------------------ gadget table


class GadgetSpec(namedtuple("GadgetSpec", "name fn kinds t r needs_w secrets",
                            defaults=(False, ()))):
    """One gadget: callable, input kinds, closed forms, default secrets.

    kinds, one per input in call order: "bool" (Boolean sharing of a
    field element), "nonzero" (the same of a nonzero one), "bit" (of one
    bit), "mult" (multiplicative sharing), "row" (shared row of length
    size), "system" (shared random invertible system of size m) and
    "echelon" (the same after sec_row_ech). t and r map (n, size, w) to
    the closed-form ops and random bits. needs_w marks op forms that
    read w. secrets are the probing lab's default assignments, covering
    zero and edge cases where the domain allows; none: not checked there.
    """

    __slots__ = ()

    @property
    def sized(self) -> bool:
        return not _SIZED_KINDS.isdisjoint(self.kinds)


_SIZED_KINDS = frozenset({"row", "system", "echelon"})
_MATRIX_KINDS = frozenset({"system", "echelon"})


def _pair_bits(n, l, w):
    # one fresh w-bit random per share pair
    return (n * n - n) // 2 * w


def _isw_ops(n, l, w):
    return (7 * n * n - 5 * n) // 2


def ech_phases(m: int) -> dict:
    """phase -> (its (gadget, size) calls and public ops per step, and
    its step count as charged and as executed)."""
    p = (m * m - m) // 2                    # P(m): pivot tries
    c = (m * m + 3 * m) // 2                # C(m): coefficients scaled
    s = (2 * m ** 3 + 3 * m * m + m) // 6   # S(m): sum of i^2, i = 1..m
    e = s - m  # with i rows left: i-1 calls on slices of length i+1
    return {
        "pivot_nonzero": ((("sec_nonzero", None), ("sec_not", None)), 0, p, p),
        "cond_add": ((("sec_cond_add", 1),), 0, s, e),
        "liveness": ((("sec_nonzero", None), ("full_add", None)), 1, m, m),
        "b2minv": ((("b2minv", None),), 0, m, m),
        "scaling": ((("sec_scalar_mult", 1),), 0, c, c),
        "factor_refresh": ((("strong_refresh", None),), 0, p, p),
        "mult_sub": ((("sec_mult_sub", 1),), 0, s, e),
    }


def ech_phase_costs(n: int, m: int, w: int, executed: bool = False) -> dict:
    """(ops, bits) per phase at the charged, or the executed, step counts."""
    out = {}
    for phase, (calls, public, charged, run) in ech_phases(m).items():
        k = run if executed else charged
        out[phase] = (
            k * (sum(t_cost(g, n, l, w=w) for g, l in calls) + public),
            k * sum(r_cost(g, n, l, w=w) for g, l in calls))
    return out


def _ech_total(n, m, w, executed=False):
    return tuple(map(sum, zip(*ech_phase_costs(n, m, w, executed).values())))


def pipeline_slip(n: int, m: int, w: int) -> tuple[int, int]:
    """Charged minus executed (ops, bits) of one elimination."""
    return tuple(map(sub, _ech_total(n, m, w), _ech_total(n, m, w, True)))


def _eliminate(ctx, rows):
    # masked_solve without the sharing; the random systems that
    # counter_vs_formula builds are invertible, so nothing aborts
    sec_row_ech(ctx, rows)
    return sec_back_sub(ctx, rows)


def _each(values):
    return tuple((v,) for v in values)


_B = _each((0, 1, 2, 5, 7, 8, 0xA, 0xF))
_NZ = _each((1, 2, 3, 5, 8, 0xA, 0xD, 0xF))
_PAIRS = ((0, 0), (0, 5), (1, 1), (1, 0xF), (3, 7), (5, 0xA), (0xF, 0xF),
          (9, 2), (0xB, 0x6))

GADGET_SPECS = (
    GadgetSpec("refresh", refresh, ("bool",),
               t=lambda n, l, w: 4 * n - 3,
               r=lambda n, l, w: (n - 1) * w, secrets=_B),
    GadgetSpec("strong_refresh", strong_refresh, ("bool",),
               t=lambda n, l, w: (3 * n * n - 3 * n) // 2, r=_pair_bits,
               secrets=_B),
    GadgetSpec("full_add", full_add, ("bool",),
               t=lambda n, l, w: t_cost("strong_refresh", n) + n - 1,
               r=_pair_bits),
    GadgetSpec("sec_mult", sec_mult, ("bool", "bool"),
               t=_isw_ops, r=_pair_bits, secrets=_PAIRS),
    GadgetSpec("sec_and", sec_and, ("bool", "bool"),
               t=_isw_ops, r=_pair_bits, secrets=_PAIRS),
    GadgetSpec("sec_not", sec_not, ("bit",),
               t=lambda n, l, w: 1, r=lambda n, l, w: 0),
    GadgetSpec("sec_or", sec_or, ("bool", "bool"),
               t=lambda n, l, w: 2 * n + _isw_ops(n, l, w) + 1, r=_pair_bits),
    # L = ceil(log2(w+1)) fold levels, which is w.bit_length() for w >= 1
    GadgetSpec("sec_nonzero", sec_nonzero, ("bool",),
               t=lambda n, l, w: (5 * n * n + 2 * n - 1
                                  + w.bit_length() * (5 * n * n - n + 2)),
               r=lambda n, l, w: comb(w.bit_length(), 2) * (n * n - n),
               needs_w=True,
               secrets=_each((0, 1, 2, 4, 5, 7, 8, 0xA, 0xF))),
    GadgetSpec("b2m", b2m, ("nonzero",),
               t=lambda n, l, w: (5 * n * n - 7 * n + 4) // 2,
               r=_pair_bits, secrets=_NZ),
    GadgetSpec("b2minv", b2minv, ("nonzero",),
               t=lambda n, l, w: t_cost("b2m", n) + n, r=_pair_bits,
               secrets=_NZ),
    GadgetSpec("sec_cond_add", sec_cond_add, ("bit", "row", "row"),
               t=lambda n, l, w: (5 * n * n - 3 * n) * l,
               r=lambda n, l, w: l * (r_cost("sec_and", n, w=w)
                                      + r_cost("strong_refresh", n, w=w)),
               secrets=((0, 0, 0), (1, 0, 0), (0, 5, 9), (1, 5, 9),
                        (1, 0xF, 0xF), (0, 1, 0xF), (1, 0, 7), (1, 1, 1),
                        (0, 0xA, 3))),
    GadgetSpec("sec_scalar_mult", sec_scalar_mult, ("mult", "row"),
               # scaling charges per coefficient what conditional addition does
               t=lambda n, l, w: t_cost("sec_cond_add", n, l),
               r=lambda n, l, w: l * n * r_cost("refresh", n, w=w),
               secrets=((1, 0), (1, 5), (2, 0), (2, 9), (0xF, 0xF), (3, 1),
                        (7, 0xA), (5, 5))),
    GadgetSpec("sec_mult_sub", sec_mult_sub, ("bool", "row", "row"),
               t=lambda n, l, w: (7 * n * n - 3 * n) // 2 * l,
               r=lambda n, l, w: l * r_cost("sec_mult", n, w=w),
               secrets=((0, 0, 0), (1, 1, 1), (0, 5, 9), (2, 7, 3),
                        (0xF, 0xF, 0xF), (5, 0, 0xA), (8, 2, 0), (1, 0xF, 0),
                        (6, 6, 6))),
    GadgetSpec("sec_row_ech", sec_row_ech, ("system",),
               t=lambda n, m, w: _ech_total(n, m, w)[0],
               r=lambda n, m, w: _ech_total(n, m, w)[1], needs_w=True),
    GadgetSpec("sec_back_sub", sec_back_sub, ("echelon",),
               t=lambda n, m, w: m * t_cost("full_add", n) + n * m * (m - 1),
               r=lambda n, m, w: m * r_cost("full_add", n, w=w)),
    GadgetSpec("pipeline", _eliminate, ("system",),
               t=lambda n, m, w: (t_cost("sec_row_ech", n, m, w=w)
                                  + t_cost("sec_back_sub", n, m)),
               r=lambda n, m, w: (r_cost("sec_row_ech", n, m, w=w)
                                  + r_cost("sec_back_sub", n, m, w=w)),
               needs_w=True),
)

_BY_NAME = {g.name: g for g in GADGET_SPECS}


def _check_args(gadget: str, size, w, n) -> GadgetSpec:
    spec = _BY_NAME.get(gadget)
    if spec is None:
        raise ValueError(f"unknown gadget {gadget!r}")
    if n < 2:
        raise ValueError(f"forms assume n >= 2 shares, got {n}")
    if spec.sized:
        if size is None:
            raise ValueError(f"{gadget} needs a size")
    elif size is not None:
        raise ValueError(f"{gadget} takes no size")
    if spec.needs_w and w is None:
        raise ValueError(f"{gadget} needs w")
    return spec


def t_cost(gadget: str, n: int, size: int | None = None,
           w: int | None = None) -> int:
    """Closed-form op count; size is l for row gadgets, m for matrix ones."""
    return _check_args(gadget, size, w, n).t(n, size, w)


def r_cost(gadget: str, n: int, size: int | None = None,
           w: int | None = None) -> int:
    """Closed-form randomness in bits; same size conventions as t_cost."""
    spec = _check_args(gadget, size, w, n)
    if w is None:
        raise ValueError("r_cost needs w")
    return spec.r(n, size, w)


def tabulated_pipeline_ops(n: int, m: int, w: int) -> int:
    """Pipeline ops under the table's scalar-mult charging variant."""
    _, _, scaled, _ = ech_phases(m)["scaling"]
    return t_cost("pipeline", n, m, w=w) - scaled * (n * n - n)


def _div_round(a: int, d: int) -> int:
    # round half up without floating point
    return (2 * a + d) // (2 * d)


# ------------------------------------------------------------- parameters


class ParamSet(namedtuple("ParamSet", "label scheme level q m")):
    __slots__ = ()

    @property
    def w(self) -> int:
        return w_eff(self.q)


PARAM_SETS = (
    ParamSet("uov-ip", "uov", "Ip", 256, 44),
    ParamSet("uov-is", "uov", "Is", 16, 64),
    ParamSet("uov-iii", "uov", "III", 256, 72),
    ParamSet("uov-v", "uov", "V", 256, 96),
    ParamSet("mayo-i", "mayo", "I", 16, 64),
    ParamSet("mayo-iii", "mayo", "III", 16, 96),
    ParamSet("mayo-v", "mayo", "V", 16, 128),
    ParamSet("qruov-i-q7-m100", "qruov", "I", 7, 100),
    ParamSet("qruov-i-q31-m60", "qruov", "I", 31, 60),
    ParamSet("qruov-i-q31-m70", "qruov", "I", 31, 70),
    ParamSet("qruov-i-q127-m54", "qruov", "I", 127, 54),
    ParamSet("qruov-iii-q7-m140", "qruov", "III", 7, 140),
    ParamSet("qruov-iii-q31-m87", "qruov", "III", 31, 87),
    ParamSet("qruov-iii-q31-m100", "qruov", "III", 31, 100),
    ParamSet("qruov-iii-q127-m78", "qruov", "III", 127, 78),
    ParamSet("qruov-v-q7-m190", "qruov", "V", 7, 190),
    ParamSet("qruov-v-q31-m114", "qruov", "V", 31, 114),
    ParamSet("qruov-v-q31-m120", "qruov", "V", 31, 120),
    ParamSet("qruov-v-q127-m105", "qruov", "V", 127, 105),
    ParamSet("snova-i-m68", "snova", "I", 16, 68),
    ParamSet("snova-i-m72", "snova", "I", 16, 72),
    ParamSet("snova-i-m80", "snova", "I", 16, 80),
    ParamSet("snova-iii-m100", "snova", "III", 16, 100),
    ParamSet("snova-iii-m99", "snova", "III", 16, 99),
    ParamSet("snova-iii-m128", "snova", "III", 16, 128),
    ParamSet("snova-v-m132", "snova", "V", 16, 132),
    ParamSet("snova-v-m135", "snova", "V", 16, 135),
    ParamSet("snova-v-m160", "snova", "V", 16, 160),
    ParamSet("mqsign-i", "mqsign", "I", 256, 46),
    ParamSet("mqsign-iii", "mqsign", "III", 256, 72),
    ParamSet("mqsign-v", "mqsign", "V", 256, 96),
)

PRESETS = {p.label: p for p in PARAM_SETS}

# Frozen snapshot being reproduced: label -> ((ops n=2,3,4), (rand n=2,3,4)).
PRINTED_TABLE = {
    "uov-ip": ((105, 260, 482), (742, 2226, 4452)),
    "uov-is": ((300, 747, 1392), (1112, 3336, 6671)),
    "uov-iii": ((428, 1065, 1986), (3146, 9437, 18873)),
    "uov-v": ((985, 2459, 4590), (7360, 22079, 44158)),
    "mayo-i": ((300, 747, 1392), (1112, 3336, 6671)),
    "mayo-iii": ((973, 2434, 4546), (3680, 11040, 22079)),
    "mayo-v": ((2263, 5670, 10597), (8638, 25914, 51827)),
    "qruov-i-q7-m100": ((1084, 2717, 5076), (3102, 9306, 18612)),
    "qruov-i-q31-m60": ((249, 619, 1155), (1147, 3441, 6881)),
    "qruov-i-q31-m70": ((388, 968, 1806), (1806, 5417, 10834)),
    "qruov-i-q127-m54": ((184, 457, 852), (1175, 3524, 7048)),
    "qruov-iii-q7-m140": ((2922, 7333, 13712), (8431, 25292, 50584)),
    "qruov-iii-q31-m87": ((730, 1825, 3407), (3432, 10295, 20590)),
    "qruov-iii-q31-m100": ((1097, 2744, 5125), (5184, 15550, 31100)),
    "qruov-iii-q127-m78": ((531, 1327, 2476), (3472, 10415, 20829)),
    "qruov-v-q7-m190": ((7217, 18131, 33918), (20942, 62825, 125650)),
    "qruov-v-q31-m114": ((1610, 4032, 7533), (7646, 22937, 45873)),
    "qruov-v-q31-m120": ((1872, 4689, 8761), (8904, 26710, 53419)),
    "qruov-v-q127-m105": ((1265, 3166, 5914), (8373, 25119, 50237)),
    "snova-i-m68": ((357, 890, 1660), (1329, 3987, 7974)),
    "snova-i-m72": ((421, 1051, 1961), (1573, 4719, 9437)),
    "snova-i-m80": ((572, 1428, 2666), (2147, 6439, 12877)),
    "snova-iii-m100": ((1097, 2744, 5125), (2147, 6439, 12877)),
    "snova-iii-m99": ((1065, 2664, 4976), (4031, 12093, 24186)),
    "snova-iii-m128": ((2263, 5670, 10597), (8638, 25914, 51827)),
    "snova-v-m132": ((2477, 6209, 11604), (9465, 28395, 56789)),
    "snova-v-m135": ((2647, 6634, 12400), (10119, 30356, 60712)),
    "snova-v-m160": ((4369, 10959, 20489), (16773, 50317, 100634)),
    "mqsign-i": ((119, 294, 547), (845, 2534, 5068)),
    "mqsign-iii": ((428, 1065, 1986), (3146, 9437, 18873)),
    "mqsign-v": ((985, 2459, 4590), (7360, 22079, 44158)),
}

# snova-iii-m100 prints the randomness of snova-i-m80 (m=80) in all three
# share columns; the m=100 formulas cannot reproduce those duplicated cells.
KNOWN_SNAPSHOT_DEVIATIONS = (
    ("snova-iii-m100", "rand", 2),
    ("snova-iii-m100", "rand", 3),
    ("snova-iii-m100", "rand", 4),
)


CostRow = namedtuple("CostRow", "label scheme level q m n ops_total "
                     "ops_scaled rand_bits rand_scaled")


def cost_row(param: ParamSet, n: int) -> CostRow:
    w = param.w
    ops = tabulated_pipeline_ops(n, param.m, w)
    rand = r_cost("pipeline", n, param.m, w=w)
    return CostRow(
        label=param.label, scheme=param.scheme, level=param.level,
        q=param.q, m=param.m, n=n,
        ops_total=ops, ops_scaled=_div_round(ops, OPS_DIVISOR),
        rand_bits=rand, rand_scaled=_div_round(rand, RAND_DIVISOR),
    )


def cost_table(orders=(2, 3, 4), params=None) -> list[CostRow]:
    """Rows in table order, each parameter set over ascending n."""
    if params is None:
        params = PARAM_SETS
    return [cost_row(p, n) for p in params for n in sorted(orders)]


CSV_HEADER = "scheme,level,q,m,n,ops_total,ops_scaled,rand_bits,rand_scaled"


def to_csv(rows: list[CostRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.scheme},{r.level},{r.q},{r.m},{r.n},{r.ops_total},"
            f"{r.ops_scaled},{r.rand_bits},{r.rand_scaled}"
        )
    return "\n".join(lines) + "\n"


# How far a scaled cell may sit from PRINTED_TABLE, per column
CELL_TOLERANCE = {"ops": 2, "rand": 1}


def verify_rows(rows: list[CostRow]) -> list[dict]:
    """Mismatches of scaled cells against PRINTED_TABLE beyond
    CELL_TOLERANCE."""
    bad = []
    for r in rows:
        want = PRINTED_TABLE.get(r.label)
        if want is None or r.n not in (2, 3, 4):
            continue
        for column, got, cells in (("ops", r.ops_scaled, want[0]),
                                   ("rand", r.rand_scaled, want[1])):
            if abs(got - cells[r.n - 2]) > CELL_TOLERANCE[column]:
                bad.append({"label": r.label, "q": r.q, "m": r.m, "n": r.n,
                            "column": column, "got": got,
                            "want": cells[r.n - 2]})
    return bad


# --------------------------------------------- counters versus the forms


class CounterCheck(namedtuple("CounterCheck", "gadget n w size ops_run "
                                "ops_form bits_run bits_form")):
    __slots__ = ()

    @property
    def exact(self) -> bool:
        return self.ops_run == self.ops_form and self.bits_run == self.bits_form


def _random_input(ctx, rng, kind, size):
    q = ctx.field.q
    if kind == "row":
        return row_share(ctx, [rng.randrange(q) for _ in range(size)])
    if kind == "mult":
        return [rng.randrange(1, q) for _ in range(ctx.n)]
    if kind in _MATRIX_KINDS:
        rows = share_system(ctx, random_system(ctx.field, size, rng))
        if kind == "echelon":
            sec_row_ech(ctx, rows)
        return rows
    lo, hi = {"bool": (0, q), "nonzero": (1, q), "bit": (0, 2)}[kind]
    return bool_share(ctx, rng.randrange(lo, hi))


def counter_vs_formula(gadget: str, n: int, w: int = 8,
                       size: int | None = None, seed: int = 1) -> CounterCheck:
    """Run one gadget on random inputs and compare counter deltas.

    Unit and row gadgets run traced, on the scalar reference; the
    matrix ones run untraced, on the packed paths.
    """
    spec = _check_args(gadget, size, w, n)
    ctx = MaskingContext(field_new(w), n, seed=seed)
    rng = random.Random(seed ^ 0x5A5A5A)
    args = [_random_input(ctx, rng, kind, size) for kind in spec.kinds]
    if _MATRIX_KINDS.isdisjoint(spec.kinds):
        # a throwaway probe trace runs the scalar reference: its executed
        # counts, not the packed paths' closed-form charges, meet the forms
        ctx.trace = []
    before = ctx.counters.snapshot()
    spec.fn(ctx, *args)
    after = ctx.counters.snapshot()
    return CounterCheck(
        gadget=gadget, n=n, w=w, size=size,
        ops_run=after[0] - before[0],
        ops_form=spec.t(n, size, w),
        bits_run=after[2] - before[2],
        bits_form=spec.r(n, size, w),
    )
