"""First-order probing checks for the gadget zoo and the solver.

Probe granularity: one point per unit operation that produces a
share-derived wire, matching the cost-counter charging. Vector-level
copies collapse to a single point carrying share 0 (each copied wire
duplicates a wire already visible upstream). Points are identified by
stable label tuples (gadget, tag, *indices); the sequence of labels is
data-independent, so one labeled run fixes point identities for a whole
campaign. Labels whose tag starts with "pub" are sanctioned public
outputs (pivot liveness bits, opened solution entries) and are skipped
by the checkers.

Two checking modes:

* exhaustive: run every input sharing on every randomness tape, count
  each point's values per secret (the exact per-point distribution),
  and demand identical counts across secrets. This is the real
  first-order probing condition, feasible for one-coefficient gadgets
  on small fields. The runs go through the traced gadget code in
  chunks of at most LANE_CHUNK (8192): every input share and every
  draw is a Lanes vector, a uint8 ndarray with one lane per run, and
  the field is a LaneField whose products and inverses are numpy views
  of the FieldSpec's tables. A Lanes vector's augmented ^=, &= and |= rebind
  rather than write in place, as on ints, and its bool() is true when
  any lane is: a zero test raises if one run of the chunk would.
  Each call keeps a memo from a wire vector's exact bytes to its
  histogram, so each distinct vector is counted once per call, by one
  np.bincount, and a chunk's counts are its points' histograms, stacked
  and added at once. A key hashes at most 64 evenly spaced lanes of its
  vector, and the memo compares whole keys on every hash match, so
  equal keys still mean equal vectors. The memo's keys and histograms
  never exceed TABLE_BYTES (4 MiB): a new vector that would take them
  past empties the memo first, and one that no memo within it could
  hold is counted but not stored. Memory is bounded per chunk, whatever
  the run count: uint8 vectors for shares, draws and wires (8 KiB each
  at 8192 lanes), the draws cut from one tape cycle tiled per check;
  the memo; the counts, points x q int64 per secret, summed into the
  verdicts' ints.

* statistical: fixed-vs-random sampling with Welch's t on the first
  moment and on the non-centered second moment per point (the second
  moment catches equal-mean distribution splits). A point fails when
  either |t| crosses the threshold. Each class counts its points'
  values in a points x q table, filled by one np.bincount per buffered
  batch of traces, and its power sums come from the counts as exact
  integers.

Three deliberately broken registry entries exist for checker-power
tests: refresh_broken reuses a live share as its mask, sec_mult_broken
multiplies a sharing by itself without refreshing one operand, and
sec_nonzero_broken collapses its input into a single wire first.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import costmodel as cm
from .gf import FieldSpec, ZeroInverse, field_new
from .linalg import gaussian_elimination, masked_solve, random_system
from .masking import (
    DEFAULT_SEED,
    DomainTape,
    MaskingContext,
    ReplayTape,
    SeededTape,
    check_share_count,
    sec_mult,
    sec_nonzero,
)
from .rowops import PackedRow, sec_cond_add, sec_mult_sub, sec_scalar_mult

ENUMERATION_CAP = 1 << 28
_GF16 = field_new(4)  # the field of every entry point given none


class EnumerationTooLarge(ValueError):
    """Exhaustive domain exceeds the enumeration cap."""


class UnknownGadget(KeyError):
    pass


def label_id(label) -> str:
    g, tag = label[0], label[1]
    if len(label) > 2:
        idx = ",".join(str(i) for i in label[2:])
        return f"{g}.{tag}[{idx}]"
    return f"{g}.{tag}"


def is_public(label) -> bool:
    return label[1].startswith("pub")


@dataclass(frozen=True)
class ProbeTrace:
    ids: tuple
    labels: tuple
    values: tuple


@dataclass(frozen=True)
class LeakVerdict:
    point_id: str
    mode: str
    statistic: float | None
    samples: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "point_id": self.point_id,
            "mode": self.mode,
            "statistic": self.statistic,
            "samples": self.samples,
            "pass": self.passed,
        }


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class ProbeSpec:
    """One checkable gadget: input kinds, runner, default secrets.

    kinds entries are those of mge.costmodel.GadgetSpec, with a row
    input checked as a one-coefficient row: its runner takes a "bool"
    sharing in its place. run takes the context and one flat sharing
    per input. secrets holds >= 8 assignments, one value per input.
    """

    name: str
    kinds: tuple
    run: object
    secrets: tuple
    broken: bool = False


# a one-coefficient PackedRow's share ints are the sharing itself
def _run_cond_add(ctx, b, x, y):
    sec_cond_add(ctx, b, PackedRow(x, 1), PackedRow(y, 1))


def _run_scalar_mult(ctx, p, x):
    sec_scalar_mult(ctx, p, PackedRow(x, 1))


def _run_mult_sub(ctx, c, x, y):
    sec_mult_sub(ctx, c, PackedRow(x, 1), PackedRow(y, 1))


_ONE_COEFFICIENT = {
    "sec_cond_add": _run_cond_add,
    "sec_scalar_mult": _run_scalar_mult,
    "sec_mult_sub": _run_mult_sub,
}


def _run_self_mult(ctx, x):
    # broken by construction: both operands alias one sharing, so the
    # cross products touch both shares of the same secret
    sec_mult(ctx, x, x)


def _run_refresh_reused(ctx, x):
    n = ctx.n
    c = ctx.counters
    y = list(x)
    c.ops += n
    tr = ctx.trace
    if tr is not None:
        put, lab = tr.append, ctx.trace_labels
        put(y[0]) if lab is None else ctx.emit(y[0],
                                               ("refresh_broken", "cp"))
    for i in range(1, n):
        r = y[0]  # stale mask: a live share stands in for a fresh draw
        y[0] ^= r
        y[i] ^= r
        c.ops += 2
        if tr is not None:
            put(r) if lab is None else ctx.emit(r,
                                                ("refresh_broken", "r", i))
            put(y[0]) if lab is None else ctx.emit(y[0],
                                                   ("refresh_broken", "y0", i))
            put(y[i]) if lab is None else ctx.emit(y[i],
                                                   ("refresh_broken", "yi", i))
    return y


def _run_nonzero_unmasked(ctx, x):
    u = 0
    for v in x:
        u ^= v
    ctx.counters.ops += ctx.n - 1
    tr = ctx.trace
    if tr is not None:
        lab = ctx.trace_labels
        tr.append(u) if lab is None else ctx.emit(u,
                                                  ("snz_broken", "collapse"))
    t = [0] * ctx.n
    t[0] = u
    return sec_nonzero(ctx, t)


def _registry() -> dict:
    reg = {}
    for g in cm.GADGET_SPECS:
        if g.secrets:
            reg[g.name] = ProbeSpec(
                g.name, tuple("bool" if k == "row" else k for k in g.kinds),
                _ONE_COEFFICIENT[g.name] if "row" in g.kinds else g.fn,
                g.secrets)
    # a broken variant takes the inputs and secrets of a one-input gadget
    for name, run, like in (
            ("refresh_broken", _run_refresh_reused, "refresh"),
            ("sec_mult_broken", _run_self_mult, "refresh"),
            ("sec_nonzero_broken", _run_nonzero_unmasked, "sec_nonzero")):
        g = reg[like]
        reg[name] = ProbeSpec(name, g.kinds, run, g.secrets, broken=True)
    return reg


REGISTRY: dict[str, ProbeSpec] = _registry()


def gadget_names(include_broken: bool = True) -> list[str]:
    return [k for k, v in REGISTRY.items() if include_broken or not v.broken]


def lookup(name: str) -> ProbeSpec:
    """Registry entry by name, ignoring case, hyphens and underscores."""
    flat = name.lower().replace("-", "").replace("_", "")
    for key, spec in REGISTRY.items():
        if key.replace("_", "") == flat:
            return spec
    raise UnknownGadget(name)


# -------------------------------------------------------- input enumeration
# Each kind's share and secret ranges are costmodel.share_space and
# secret_space; a row input is enumerated as one "bool" coefficient.


def _fit_secrets(spec: ProbeSpec, field: FieldSpec) -> tuple:
    """Default secret assignments restricted to the field's domain.

    The registry defaults target GF(16); on smaller fields the
    out-of-range assignments are dropped rather than wrapped, keeping
    every component a legal input of its kind.
    """
    kept = tuple(
        sec for sec in spec.secrets
        if all(sec[i] in cm.secret_space(kind, field)
               for i, kind in enumerate(spec.kinds))
    )
    if len(kept) < 2:
        raise ValueError(
            f"fewer than two default secrets of {spec.name} fit GF({field.q})")
    return kept


def _check_secrets(spec: ProbeSpec, field: FieldSpec, secrets: tuple,
                   least: int) -> None:
    """Raise ValueError unless there are at least `least` assignments,
    pairwise distinct, each with one value per input inside that input's
    secret space: a secret compared with itself proves nothing."""
    if len(secrets) < least:
        raise ValueError(f"{spec.name} needs at least {least} secret "
                         f"assignments, got {len(secrets)}: {secrets!r}")
    arity = len(spec.kinds)
    for sec in secrets:
        if not isinstance(sec, (tuple, list)) or len(sec) != arity:
            raise ValueError(f"secret assignment {sec!r} of {spec.name} "
                             f"must hold {arity} value(s), one per input")
        for v, kind in zip(sec, spec.kinds):
            if v not in cm.secret_space(kind, field):
                raise ValueError(
                    f"secret assignment {sec!r} of {spec.name}: {v!r} is "
                    f"not a {kind} secret over GF({field.q})")
    if len(set(map(tuple, secrets))) < len(secrets):
        raise ValueError(f"the secret assignments of {spec.name} are not "
                         f"pairwise distinct: {secrets!r}")


def _complete(kind: str, field: FieldSpec, value: int, head) -> list:
    # the sharing of value whose first n-1 shares are head
    acc = value
    for h in head:
        acc = field.mul(acc, field.inv(h)) if kind == "mult" else acc ^ h
    return list(head) + [acc]


def _sharings(kind: str, field: FieldSpec, n: int, value: int):
    """All sharings of one secret value for the given input kind."""
    return [_complete(kind, field, value, head) for head in
            itertools.product(cm.share_space(kind, field), repeat=n - 1)]


def _random_sharing(kind: str, field: FieldSpec, n: int, value: int, rng):
    space = cm.share_space(kind, field)
    return _complete(kind, field, value, [rng.choice(space)
                                          for _ in range(n - 1)])


def _random_secret(kind: str, field: FieldSpec, rng) -> int:
    return rng.choice(cm.secret_space(kind, field))


def record_trace(name: str, field: FieldSpec = _GF16, n: int = 2,
                 secrets: tuple | None = None,
                 seed: int = DEFAULT_SEED) -> ProbeTrace:
    """One labeled run on a seeded tape with randomly drawn sharings."""
    spec = lookup(name)
    if secrets is None:
        secrets = _fit_secrets(spec, field)[0]
    _check_secrets(spec, field, (secrets,), 1)
    rng = random.Random(seed)
    args = [_random_sharing(kind, field, n, v, rng)
            for kind, v in zip(spec.kinds, secrets)]
    ctx = MaskingContext(field, n, seed=seed)
    ctx.trace, ctx.trace_labels = [], []
    spec.run(ctx, *args)
    labels = tuple(ctx.trace_labels)
    return ProbeTrace(ids=tuple(map(label_id, labels)), labels=labels,
                      values=tuple(ctx.trace))


# ------------------------------------------------------------- exhaustive

# Runs per traced run of the exhaustive check, one lane each
LANE_CHUNK = 8192


class Lanes(np.ndarray):
    """One wire's values over a chunk of runs: lane k holds run k's.

    Augmented ^=, &= and |= rebind the name to a new vector, as they do
    on ints, instead of writing in place: a gadget that copies a sharing
    with list(x) and updates a share must leave the caller's vector and
    every value it already emitted unchanged. bool() is true when any
    lane is, so a gadget's zero test (b2m's `if m1 == 0`) fires when
    one run of the chunk would.
    """

    def __ixor__(self, other):
        return NotImplemented

    __iand__ = __ior__ = __ixor__

    def __bool__(self):
        return bool(self.view(np.ndarray).any())


class LaneField:
    """A FieldSpec's mul and inv on Lanes: numpy views of the field's
    own tables, so mul reads FieldSpec.products at (a << 8) | b and inv
    reads FieldSpec.inverses. It stands in as ctx.field for the traced
    gadgets of a lane run; field_lanes makes one per FieldSpec, on
    first use."""

    __slots__ = ("w", "q", "products", "inverses")

    def __init__(self, field: FieldSpec):
        self.w, self.q = field.w, field.q
        self.products = np.frombuffer(field.products, np.uint8).view(Lanes)
        self.inverses = np.frombuffer(field.inverses, np.uint8).view(Lanes)

    def mul(self, a, b):
        return self.products.take(np.left_shift(a, 8, dtype=np.uint16) | b)

    def inv(self, a):
        if not np.asarray(a).all():
            raise ZeroInverse("0 has no multiplicative inverse")
        return self.inverses[a]


field_lanes = cache(LaneField)


def _tape_lanes(schedule, start: int, stop: int) -> list:
    """Each scheduled draw's values over tapes start..stop-1 of a cycle,
    numbered in mixed radix with the last draw varying fastest."""
    if not schedule:
        return []
    digits = np.unravel_index(np.arange(start, stop),
                              [(1 << w) - nonzero for w, nonzero in schedule])
    return [(d + nonzero).astype(np.uint8).view(Lanes)
            for d, (_, nonzero) in zip(digits, schedule)]


class PointNotLanes(TypeError):
    """A traced point of a lane run is not a 1-D uint8 vector of the
    chunk's lane count, so its bytes would not identify its values."""


# Bytes the exhaustive check's memo of lane vectors' histograms may hold
TABLE_BYTES = 4 << 20


def _describe(value) -> str:
    if isinstance(value, np.ndarray):
        return f"{value.dtype} of shape {value.shape}"
    return f"of type {type(value).__name__}"


class _Key(bytes):
    """A lane vector's exact bytes, hashed on at most 64 evenly spaced
    lanes: the dict still compares whole keys on every hash match."""

    __slots__ = ()

    def __hash__(self):
        return hash(self[::len(self) // 64 + 1])


class _Histograms:
    """The memo of one exhaustive call, of at most budget bytes (see the
    module docstring). A key is a vector's exact bytes, a _Key hashed on
    a sample of its lanes; the bytes identify it among the 1-D uint8
    vectors that rows admits (vectors of two lane counts have keys of
    two lengths). nbytes counts keys and values."""

    __slots__ = ("labels", "q", "budget", "nbytes", "_memo")

    def __init__(self, labels, q: int, budget: int):
        self.labels, self.q, self.budget = labels, q, budget
        self.nbytes = 0
        self._memo = {}

    def rows(self, trace: list, lanes: int):
        """One lane run's counts, a (points x q) int64 array: each point's
        histogram, looked up or counted by one np.bincount."""
        labels = self.labels
        if len(trace) != len(labels):
            raise ValueError(f"a lane run traced {len(trace)} points, the "
                             f"recording run {len(labels)}")
        for label, v in zip(labels, trace):
            if not (isinstance(v, np.ndarray) and v.dtype == np.uint8
                    and v.shape == (lanes,)):
                raise PointNotLanes(
                    f"point {label_id(label)} is {_describe(v)}, not a "
                    f"1-D uint8 vector of {lanes} lanes")
        memo, rows = self._memo, []
        for label, v in zip(labels, trace):
            key = _Key(v)
            hist = memo.get(key)
            if hist is None:
                hist = np.bincount(v, minlength=self.q)
                if len(hist) > self.q:
                    raise ValueError(f"point {label_id(label)} carries a "
                                     f"value outside [0, {self.q})")
                size = len(key) + hist.nbytes
                if size <= self.budget:
                    if self.nbytes + size > self.budget:
                        memo.clear()
                        self.nbytes = 0
                    memo[key] = hist
                    self.nbytes += size
            rows.append(hist)
        return np.array(rows)


def exhaustive_histograms(name: str, field: FieldSpec = _GF16, n: int = 2,
                          secrets: tuple | None = None):
    """Every point's exact value counts, per secret, over all runs.

    A run is one input sharing on one tape assignment. Returns the point
    labels (public ones included), the run count per secret, and per
    secret an int64 array of shape (points, q) whose entry [p, v]
    counts the runs in which point p carries v. Raises
    EnumerationTooLarge when the run count would exceed ENUMERATION_CAP,
    read at call time.

    The runs of a secret are numbered in mixed radix (a sharing index
    per input, then a value per scheduled draw) and go through the traced
    gadget code LANE_CHUNK (8192) at a time, as Lanes vectors over a
    LaneField, the draws replayed by a ReplayTape. A chunk is whole tape
    cycles, one per combination of input sharings, or a slice of a cycle
    longer than LANE_CHUNK. Its counts are its points' histograms from
    the call's memo (see the module docstring). Raises
    PointNotLanes for a point that is not a 1-D uint8 vector of the
    chunk's lane count, before its chunk is counted.
    """
    spec = lookup(name)
    if secrets is None:
        secrets = _fit_secrets(spec, field)
    _check_secrets(spec, field, secrets, 2)
    inputs = [[_sharings(kind, field, n, v) for kind, v in zip(spec.kinds, sec)]
              for sec in secrets]
    # one run on a recording tape fixes the draw schedule and the points,
    # both independent of the data
    ctx = MaskingContext(field, n, tape=DomainTape())
    ctx.trace, ctx.trace_labels = [], []
    spec.run(ctx, *(sharings[0] for sharings in inputs[0]))
    labels = ctx.trace_labels
    schedule = ctx.rng.schedule
    ntapes = math.prod((1 << w) - nonzero for w, nonzero in schedule)
    runs = [ntapes * math.prod(map(len, sets)) for sets in inputs]
    if sum(runs) > ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"{sum(runs)} runs exceed cap {ENUMERATION_CAP}")

    # a chunk runs `per` sharing combinations on `span` tapes; tapes from 0
    # draw from the tiled cycle start, later slices are decoded per chunk
    span = min(ntapes, LANE_CHUNK)
    per = LANE_CHUNK // span
    cycle = [np.tile(v, per) for v in _tape_lanes(schedule, 0, span)]
    replay = ReplayTape(())
    ctx = MaskingContext(field_lanes(field), n, tape=replay)
    table = _Histograms(labels, field.q, TABLE_BYTES)
    hists = []
    for sets in inputs:
        # per input, share i of sharing s is tables[input][i][s]
        tables = [np.array(s, np.uint8).T.copy().view(Lanes) for s in sets]
        shape = [len(s) for s in sets]
        combos = math.prod(shape)
        counts = np.zeros((len(labels), field.q), np.int64)
        for c in range(0, combos, per):
            which = np.unravel_index(np.arange(c, min(c + per, combos)), shape)
            for t in range(0, ntapes, span):
                stop = min(t + span, ntapes)
                replay.rewind([v[:len(which[0]) * span] for v in cycle] if t == 0
                              else _tape_lanes(schedule, t, stop))
                ctx.trace = trace = []
                spec.run(ctx, *([share[s].repeat(stop - t) for share in tab]
                                for tab, s in zip(tables, which)))
                counts += table.rows(trace, len(which[0]) * (stop - t))
        hists.append(counts)
    return labels, runs, hists


def exhaustive_first_order(name: str, field: FieldSpec = _GF16, n: int = 2,
                           secrets: tuple | None = None) -> list[LeakVerdict]:
    """Exact per-point value distributions across secrets must coincide.

    Counts each point's values over every input sharing and every tape
    assignment, per secret, with exhaustive_histograms: the traced
    gadget runs once per chunk of at most LANE_CHUNK (8192) runs, on
    Lanes vectors with one lane per run, with one bincount per distinct
    vector, in memory bounded whatever the run count (see the module
    docstring). A point passes when every secret's counts equal the
    first's. Raises EnumerationTooLarge when the run count would exceed
    ENUMERATION_CAP.
    """
    labels, runs, hists = exhaustive_histograms(name, field, n, secrets)
    # per further secret and point: the summed count gaps to the first
    base = hists[0]
    gaps = [np.abs(h - base).sum(axis=1).tolist() for h in hists[1:]]
    # the statistic is the largest total-variation distance to the first
    return [LeakVerdict(point_id=label_id(label), mode="exhaustive",
                        statistic=max(g[idx] for g in gaps) / (2 * runs[0]),
                        samples=sum(runs),
                        passed=not any(g[idx] for g in gaps))
            for idx, label in enumerate(labels) if not is_public(label)]


# ------------------------------------------------------------- statistical


class _MomentAccumulator:
    """Per-point value counts of one class's traces, and their moments.

    Probe values are field elements, so a trace is bytes(trace), and the
    counts are a points x q int64 table: entry [p, v] counts the traces
    in which point p carried v. add buffers a trace; about BATCH_BYTES
    of them go into the table at a time, by one np.bincount. moments()
    derives the first, second and fourth power sums per point from the
    table: exact integers, equal to the float64 running sums of the
    values while those are exact (below 2^53).
    """

    __slots__ = ("count", "q", "_offsets", "_table", "_pending", "_batch")

    BATCH_BYTES = 1 << 14

    def __init__(self, npoints: int, q: int = 256):
        self.count = 0
        self.q = q
        self._offsets = np.arange(npoints, dtype=np.intp) * q
        self._table = np.zeros(npoints * q, np.int64)
        self._pending = []
        self._batch = max(1, self.BATCH_BYTES // npoints)

    def add(self, values: list) -> None:
        row = bytes(values)
        if len(row) != len(self._offsets):
            raise ValueError(f"trace of {len(row)} points, expected "
                             f"{len(self._offsets)}")
        self.count += 1
        pending = self._pending
        pending.append(row)
        if len(pending) == self._batch:
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        v = np.frombuffer(b"".join(self._pending), np.uint8).reshape(
            len(self._pending), -1)
        self._pending.clear()
        if v.max() >= self.q:
            raise ValueError(f"a probe value is outside [0, {self.q})")
        self._table += np.bincount((v + self._offsets).ravel(),
                                   minlength=self._table.size)

    def moments(self):
        self._flush()
        nsamp = self.count
        if nsamp < 2:
            raise ValueError(
                f"sample variance needs at least 2 traces, got {nsamp}")
        counts = self._table.reshape(-1, self.q)
        v = np.arange(self.q, dtype=np.int64)
        s1, s2, s4 = ((counts @ v ** k).astype(np.float64) for k in (1, 2, 4))
        mean = s1 / nsamp
        var = np.maximum(s2 / nsamp - mean * mean, 0.0) * nsamp / (nsamp - 1)
        mean2 = s2 / nsamp
        var2 = np.maximum(s4 / nsamp - mean2 * mean2, 0.0) * nsamp / (nsamp - 1)
        return mean, var, mean2, var2


def _welch(m_a, v_a, n_a, m_b, v_b, n_b):
    num = m_a - m_b
    den = np.sqrt(v_a / n_a + v_b / n_b)
    t = np.zeros_like(num)
    nz = den > 0
    t[nz] = num[nz] / den[nz]
    # zero variance with differing means: finite sentinel keeps JSON valid
    t[(~nz) & (num != 0)] = 1e12
    return t


def statistical_fixed_vs_random(target: str, field: FieldSpec = _GF16,
                                n: int = 2, m: int = 4,
                                samples_per_class: int = 10_000,
                                threshold: float = 4.5,
                                seed: int = DEFAULT_SEED) -> list[LeakVerdict]:
    """Fixed-vs-random Welch t per point on v and v^2.

    target is a registry gadget, "solve" (masked pipeline on random
    invertible systems) or "solve_unmasked" (the reference path traced
    at its data-dependent examination points). Raises ValueError, before
    any system or tape is made, for fewer than 2 samples per class (a
    Welch t needs a sample variance), a threshold that is not a finite
    number above 0 (every point would be flagged, or none), or a share
    count below 2 (but for solve_unmasked, which reads no n).
    """
    if samples_per_class < 2:
        raise ValueError(
            f"samples_per_class must be at least 2, got {samples_per_class}")
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be a finite number above 0, got "
                         f"{threshold}")
    if target != "solve_unmasked":
        check_share_count(n)
    rng = random.Random(seed)
    campaign = SeededTape(seed ^ 0x5EED)

    if target in ("solve", "solve_unmasked"):
        fixed_sys = random_system(field, m, rng)
        run = masked_solve

        def inputs(fixed: bool):
            return (fixed_sys if fixed else random_system(field, m, rng),)
    else:
        spec = lookup(target)
        fixed_secret = _fit_secrets(spec, field)[0]
        run = spec.run

        def inputs(fixed: bool):
            sec = fixed_secret if fixed else [
                _random_secret(kind, field, rng) for kind in spec.kinds]
            return [_random_sharing(kind, field, n, v, rng)
                    for kind, v in zip(spec.kinds, sec)]

    def traced(args, labels=None):
        # one run's probe values; a labels list gets its point labels
        trace = []
        if target == "solve_unmasked":
            gaussian_elimination(*args, trace=trace, trace_labels=labels)
        else:
            ctx = MaskingContext(field, n, tape=campaign.spawn())
            ctx.trace, ctx.trace_labels = trace, labels
            run(ctx, *args)
        return trace

    labels = []
    traced(inputs(True), labels)
    acc_fixed = _MomentAccumulator(len(labels), field.q)
    acc_rand = _MomentAccumulator(len(labels), field.q)
    for _ in range(samples_per_class):
        acc_fixed.add(traced(inputs(True)))
        acc_rand.add(traced(inputs(False)))

    mf, vf, m2f, v2f = acc_fixed.moments()
    mr, vr, m2r, v2r = acc_rand.moments()
    nf, nr = acc_fixed.count, acc_rand.count
    t1 = np.abs(_welch(mf, vf, nf, mr, vr, nr))
    t2 = np.abs(_welch(m2f, v2f, nf, m2r, v2r, nr))
    stat = np.maximum(t1, t2)
    return [LeakVerdict(point_id=label_id(label), mode="statistical",
                        statistic=s, samples=nf + nr, passed=s < threshold)
            for label, s in zip(labels, stat.tolist()) if not is_public(label)]


def leak_summary(verdicts: list[LeakVerdict]) -> dict:
    failed = [v for v in verdicts if not v.passed]
    worst = max((v.statistic for v in verdicts if v.statistic is not None),
                default=0.0)
    return {
        "points": len(verdicts),
        "failed": len(failed),
        "worst_statistic": worst,
        "pass": not failed,
    }
