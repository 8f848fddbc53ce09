"""Spans around the calls into each mge layer, recorded from outside mge.

For the length of a ``with`` block the tracer replaces the public names
that mge's own callers resolve at call time -- module globals such as
``mge.linalg.sec_cond_add`` and ``mge.rowops.sec_and``, class attributes
such as ``SeededTape.draw``, and the entries of ``mge.probelab.REGISTRY``
-- with thin wrappers, and puts the originals back on exit. ``src/mge``
is never modified.

Two kinds of pass exist. A timed pass (``Tracer.timed``) records, per
wrapped name, calls, total and self seconds (self = total minus the time
of wrapped calls made inside it), plus the linalg phase split. A counting
pass (``Tracer.counting``) counts field multiplications, inversions and
probe emissions only; it is kept apart so that those very frequent
wrappers do not inflate the self times of the timed pass.

Phase split. Inside ``sec_row_ech`` and ``sec_back_sub`` every wrapped
call belongs to one phase, named after the terms of ``T_ech`` in
``mge.costmodel``. A ``sec_nonzero`` call is assigned by the call that
consumes it: ``sec_not`` (pivot search) or ``full_add`` (liveness). A
phase's seconds are the time inside its calls. Its counts also take the
counter change in the gap that follows each of its calls (the public
liveness test in sec_row_ech, the update loop in sec_back_sub), so that
each phase can be compared with its closed-form term. The time of the
gaps is the glue time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import defaultdict

PHASES = ("share", "pivot_nonzero", "cond_add", "liveness", "b2minv",
          "scaling", "factor_refresh", "mult_sub", "back_sub")

# gadget name -> layer module that defines it
_LAYER = {
    "sec_cond_add": "rowops", "sec_scalar_mult": "rowops",
    "sec_mult_sub": "rowops",
    "sec_and": "masking", "sec_mult": "masking", "strong_refresh": "masking",
    "refresh": "masking", "sec_or": "masking", "sec_nonzero": "masking",
    "full_add": "masking", "b2minv": "masking", "b2m": "masking",
    "sec_not": "masking",
}

# linalg-level callee -> phase (None: decided by the consuming call)
_LINALG_PHASE = {
    "sec_not": "pivot_nonzero", "sec_cond_add": "cond_add",
    "b2minv": "b2minv", "sec_scalar_mult": "scaling",
    "strong_refresh": "factor_refresh", "sec_mult_sub": "mult_sub",
    "sec_nonzero": None, "full_add": None,
}


class _Frame:
    """Bookkeeping for one open sec_row_ech or sec_back_sub call."""

    __slots__ = ("kind", "t", "ops", "bits", "last", "pending")

    def __init__(self, kind, t, counters):
        self.kind = kind
        self.t = t
        self.ops = counters.ops
        self.bits = counters.rng_bits
        self.last = None      # phase of the previous call, owns the gap
        self.pending = None   # sec_nonzero totals awaiting their consumer


class SolveTally:
    """Counts of one masked solve: per phase (gaps attributed), raw gaps."""

    __slots__ = ("n", "m", "w", "phases", "raw", "glue_ops", "glue_bits",
                 "total_ops", "total_bits", "singular")

    def __init__(self, n, m, w):
        self.n, self.m, self.w = n, m, w
        self.phases = {p: [0, 0] for p in PHASES}   # attributed ops, bits
        self.raw = {p: [0, 0] for p in PHASES}      # inside the calls only
        self.glue_ops = 0
        self.glue_bits = 0
        self.total_ops = 0
        self.total_bits = 0
        self.singular = False


class Tracer:
    """Spans and counts kept in memory; see the module docstring."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.phase_s = defaultdict(float)
        self.glue_s = 0.0
        self.counts = defaultdict(int)
        self.solves: list[SolveTally] = []
        self.phase_spans = []       # (phase, start, end, ops, bits) per call
        self._stack = []            # child seconds of each open timed span
        self._frames = []
        self._solve = None

    # ------------------------------------------------------------ spans

    def _span(self, name, fn):
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def _gadget(self, gname, fn):
        return self._span(f"{_LAYER[gname]}.{gname}", fn)

    def _linalg_child(self, gname, fn):
        """A gadget called from sec_row_ech / sec_back_sub: span + phase."""
        inner = self._gadget(gname, fn)
        fixed = _LINALG_PHASE[gname]
        frames = self._frames
        clock = time.perf_counter

        def wrapper(ctx, *args, **kwargs):
            if not frames:
                return inner(ctx, *args, **kwargs)
            fr = frames[-1]
            c = ctx.counters
            t0 = clock()
            if gname == "full_add":
                phase = "liveness" if fr.kind == "ech" else "back_sub"
            else:
                phase = fixed
            self._gap(fr, t0, c, phase)
            o0, b0 = c.ops, c.rng_bits
            try:
                return inner(ctx, *args, **kwargs)
            finally:
                t1 = clock()
                dops, dbits = c.ops - o0, c.rng_bits - b0
                if phase is None:  # sec_nonzero: wait for its consumer
                    fr.pending = (t0, t1, dops, dbits)
                else:
                    self._charge(phase, t0, t1, dops, dbits)
                fr.t, fr.ops, fr.bits, fr.last = t1, c.ops, c.rng_bits, phase

        return wrapper

    def _gap(self, fr, now, c, next_phase):
        if fr.pending is not None:
            t0, t1, dops, dbits = fr.pending
            fr.pending = None
            self._charge(next_phase, t0, t1, dops, dbits)
            fr.last = next_phase
        self.glue_s += now - fr.t
        dops, dbits = c.ops - fr.ops, c.rng_bits - fr.bits
        st = self._solve
        if st is not None and (dops or dbits):
            st.glue_ops += dops
            st.glue_bits += dbits
            if fr.last is not None:
                st.phases[fr.last][0] += dops
                st.phases[fr.last][1] += dbits

    def _charge(self, phase, t0, t1, dops, dbits):
        self.phase_s[phase] += t1 - t0
        self.phase_spans.append((phase, t0, t1, dops, dbits))
        st = self._solve
        if st is not None:
            for table in (st.phases, st.raw):
                table[phase][0] += dops
                table[phase][1] += dbits

    def _frame(self, kind, fn):
        inner = self._span(f"linalg.{fn.__name__}", fn)
        frames = self._frames
        clock = time.perf_counter

        def wrapper(ctx, *args, **kwargs):
            fr = _Frame(kind, clock(), ctx.counters)
            frames.append(fr)
            try:
                return inner(ctx, *args, **kwargs)
            finally:
                frames.pop()
                self._gap(fr, clock(), ctx.counters, fr.last)

        return wrapper

    def _share(self, fn):
        inner = self._span("linalg.share_system", fn)
        clock = time.perf_counter

        def wrapper(ctx, *args, **kwargs):
            c = ctx.counters
            o0, b0 = c.ops, c.rng_bits
            t0 = clock()
            try:
                return inner(ctx, *args, **kwargs)
            finally:
                self._charge("share", t0, clock(), c.ops - o0,
                             c.rng_bits - b0)

        return wrapper

    def _solve_span(self, name, fn):
        inner = self._span(name, fn)

        def wrapper(ctx, system, *args, **kwargs):
            st = SolveTally(ctx.n, system.m, ctx.field.w)
            c = ctx.counters
            o0, b0 = c.ops, c.rng_bits
            self._solve = st
            try:
                out = inner(ctx, system, *args, **kwargs)
            finally:
                self._solve = None
            st.total_ops, st.total_bits = c.ops - o0, c.rng_bits - b0
            st.singular = out.x is None
            self.solves.append(st)
            return out

        return wrapper

    # ----------------------------------------------------------- passes

    @contextlib.contextmanager
    def timed(self):
        """Install the timing wrappers; restore every name on exit."""
        from mge import linalg, masking, probelab, rowops

        patches = []
        for gname in ("sec_and", "sec_mult", "refresh", "strong_refresh"):
            patches.append((rowops, gname, self._gadget(gname,
                                                        getattr(rowops, gname))))
        for gname in ("strong_refresh", "sec_or", "sec_and"):
            patches.append((masking, gname, self._gadget(gname,
                                                         getattr(masking, gname))))
        for gname in _LINALG_PHASE:
            patches.append((linalg, gname, self._linalg_child(
                gname, getattr(linalg, gname))))
        patches += [
            (linalg, "share_system", self._share(linalg.share_system)),
            (linalg, "sec_row_ech", self._frame("ech", linalg.sec_row_ech)),
            (linalg, "sec_back_sub", self._frame("back", linalg.sec_back_sub)),
            (linalg, "masked_solve",
             self._solve_span("linalg.masked_solve", linalg.masked_solve)),
            (probelab, "masked_solve",
             self._solve_span("probelab.traced_solve", probelab.masked_solve)),
            (probelab, "random_system",
             self._span("probelab.sysgen", probelab.random_system)),
            (probelab, "_welch", self._span("probelab.moments", probelab._welch)),
            (probelab, "exhaustive_first_order",
             self._span("probelab.enumerate", probelab.exhaustive_first_order)),
        ]
        for gname in ("sec_cond_add", "sec_scalar_mult", "sec_mult_sub",
                      "sec_mult", "sec_nonzero"):
            patches.append((probelab, gname, self._gadget(gname,
                                                          getattr(probelab, gname))))
        acc = probelab._MomentAccumulator
        for meth in ("add", "moments"):
            patches.append((acc, meth, self._span("probelab.moments",
                                                  getattr(acc, meth))))
        for tape in (masking.SeededTape, masking.ReplayTape):
            for meth in ("draw", "draw_nonzero"):
                patches.append((tape, meth, self._span("masking.tape",
                                                       getattr(tape, meth))))
        registry = dict(probelab.REGISTRY)
        runs = {}
        for name, spec in registry.items():
            run = spec.run
            if getattr(run, "__module__", None) == "mge.masking":
                run = self._gadget(run.__name__, run)
            runs[name] = dataclasses.replace(
                spec, run=self._span("probelab.gadget_run", run))
        with _patched(patches):
            probelab.REGISTRY.update(runs)
            try:
                yield self
            finally:
                probelab.REGISTRY.update(registry)

    @contextlib.contextmanager
    def counting(self):
        """Count gf.mul, gf.inv and probe emissions, nothing else."""
        from mge import gf, masking

        counts = self.counts

        def counter(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        patches = [
            (gf.FieldSpec, "mul", counter("gf.mul", gf.FieldSpec.mul)),
            (gf.FieldSpec, "inv", counter("gf.inv", gf.FieldSpec.inv)),
            (masking.MaskingContext, "emit",
             counter("masking.emit", masking.MaskingContext.emit)),
        ]
        with _patched(patches):
            yield self

    # ---------------------------------------------------------- reports

    def span_table(self) -> dict:
        return {
            name: {"calls": self.calls[name], "total_s": self.total_s[name],
                   "self_s": self.self_s[name]}
            for name in sorted(self.calls)
        }


@contextlib.contextmanager
def _patched(patches):
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)
