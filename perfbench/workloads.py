"""The three workloads: inputs from a seed, the timed loop, the checks.

Each workload is a closed loop with one caller in one thread: it starts
the next operation only when the previous one has returned. A run
attempts whole rounds of the same operations and starts no round after
``seconds`` have passed. Every check compares mge's outputs with a
computation made here, or with a property the method must have; none
compares with saved output.

``setup`` imports the mge modules the workload uses and builds its
inputs; it is what ``setup_s`` times, in fresh interpreters.
"""

from __future__ import annotations

import contextlib
import math
import random
import statistics
import time
from dataclasses import dataclass, field

from calibrate import measure
from tracer import PHASES, Tracer

UOV_SHARES = (2, 3, 4)
UOV_POOL = 8          # systems per run, used round-robin
REF_REPEATS = 5       # reference solves per round (one is ~6 ms)
CAMPAIGN_M = 4
CAMPAIGN_SAMPLES = 500   # traces per class per campaign
CAMPAIGN_SOLVES = 2 * CAMPAIGN_SAMPLES + 1   # the labelled solve too
CONTROL_SAMPLES = 50
THRESHOLD = 4.5
EXHAUSTIVE_SECRETS = 2   # secret assignments per gadget per round
AES_POLY = 0x11B


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    attempted: int = 0
    errors: list = field(default_factory=list)
    info: list = field(default_factory=list)
    trace: dict = field(default_factory=dict)     # written out when traced

    def check(self, ok, message):
        if not ok and len(self.errors) < 20:
            self.errors.append(message)


def _rounds(seconds):
    """Round indices until `seconds` have passed; at least one round."""
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        yield r
        r += 1


# ------------------------------------------------------ independent checks


def gf256_mul(a, b):
    """Carry-less product reduced by x^8+x^4+x^3+x+1, bit by bit."""
    p = 0
    for i in range(8):
        if (b >> i) & 1:
            p ^= a << i
    for i in range(14, 7, -1):
        if (p >> i) & 1:
            p ^= AES_POLY << (i - 8)
    return p


def solves(system, x):
    """True iff A x = b, evaluated with gf256_mul."""
    for row, rhs in zip(system.a, system.b):
        acc = 0
        for a, v in zip(row, x):
            acc ^= gf256_mul(a, v)
        if acc != rhs:
            return False
    return True


def point_id(label):
    """Probe point name: gadget.tag[index,...]."""
    if len(label) > 2:
        return f"{label[0]}.{label[1]}[{','.join(map(str, label[2:]))}]"
    return f"{label[0]}.{label[1]}"


def phase_terms(n, m, w):
    """Expected (ops, bits) per phase of one full masked solve.

    The T_ech terms of mge.costmodel, with cond_add and mult_sub less
    m*T(1) (the executed loops make S(m)-m unit calls, the form charges
    S(m)), sec_back_sub's own form, and the sharing charge of
    row_share: per coefficient n-1 draws of one op and w bits each, and
    n-1 XORs.
    """
    from mge.costmodel import r_cost, t_cost

    pairs = (m * m - m) // 2
    slices = (m * m + 3 * m) // 2
    executed = (2 * m ** 3 + 3 * m * m + m) // 6 - m

    def t(g, size=None):
        return t_cost(g, n, size, w=w) if g == "sec_nonzero" else \
            t_cost(g, n, size)

    def r(g, size=None):
        return r_cost(g, n, size, w=w)

    return {
        "share": (2 * (n - 1) * m * (m + 1), (n - 1) * m * (m + 1) * w),
        "pivot_nonzero": (pairs * (t("sec_nonzero") + 1),
                          pairs * r("sec_nonzero")),
        "cond_add": (executed * t("sec_cond_add", 1),
                     executed * r("sec_cond_add", 1)),
        "liveness": (m * (t("sec_nonzero") + t("full_add") + 1),
                     m * (r("sec_nonzero") + r("full_add"))),
        "b2minv": (m * t("b2minv"), m * r("b2minv")),
        "scaling": (slices * t("sec_scalar_mult", 1),
                    slices * r("sec_scalar_mult", 1)),
        "factor_refresh": (pairs * t("strong_refresh"),
                           pairs * r("strong_refresh")),
        "mult_sub": (executed * t("sec_mult_sub", 1),
                     executed * r("sec_mult_sub", 1)),
        "back_sub": (t_cost("sec_back_sub", n, m), r("sec_back_sub", m)),
    }


def solve_forms(n, m, w):
    """Whole masked_solve totals: pipeline form less the slip, plus sharing."""
    from mge.costmodel import r_cost, t_cost

    ops = (t_cost("pipeline", n, m, w=w)
           - m * (t_cost("sec_cond_add", n, 1) + t_cost("sec_mult_sub", n, 1))
           + 2 * (n - 1) * m * (m + 1))
    bits = (r_cost("pipeline", n, m, w=w)
            - m * (r_cost("sec_cond_add", n, 1, w=w)
                   + r_cost("sec_mult_sub", n, 1, w=w))
            + (n - 1) * m * (m + 1) * w)
    return ops, bits


def check_tallies(res, tracer, where):
    """Phase split of every traced full solve against the whole solve."""
    terms = {}
    for st in tracer.solves:
        raw_ops = sum(v[0] for v in st.raw.values()) + st.glue_ops
        raw_bits = sum(v[1] for v in st.raw.values()) + st.glue_bits
        res.check((raw_ops, raw_bits) == (st.total_ops, st.total_bits),
                  f"{where}: phases+glue {raw_ops} ops/{raw_bits} bits, "
                  f"whole solve {st.total_ops}/{st.total_bits}")
        if st.singular:
            continue
        key = (st.n, st.m, st.w)
        if key not in terms:
            terms[key] = phase_terms(*key)
        for p in PHASES:
            got = tuple(st.phases[p])
            res.check(got == terms[key][p],
                      f"{where}: phase {p} at n={st.n} m={st.m} counted "
                      f"{got}, term {terms[key][p]}")


GADGETS = ("rowops.sec_cond_add", "rowops.sec_scalar_mult",
           "rowops.sec_mult_sub", "masking.sec_and", "masking.sec_mult",
           "masking.strong_refresh", "masking.refresh", "masking.sec_or",
           "masking.sec_nonzero", "masking.b2minv")


def layer_metrics(tracer, raw, scale):
    """Per-layer figures of one traced operation of `raw` seconds.

    Seconds are multiplied by `scale`, the operation's host-speed
    correction (corrected / raw seconds; see calibrate.py). Every
    workload calls each gadget of GADGETS and the tape. `driver.self_s`
    is the rest of the operation: linalg and probelab outside every
    gadget and tape draw, and whatever no wrapper covers.
    """
    out = {f"{g}.self_s": (tracer.self_s[g] * scale, "s") for g in GADGETS}
    out["masking.tape.self_s"] = (tracer.self_s["masking.tape"] * scale, "s")
    out["masking.tape.draws"] = (tracer.calls["masking.tape"], "count")
    inner = sum(s for name, s in tracer.self_s.items()
                if name.startswith(("masking.", "rowops.")))
    out["driver.self_s"] = ((raw - inner) * scale, "s")
    for p in PHASES:
        out[f"linalg.{p}.ops"] = (
            sum(st.phases[p][0] for st in tracer.solves), "ops")
        out[f"linalg.{p}.rng_bits"] = (
            sum(st.phases[p][1] for st in tracer.solves), "bits")
    return out


def split_info(names):
    """One line: the traced seconds of each name as a share of their sum."""
    total = sum(names.values()) or 1.0
    return ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in names.items())


def phase_info(tracer):
    names = {p: tracer.phase_s[p] for p in PHASES}
    names["glue"] = tracer.glue_s
    return "phase time: " + split_info(names)


def count_metrics(tracer):
    return {f"{name}.calls": (tracer.counts[name], "count")
            for name in ("gf.mul", "gf.inv", "masking.emit")}


def medians(rows):
    """Per-name median of a list of {name: (value, unit)} dicts."""
    return {name: (statistics.median(r[name][0] for r in rows), unit)
            for name, (_, unit) in rows[0].items()}


def overhead(traced, untraced):
    """Traced against untraced corrected seconds of the same work."""
    return {"tracing_overhead": (
        100.0 * (statistics.median(traced) / statistics.median(untraced) - 1),
        "%")}


def end_to_end(res, op_s, ops, bits):
    res.metrics["op_s"] = (op_s, "s")
    res.metrics["ops"] = (ops, "ops")
    res.metrics["rng_bits"] = (bits, "bits")


# ------------------------------------------------------------ solve-uov-ip


class SolveUovIp:
    """Masked and reference solves of uniform random systems at uov-ip."""

    @staticmethod
    def setup(seed):
        from mge import costmodel, gf, linalg, masking  # noqa: F401

        param = costmodel.PRESETS["uov-ip"]
        fld = gf.field_new(param.w)
        rng = random.Random(seed)
        m = param.m
        systems = [
            linalg.LinearSystem(
                fld, [[rng.randrange(fld.q) for _ in range(m)]
                      for _ in range(m)],
                [rng.randrange(fld.q) for _ in range(m)])
            for _ in range(UOV_POOL)
        ]
        forms = {n: solve_forms(n, m, param.w) for n in UOV_SHARES}
        return {"field": fld, "systems": systems, "forms": forms,
                "tapes": random.Random(seed ^ 0x7A9E5EED)}

    @staticmethod
    def _solve(state, res, system, ref, n, wrap=contextlib.nullcontext()):
        """One checked masked_solve: (outcome, raw s, corrected s, counts)."""
        from mge import linalg, masking

        ctx = masking.MaskingContext(state["field"], n,
                                     seed=state["tapes"].getrandbits(64))
        res.attempted += 1
        with wrap:
            out, raw, corr = measure(linalg.masked_solve, ctx, system)
        counts = ctx.counters.snapshot()[::2]
        res.check((out.x, out.fail_index) == (ref.x, ref.fail_index),
                  f"n={n}: masked solve {out.x, out.fail_index} differs "
                  f"from reference {ref.x, ref.fail_index}")
        if out.x is not None:
            res.check(solves(system, out.x), f"n={n}: A x != b")
            res.check(counts == state["forms"][n],
                      f"n={n}: counters {counts}, forms {state['forms'][n]}")
        return out, raw, corr, counts

    @staticmethod
    def _reference(res, system, reps):
        """Checked reference solves: (outcome, raw s list, corrected list)."""
        from mge import linalg

        raws, corrs = [], []
        for _ in range(reps):
            res.attempted += 1
            ref, raw, corr = measure(linalg.gaussian_elimination, system)
            raws.append(raw)
            corrs.append(corr)
        if ref.x is not None:
            res.check(solves(system, ref.x), "reference: A x != b")
        return ref, raws, corrs

    @classmethod
    def run(cls, state, seconds):
        """One operation: the masked solves of one system at n = 2, 3, 4."""
        res = Result()
        raws = {n: [] for n in UOV_SHARES}
        corrs = {n: [] for n in UOV_SHARES}
        counts = {n: set() for n in UOV_SHARES}
        ops_s, ref_raw, ref_corr = [], [], []
        for r in _rounds(seconds):
            system = state["systems"][r % UOV_POOL]
            ref, raw, corr = cls._reference(res, system, REF_REPEATS)
            ref_raw += raw
            ref_corr += corr
            took = 0.0
            for n in UOV_SHARES:
                out, raw, corr, cnt = cls._solve(state, res, system, ref, n)
                raws[n].append(raw)
                corrs[n].append(corr)
                took += corr
                if out.x is not None:
                    counts[n].add(cnt)
            ops_s.append(took)
        for n in UOV_SHARES:
            res.check(len(counts[n]) <= 1,
                      f"n={n}: counts differ across systems: {counts[n]}")
        per_n = {n: min(counts[n]) if counts[n] else (0, 0)
                 for n in UOV_SHARES}
        end_to_end(res, statistics.median(ops_s),
                   sum(c[0] for c in per_n.values()),
                   sum(c[1] for c in per_n.values()))
        res.info.append(
            f"{len(ops_s)} systems, {len(ref_raw)} reference solves; "
            "corrected medians: " + ", ".join(
                f"n={n} {statistics.median(corrs[n]):.4f} s"
                for n in UOV_SHARES)
            + f", reference {statistics.median(ref_corr):.5f} s; "
            "uncorrected: " + ", ".join(
                f"n={n} {statistics.median(raws[n]):.4f} s" for n in UOV_SHARES)
            + f", reference {statistics.median(ref_raw):.5f} s")
        res.info.append("ops, rng_bits per solve: " + ", ".join(
            f"n={n} {per_n[n][0]}, {per_n[n][1]}" for n in UOV_SHARES))
        return res

    @classmethod
    def run_traced(cls, state, seconds):
        res = Result()
        rows, plain, traced = [], [], []
        counted = None
        for r in _rounds(seconds):
            system = state["systems"][r % UOV_POOL]
            ref = cls._reference(res, system, 1)[0]
            if ref.x is None:
                continue
            plain.append(sum(cls._solve(state, res, system, ref, n)[2]
                             for n in UOV_SHARES))
            tracer = Tracer()
            raw = corr = 0.0
            for n in UOV_SHARES:
                _, r_s, c_s, _ = cls._solve(state, res, system, ref, n,
                                            tracer.timed())
                raw += r_s
                corr += c_s
            traced.append(corr)
            check_tallies(res, tracer, "solve-uov-ip")
            rows.append(layer_metrics(tracer, raw, corr / raw))
            res.trace = {"spans": tracer.span_table(),
                         "phase_spans": tracer.phase_spans}
            if counted is None:
                tally = Tracer()
                for n in UOV_SHARES:
                    cls._solve(state, res, system, ref, n, tally.counting())
                counted = count_metrics(tally)
                res.info.append(phase_info(tracer))
        res.check(bool(rows), "no invertible system in the run")
        if rows:
            res.metrics = medians(rows)
            res.metrics.update(counted)
            res.metrics.update(overhead(traced, plain))
        return res


# ------------------------------------------------------------- campaign-m4


class CampaignM4:
    """Criterion 6's fixed-vs-random campaign on the masked m = 4 solve."""

    @staticmethod
    def setup(seed):
        from mge import gf, linalg, masking, probelab  # noqa: F401

        fld = gf.field_new(4)
        rng = random.Random(seed)
        # unit upper-triangular A: never aborts, so the solve emits every
        # point; point labels do not depend on the data
        m = CAMPAIGN_M
        a = [[0] * j + [1] + [rng.randrange(fld.q) for _ in range(m - j - 1)]
             for j in range(m)]
        system = linalg.LinearSystem(fld, a, [rng.randrange(fld.q)
                                              for _ in range(m)])
        ctx = masking.MaskingContext(fld, 2, seed=rng.getrandbits(64))
        ctx.trace, ctx.trace_labels = [], []
        linalg.masked_solve(ctx, system)
        ids = [point_id(lab) for lab in ctx.trace_labels
               if not lab[1].startswith("pub")]
        return {"field": fld, "ids": ids, "seeds": random.Random(seed ^ 0xCA3B),
                "solve_counts": ctx.counters.snapshot()[::2]}

    @staticmethod
    def _campaign(state, res, wrap=contextlib.nullcontext()):
        """One checked campaign: (raw s, corrected s, points over, worst)."""
        from mge import probelab

        res.attempted += 1
        with wrap:
            verdicts, raw, corr = measure(
                probelab.statistical_fixed_vs_random, "solve", state["field"],
                n=2, m=CAMPAIGN_M, samples_per_class=CAMPAIGN_SAMPLES,
                threshold=THRESHOLD, seed=state["seeds"].getrandbits(64))
        res.check([v.point_id for v in verdicts] == state["ids"],
                  "verdicts do not match the recorded non-public points")
        res.check(all(v.samples == 2 * CAMPAIGN_SAMPLES for v in verdicts),
                  "a verdict's sample count is not 2N")
        res.check(all(math.isfinite(v.statistic) for v in verdicts),
                  "a statistic is not finite")
        over = sum(v.statistic >= THRESHOLD for v in verdicts)
        return raw, corr, over, max(v.statistic for v in verdicts)

    @staticmethod
    def _control(state, res):
        from mge import probelab

        res.attempted += 1
        verdicts = probelab.statistical_fixed_vs_random(
            "solve_unmasked", state["field"], n=2, m=CAMPAIGN_M,
            samples_per_class=CONTROL_SAMPLES, threshold=THRESHOLD,
            seed=state["seeds"].getrandbits(64))
        res.check(any(not v.passed for v in verdicts),
                  "the unmasked control was not flagged")

    @classmethod
    def run(cls, state, seconds):
        """One operation: a campaign of 2N traced solves, plus the labelled one."""
        res = Result()
        raws, corrs, over, worst = [], [], 0, 0.0
        for _ in _rounds(seconds):
            raw, corr, k, top = cls._campaign(state, res)
            raws.append(raw)
            corrs.append(corr)
            over += k
            worst = max(worst, top)
            cls._control(state, res)
        ops, bits = state["solve_counts"]
        end_to_end(res, statistics.median(corrs), CAMPAIGN_SOLVES * ops,
                   CAMPAIGN_SOLVES * bits)
        res.info.append(
            f"{len(corrs)} campaigns of {2 * CAMPAIGN_SAMPLES} traces, "
            f"{2 * CAMPAIGN_SAMPLES / statistics.median(corrs):.1f} traces/s "
            f"corrected, {2 * CAMPAIGN_SAMPLES / statistics.median(raws):.1f}"
            f" uncorrected; masked points at |t| >= {THRESHOLD}: {over} of "
            f"{len(corrs) * len(state['ids'])}, worst |t| {worst:.2f}")
        return res

    @classmethod
    def run_traced(cls, state, seconds):
        res = Result()
        rows, plain, traced = [], [], []
        counted = None
        for _ in _rounds(seconds):
            plain.append(cls._campaign(state, res)[1])
            tracer = Tracer()
            raw, corr, _, _ = cls._campaign(state, res, tracer.timed())
            traced.append(corr)
            check_tallies(res, tracer, "campaign")
            res.check(len(tracer.solves) == CAMPAIGN_SOLVES,
                      f"{len(tracer.solves)} traced solves in a campaign, "
                      f"expected {CAMPAIGN_SOLVES}")
            res.check(all((st.total_ops, st.total_bits) == state["solve_counts"]
                          for st in tracer.solves),
                      "a traced solve's counters differ from the labelled one")
            rows.append(layer_metrics(tracer, raw, corr / raw))
            res.trace = {"spans": tracer.span_table()}
            if counted is None:
                tally = Tracer()
                cls._campaign(state, res, tally.counting())
                counted = count_metrics(tally)
                res.info.append(phase_info(tracer))
                res.info.append("campaign time: " + split_info({
                    name: tracer.total_s[f"probelab.{name}"]
                    for name in ("sysgen", "traced_solve", "moments")}))
            cls._control(state, res)
        res.metrics = medians(rows)
        res.metrics.update(counted)
        res.metrics.update(overhead(traced, plain))
        return res


# --------------------------------------------------------- exhaustive-gf16


def _sharing_count(kind, q, n):
    if kind == "bit":
        return 2 ** (n - 1)
    if kind == "mult":
        return (q - 1) ** (n - 1)
    return q ** (n - 1)


class ExhaustiveGf16:
    """Exhaustive first-order check of every registry gadget at n = 2."""

    @staticmethod
    def setup(seed):
        from mge import gf, masking, probelab

        fld = gf.field_new(4)
        rng = random.Random(seed)
        n = 2
        gadgets = []
        cost = [0, 0]   # ops, bits of one round
        for name, spec in probelab.REGISTRY.items():
            secrets = tuple(rng.sample(spec.secrets, EXHAUSTIVE_SECRETS))
            # one run on a recording tape gives the draw schedule and points
            tape = masking.DomainTape()
            ctx = masking.MaskingContext(fld, n, tape=tape)
            ctx.trace, ctx.trace_labels = [], []
            args = [[1] * (n - 1) + [v] if kind == "mult" else
                    [0] * (n - 1) + [v]
                    for kind, v in zip(spec.kinds, secrets[0])]
            spec.run(ctx, *args)
            tapes = 1
            for width, nonzero in tape.schedule:
                tapes *= (1 << width) - 1 if nonzero else 1 << width
            size = len(secrets) * tapes
            for kind in spec.kinds:
                size *= _sharing_count(kind, fld.q, n)
            ids = [point_id(lab) for lab in ctx.trace_labels
                   if not lab[1].startswith("pub")]
            gadgets.append((name, spec.broken, secrets, size, ids))
            # a gadget's counts do not depend on its data, so every
            # enumerated run costs what the recording run cost
            ops, _, bits = ctx.counters.snapshot()
            cost[0] += size * ops
            cost[1] += size * bits
        return {"field": fld, "gadgets": gadgets, "cost": tuple(cost)}

    @staticmethod
    def _round(state, res):
        """Every gadget once, checked: (runs, raw s, corrected s) each."""
        from mge import probelab

        out = []
        for name, broken, secrets, size, ids in state["gadgets"]:
            res.attempted += 1
            verdicts, raw, corr = measure(probelab.exhaustive_first_order,
                                          name, state["field"], 2,
                                          secrets=secrets)
            out.append((size, raw, corr))
            res.check([v.point_id for v in verdicts] == ids,
                      f"{name}: verdict points differ from the recorded run")
            res.check(all(v.samples == size for v in verdicts),
                      f"{name}: samples {verdicts[0].samples}, "
                      f"enumeration size {size}")
            flagged = sum(not v.passed for v in verdicts)
            if broken:
                res.check(flagged > 0, f"{name} (broken) was not flagged")
            else:
                res.check(flagged == 0, f"{name} (secure) flagged at "
                                        f"{flagged} point(s)")
        return out

    @staticmethod
    def _round_s(rounds, col):
        """Seconds of one round: the sum of each gadget's median time."""
        return sum(statistics.median(r[g][col] for r in rounds)
                   for g in range(len(rounds[0])))

    @classmethod
    def run(cls, state, seconds):
        """One operation: a round, every registry gadget enumerated once."""
        res = Result()
        rounds = [cls._round(state, res) for _ in _rounds(seconds)]
        runs = sum(size for size, _, _ in rounds[0])
        op_s = cls._round_s(rounds, 2)
        end_to_end(res, op_s, *state["cost"])
        res.info.append(f"{len(rounds)} round(s) of {runs} runs, "
                        f"{runs / op_s:.1f} runs/s corrected, "
                        f"{runs / cls._round_s(rounds, 1):.1f} uncorrected")
        return res

    @classmethod
    def run_traced(cls, state, seconds):
        res = Result()
        rows, plain, traced = [], [], []
        counted = None
        for _ in _rounds(seconds):
            plain.append(sum(corr for _, _, corr in cls._round(state, res)))
            tracer = Tracer()
            with tracer.timed():
                done = cls._round(state, res)
            raw = sum(r for _, r, _ in done)
            corr = sum(c for _, _, c in done)
            traced.append(corr)
            rows.append(layer_metrics(tracer, raw, corr / raw))
            res.trace = {"spans": tracer.span_table()}
            if counted is None:
                tally = Tracer()
                with tally.counting():
                    cls._round(state, res)
                counted = count_metrics(tally)
                res.info.append("round time: " + split_info({
                    "gadget_run": tracer.total_s["probelab.gadget_run"],
                    "enumerate": tracer.self_s["probelab.enumerate"]}))
        res.metrics = medians(rows)
        res.metrics.update(counted)
        res.metrics.update(overhead(traced, plain))
        return res


WORKLOADS = {
    "solve-uov-ip": SolveUovIp,
    "campaign-m4": CampaignM4,
    "exhaustive-gf16": ExhaustiveGf16,
}
