"""Command line front end.

Commands: solve (file or random batch, masked or reference, --compare
diffs the two), cost-table (CSV of the scheme comparison, --verify
diffs against the embedded snapshot within costmodel.CELL_TOLERANCE),
leakcheck (exhaustive or statistical probing with JSON verdicts), bench
(wall time and counters masked vs reference), selftest (invariant
suites; the gf suite checks every product of GF(16) and GF(256)).

Exit codes: 0 ok, 1 usage/IO/mismatch, 2 singular, 3 table mismatch,
4 leak fail, 5 selftest fail. Output is byte-stable for a fixed seed;
bench timing fields are suppressed with --no-timing. The seed comes
from --seed, else the MGE_SEED environment variable, else a fixed
default; a run that reads no seed does not resolve one, so a malformed
MGE_SEED fails only the runs that draw. A flag the chosen run never
reads, --seed included, exits 1 before any work starts (_unread_flags):
a selftest of only the suites that draw nothing (_SEEDLESS) reads no
seed. A value out of range (an odd statistical --samples included), or
an empty --suite, exits 1 too, before any import, file read or system
generation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time

from .gf import FieldSpec, _mul_ref, field_new
from .masking import (
    DEFAULT_SEED,
    MaskingContext,
    SeededTape,
    bool_share,
    bool_unshare,
    check_share_count,
)
from . import masking as _mk
from .linalg import (
    LinearSystem,
    gaussian_elimination,
    masked_solve,
    random_system,
    singular_system,
)
from . import costmodel as cm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SINGULAR = 2
EXIT_TABLE = 3
EXIT_LEAK = 4
EXIT_SELFTEST = 5


def _field_for_q(q) -> FieldSpec:
    if type(q) is not int or q < 2 or q & (q - 1) or q > 256:
        raise ValueError(f"q must be a power of two in [2, 256], got {q!r}")
    return field_new(cm.w_eff(q))


def _parse_system(path: str) -> LinearSystem:
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"system file must hold a JSON object, got "
                         f"{type(obj).__name__}")
    for key in ("q", "m", "A", "b"):
        if key not in obj:
            raise ValueError(f"missing key {key!r}")
    fieldspec = _field_for_q(obj["q"])
    m = obj["m"]
    if type(m) is not int:
        raise ValueError(f"m must be an integer, got {m!r}")
    if isinstance(obj["A"], list) and len(obj["A"]) != m:
        raise ValueError("A has wrong row count")
    return LinearSystem(fieldspec, obj["A"], obj["b"])


# ---------------------------------------------------------------- commands


def cmd_solve(cfg: argparse.Namespace) -> int:
    if not cfg.unmasked:
        check_share_count(cfg.n)
    if cfg.in_path is not None:
        systems = [_parse_system(cfg.in_path)]
    else:
        fieldspec = _field_for_q(cfg.q)
        rng = random.Random(cfg.seed)
        systems = [random_system(fieldspec, cfg.m, rng, invertible=False)
                   for _ in range(cfg.count)]

    # one child tape per system: no two systems share mask randomness;
    # an --unmasked solve of an --in file has no seed to build them from
    tapes = None if cfg.unmasked else SeededTape(cfg.seed)
    if cfg.compare:
        matches = 0
        for sysm in systems:
            ref = gaussian_elimination(sysm)
            ctx = MaskingContext(sysm.field, cfg.n, tape=tapes.spawn())
            got = masked_solve(ctx, sysm)
            if got == ref:
                matches += 1
        print(f"MATCH {matches}/{len(systems)}")
        return EXIT_OK if matches == len(systems) else EXIT_USAGE

    saw_singular = False
    for sysm in systems:
        if cfg.unmasked:
            out = gaussian_elimination(sysm)
        else:
            ctx = MaskingContext(sysm.field, cfg.n, tape=tapes.spawn())
            out = masked_solve(ctx, sysm)
        if out.singular:
            print("singular")
            saw_singular = True
        else:
            print(json.dumps(list(out.x)))
    return EXIT_SINGULAR if saw_singular else EXIT_OK


def cmd_cost_table(cfg: argparse.Namespace) -> int:
    if cfg.schemes == "all":
        params = cm.PARAM_SETS
    else:
        wanted = [s.strip() for s in cfg.schemes.split(",") if s.strip()]
        params = []
        for p in cm.PARAM_SETS:
            if p.scheme in wanted or p.label in wanted:
                params.append(p)
        if not params:
            print(f"no parameter sets match {cfg.schemes!r}", file=sys.stderr)
            return EXIT_USAGE
    rows = cm.cost_table(cfg.orders, params)
    csv = cm.to_csv(rows)
    if cfg.out_path:
        try:
            with open(cfg.out_path, "w") as fh:
                fh.write(csv)
        except OSError as exc:
            print(f"cannot write {cfg.out_path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(csv)
    if not cfg.verify:
        return EXIT_OK
    bad = cm.verify_rows(rows)
    checked = sum(1 for r in rows if r.label in cm.PRINTED_TABLE
                  and r.n in cm.PRINTED_ORDERS)
    known = set(cm.KNOWN_SNAPSHOT_DEVIATIONS)
    bounds = ", ".join(f"{col} +-{tol}"
                       for col, tol in cm.CELL_TOLERANCE.items())
    print(f"verify: {2 * checked - len(bad)}/{2 * checked} cells within "
          f"tolerance ({bounds})")
    for b in bad:
        mark = (" [known snapshot inconsistency: duplicated row]"
                if (b["label"], b["column"], b["n"]) in known else "")
        print(f"  MISMATCH {b['label']} n={b['n']} {b['column']}: "
              f"got {b['got']}, table prints {b['want']}{mark}")
    return EXIT_TABLE if bad else EXIT_OK


def cmd_leakcheck(cfg: argparse.Namespace) -> int:
    if cfg.pipeline and cfg.mode == "exhaustive":
        print("--mode exhaustive needs --gadget: a --pipeline check is a "
              "statistical campaign", file=sys.stderr)
        return EXIT_USAGE
    mode = cfg.mode or ("statistical" if cfg.pipeline else "exhaustive")
    fieldspec = field_new(cfg.w)
    check_share_count(cfg.n)
    if not (math.isfinite(cfg.threshold) and cfg.threshold > 0):
        # at or below 0 every point would be flagged, at nan or inf none
        print(f"--threshold must be a finite number above 0, got "
              f"{cfg.threshold}", file=sys.stderr)
        return EXIT_USAGE
    if mode == "statistical" and cfg.samples < 4:
        # a Welch t needs a sample variance, so two traces per class
        print(f"--samples must be at least 4, got {cfg.samples}",
              file=sys.stderr)
        return EXIT_USAGE
    if mode == "statistical" and cfg.samples % 2:
        print(f"--samples must be even, got {cfg.samples}: the two classes "
              "take half the traces each", file=sys.stderr)
        return EXIT_USAGE
    from . import probelab as pl  # numpy loads only for the commands that probe
    if cfg.pipeline:
        label = cfg.pipeline.replace("-", "_")
    else:
        try:
            label = pl.lookup(cfg.gadget).name
        except pl.UnknownGadget:
            print(f"unknown gadget {cfg.gadget!r}", file=sys.stderr)
            return EXIT_USAGE
    if mode == "exhaustive":
        verdicts = pl.exhaustive_first_order(label, fieldspec, cfg.n)
    else:
        # m sizes a --pipeline system; a gadget target never reads it
        verdicts = pl.statistical_fixed_vs_random(
            label, fieldspec, cfg.n, m=cfg.m,
            samples_per_class=cfg.samples // 2,
            threshold=cfg.threshold, seed=cfg.seed)

    summary = pl.leak_summary(verdicts)
    report = {
        "target": label,
        "mode": mode,
        "summary": summary,
        "verdicts": [v.to_dict() for v in verdicts],
    }
    text = json.dumps(report, indent=2)
    if cfg.json_path:
        with open(cfg.json_path, "w") as fh:
            fh.write(text + "\n")
        print(f"{label}: {summary['failed']} failing of {summary['points']} "
              f"points -> {cfg.json_path}")
    else:
        print(text)
    return EXIT_OK if summary["pass"] else EXIT_LEAK


class BenchSolveFailed(ValueError):
    """A bench solve found no solution to a system drawn invertible."""


def _check_solved(out, path: str) -> None:
    if out.x is None:
        raise BenchSolveFailed(f"{path} solve aborted at column "
                               f"{out.fail_index} of an invertible system")


def cmd_bench(cfg: argparse.Namespace) -> int:
    import statistics  # with fractions and decimal: only bench reads it

    param = cm.PRESETS.get(cfg.param or "")
    if param is None:
        print(f"unknown preset {cfg.param!r} (see cost-table --schemes all)",
              file=sys.stderr)
        return EXIT_USAGE
    fieldspec = field_new(param.w)
    rng = random.Random(cfg.seed)
    sysm = random_system(fieldspec, param.m, rng)
    print(f"param {param.label}: q={param.q} m={param.m} w={param.w} "
          f"iters={cfg.iters}")

    unmasked_times = []
    for _ in range(cfg.iters):
        t0 = time.perf_counter()
        out = gaussian_elimination(sysm)
        unmasked_times.append(time.perf_counter() - t0)
        _check_solved(out, "reference")
    unmasked_ms = 1000 * statistics.median(unmasked_times)

    # one child tape per solve: no two solves share mask randomness
    tapes = SeededTape(cfg.seed)
    prev_ops = -1
    for n in cfg.shares:
        times = []
        ctx = None
        for _ in range(cfg.iters):
            ctx = MaskingContext(fieldspec, n, tape=tapes.spawn())
            t0 = time.perf_counter()
            out = masked_solve(ctx, sysm)
            times.append(time.perf_counter() - t0)
            _check_solved(out, f"masked n={n}")
        ops, draws, bits = ctx.counters.snapshot()
        line = (f"n={n} ops_total={ops} rng_draws={draws} "
                f"rng_bits={bits}")
        if not cfg.no_timing:
            masked_ms = 1000 * statistics.median(times)
            ratio = masked_ms / unmasked_ms if unmasked_ms > 0 else float("inf")
            line += (f" masked_ms={masked_ms:.2f} unmasked_ms={unmasked_ms:.2f}"
                     f" ratio={ratio:.1f}")
        print(line)
        if ops <= prev_ops:
            print("warning: ops_total not increasing in n", file=sys.stderr)
        prev_ops = ops
    return EXIT_OK


# ---------------------------------------------------------------- selftest


def _suite_gf(cfg):
    f16 = field_new(4)
    f256 = field_new(8)
    if f16.mul(0x2, 0x9) != 1 or f256.mul(0x53, 0xCA) != 1:
        return False, "known product anchor broken"
    checked = 0
    for f in (f16, f256):
        for a in range(1, f.q):
            if f.mul(a, f.inv(a)) != 1:
                return False, f"inverse identity broken at {a} (w={f.w})"
        for a in range(f.q):
            for b in range(f.q):
                if f.mul(a, b) != _mul_ref(a, b, f.poly, f.w):
                    return False, f"mul mismatch at ({a},{b}) w={f.w}"
        checked += f.q * f.q
    return True, f"{checked} products cross-checked"


def _suite_sharing(cfg):
    rng = random.Random(cfg.seed)
    checks = 0
    for w in (4, 8):
        f = field_new(w)
        for n in (2, 3, 5):
            ctx = MaskingContext(f, n, seed=rng.randrange(2 ** 63))
            for _ in range(100):
                v = rng.randrange(f.q)
                if bool_unshare(bool_share(ctx, v)) != v:
                    return False, f"roundtrip broken w={w} n={n} v={v}"
                checks += 1
    return True, f"{checks} share/unshare roundtrips"


def _suite_gadgets(cfg):
    rng = random.Random(cfg.seed)
    checks = 0
    for w in (4, 8):
        f = field_new(w)
        for n in (2, 3):
            ctx = MaskingContext(f, n, seed=rng.randrange(2 ** 63))
            for _ in range(50):
                a = rng.randrange(f.q)
                b = rng.randrange(f.q)
                nz = rng.randrange(1, f.q)
                cases = [
                    (bool_unshare(_mk.refresh(ctx, bool_share(ctx, a))), a),
                    (bool_unshare(_mk.strong_refresh(ctx, bool_share(ctx, a))), a),
                    (_mk.full_add(ctx, bool_share(ctx, a)), a),
                    (bool_unshare(_mk.sec_mult(
                        ctx, bool_share(ctx, a), bool_share(ctx, b))),
                     f.mul(a, b)),
                    (bool_unshare(_mk.sec_and(
                        ctx, bool_share(ctx, a), bool_share(ctx, b))), a & b),
                    (bool_unshare(_mk.sec_or(
                        ctx, bool_share(ctx, a), bool_share(ctx, b))), a | b),
                    (bool_unshare(_mk.sec_nonzero(ctx, bool_share(ctx, a))),
                     int(a != 0)),
                    (_mk.mult_unshare(f, _mk.b2m(ctx, bool_share(ctx, nz))), nz),
                    (_mk.mult_unshare(f, _mk.b2minv(ctx, bool_share(ctx, nz))),
                     f.inv(nz)),
                ]
                for got, want in cases:
                    if got != want:
                        return False, f"soundness broken w={w} n={n}"
                    checks += 1
    return True, f"{checks} gadget evaluations match plain arithmetic"


def _suite_counters(cfg):
    checked = 0
    for spec in cm.GADGET_SPECS:
        if "row" in spec.kinds:
            sizes = (1, 2, 10)
        elif spec.sized:
            continue  # the matrix gadgets: see pipeline-counters
        else:
            sizes = (None,)
        for n in (2, 3, 4, 5):
            for w in (4, 8):
                for size in sizes:
                    ck = cm.counter_vs_formula(spec.name, n, w=w, size=size,
                                               seed=cfg.seed)
                    if not ck.exact:
                        at = "" if size is None else f" l={size}"
                        return False, (f"{spec.name} n={n} w={w}{at}: ops "
                                       f"{ck.ops_run} vs {ck.ops_form}, bits "
                                       f"{ck.bits_run} vs {ck.bits_form}")
                    checked += 1
    return True, f"{checked} counter deltas equal the closed forms exactly"


def _suite_pipeline_counters(cfg):
    for (n, m, w) in ((2, 6, 8), (3, 5, 4)):
        ck = cm.counter_vs_formula("pipeline", n, w=w, size=m, seed=cfg.seed)
        slip_ops, slip_bits = cm.pipeline_slip(n, m, w)
        if ck.ops_run != ck.ops_form - slip_ops:
            return False, (f"ops relation broken n={n} m={m}: {ck.ops_run} vs "
                           f"{ck.ops_form}-{slip_ops}")
        if ck.bits_run != ck.bits_form - slip_bits:
            return False, f"bits relation broken n={n} m={m}"
    return True, ("measured = form - m*(T_ca(1)+T_ms(1)) ops, "
                  "- m*(R_ca(1)+R_ms(1)) bits, exact")


def _suite_oracle(cfg):
    rng = random.Random(cfg.seed)
    agree = 0
    for trial in range(60):
        f = field_new(8 if trial % 2 else 4)
        m = rng.randrange(1, 7)
        sysm = random_system(f, m, rng, invertible=False)
        ref = gaussian_elimination(sysm)
        ctx = MaskingContext(f, 2 + trial % 3, seed=rng.randrange(2 ** 63))
        got = masked_solve(ctx, sysm)
        if got != ref:
            return False, f"disagreement on trial {trial}"
        agree += 1
    for trial in range(20):
        f = field_new(4)
        sysm = singular_system(f, 2 + trial % 5, rng)
        ref = gaussian_elimination(sysm)
        ctx = MaskingContext(f, 2 + trial % 3, seed=rng.randrange(2 ** 63))
        got = masked_solve(ctx, sysm)
        if not (ref.singular and got == ref):
            return False, f"singular disagreement on trial {trial}"
        agree += 1
    return True, f"{agree} systems agree (values, singularity, abort index)"


def _suite_packed_path(cfg):
    param = cm.PRESETS["uov-ip"]
    fieldspec = field_new(param.w)
    sysm = random_system(fieldspec, param.m, random.Random(cfg.seed))
    runs = []
    for trace in ([], None):
        # a probe trace selects the scalar row gadgets, none the packed ones
        ctx = MaskingContext(fieldspec, 2, seed=cfg.seed)
        ctx.trace = trace
        out = masked_solve(ctx, sysm)
        runs.append((out, ctx.counters.snapshot(), ctx.rng._state))
    if runs[1] != runs[0]:
        return False, (f"{param.label} n=2: packed and scalar solves differ "
                       f"in x, counters or tape state")
    ops, _, bits = runs[0][1]
    return True, (f"{param.label} n=2 solve: packed and scalar row gadgets "
                  f"agree on x, {ops} ops, {bits} bits, tape state")


def _suite_probe_shape(cfg):
    from . import probelab as pl
    tr = pl.record_trace("refresh", field_new(4), 2, seed=cfg.seed)
    if len(tr.ids) != 4:
        return False, f"refresh n=2 trace has {len(tr.ids)} points, want 4"
    tr3 = pl.record_trace("refresh", field_new(4), 3, seed=cfg.seed)
    if len(tr3.ids) != 7:
        return False, f"refresh n=3 trace has {len(tr3.ids)} points, want 7"
    for name in ("refresh", "sec_mult", "sec_cond_add", "b2minv"):
        a = pl.record_trace(name, field_new(4), 2, seed=cfg.seed)
        b = pl.record_trace(name, field_new(4), 2, seed=cfg.seed + 1)
        if a.ids != b.ids:
            return False, f"{name} point sequence is data-dependent"
    return True, "point sequences stable; refresh n=2 has exactly 4 points"


def _suite_leak_broken(cfg):
    from . import probelab as pl
    f16 = field_new(4)
    ok = pl.leak_summary(pl.exhaustive_first_order("refresh", f16, 2))
    if not ok["pass"]:
        return False, "refresh fails exhaustive first-order check"
    for name in ("refresh_broken", "sec_mult_broken", "sec_nonzero_broken"):
        s = pl.leak_summary(pl.exhaustive_first_order(name, f16, 2))
        if s["failed"] < 1:
            return False, f"{name} not caught"
    return True, "broken variants caught; refresh clean"


def _suite_cost_anchors(cfg):
    anchors = [
        (cm.t_cost("sec_cond_add", 2, 1), 14),
        (cm.t_cost("sec_nonzero", 2, w=8), 103),
        (cm.t_cost("sec_row_ech", 2, 44, w=8)
         + cm.t_cost("sec_back_sub", 2, 44), 858968),
        (cm.r_cost("sec_back_sub", 2, 44, w=8), 352),
        (cm.r_cost("sec_row_ech", 2, 44, w=8), 741576),
        (cm.r_cost("strong_refresh", 3, w=4), 12),
        (cm.t_cost("b2minv", 2), 7),
        (cm.t_cost("full_add", 3), 11),
    ]
    for got, want in anchors:
        if got != want:
            return False, f"anchor broken: got {got}, want {want}"
    return True, f"{len(anchors)} frozen cost anchors hold"


def _suite_table(cfg):
    rows = cm.cost_table()
    if len(rows) != 93:
        return False, f"{len(rows)} rows, want 93"
    bad = cm.verify_rows(rows)
    got = {(b["label"], b["column"], b["n"]) for b in bad}
    want = set(cm.KNOWN_SNAPSHOT_DEVIATIONS)
    if got != want:
        return False, f"out-of-tolerance cells {sorted(got)} != documented"
    return True, ("all cells within tolerance except the 3 documented "
                  "snapshot-inconsistent randomness cells")


_SUITES = (
    ("gf", _suite_gf),
    ("sharing", _suite_sharing),
    ("gadgets", _suite_gadgets),
    ("counters", _suite_counters),
    ("pipeline-counters", _suite_pipeline_counters),
    ("oracle", _suite_oracle),
    ("packed-path", _suite_packed_path),
    ("probe-shape", _suite_probe_shape),
    ("leak-broken", _suite_leak_broken),
    ("cost-anchors", _suite_cost_anchors),
    ("table", _suite_table),
)

# the suites that draw nothing: a run of only these reads no seed
_SEEDLESS = frozenset({"gf", "leak-broken", "cost-anchors", "table"})


def cmd_selftest(cfg: argparse.Namespace) -> int:
    wanted = set(cfg.suites) if cfg.suites else None
    names = {name for name, _ in _SUITES}
    if wanted and not wanted <= names:
        print(f"unknown suites: {sorted(wanted - names)}", file=sys.stderr)
        return EXIT_USAGE
    failures = 0
    ran = 0
    for name, fn in _SUITES:
        if wanted and name not in wanted:
            continue
        ok, detail = fn(cfg)
        ran += 1
        print(f"suite {name:18s} {'ok  ' if ok else 'FAIL'} {detail}")
        if not ok:
            failures += 1
    print(f"{ran - failures}/{ran} suites passed")
    return EXIT_SELFTEST if failures else EXIT_OK


# ------------------------------------------------------------------ parser


def _integer(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return value


def _share_counts(text: str) -> tuple:
    """A non-empty comma list of distinct share counts, each at least 2,
    in ascending order."""
    try:
        counts = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}") from None
    if not counts or min(counts) < 2 or len(set(counts)) < len(counts):
        raise argparse.ArgumentTypeError(
            f"expected distinct share counts of at least 2, got {text!r}")
    return tuple(sorted(counts))


def _suite_names(text: str) -> tuple:
    """A non-empty comma list of suite names."""
    names = tuple(x.strip() for x in text.split(",") if x.strip())
    if names:
        return names
    raise argparse.ArgumentTypeError(f"expected suite names, got {text!r}")


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("MGE_SEED")
    if not env:
        return DEFAULT_SEED
    try:
        return int(env, 0)
    except ValueError:
        raise ValueError(f"MGE_SEED must be an integer, got {env!r}") from None


class _UsageError(Exception):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    # argparse would exit 2, the code this CLI gives a singular system
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="mge",
        description="masked Gaussian elimination toolkit",
    )
    ap.add_argument("--seed", type=_integer, default=None,
                    help="RNG seed (default: MGE_SEED env, else fixed)")
    # The same flag is accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_integer,
                        default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common],
                       help="solve one system or a random batch")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--in", dest="in_path", help="JSON {q, m, A, b}")
    g.add_argument("--random", action="store_true",
                   help="solve --count random systems instead of a file")
    # None marks a flag not given, here and in leakcheck: a run refuses
    # the flags it never reads, and main fills in _DEFAULTS
    p.add_argument("--count", type=_at_least_one,
                   help="--random batch size (default 100)")
    p.add_argument("--q", type=int, help="--random field size (default 16)")
    p.add_argument("--m", type=_at_least_one,
                   help="--random system size (default 4)")
    p.add_argument("--shares", type=int, dest="n",
                   help="masked share count (default 2)")
    p.add_argument("--unmasked", action="store_true", default=None,
                   help="run the reference path instead of the masked one")
    p.add_argument("--compare", action="store_true",
                   help="run both paths and report MATCH counts")

    p = sub.add_parser("cost-table", parents=[common], help="scheme comparison CSV")
    p.add_argument("--schemes", default="all",
                   help="all, or comma list of families/preset labels")
    p.add_argument("--orders", type=_share_counts, default=(2, 3, 4))
    p.add_argument("--out", dest="out_path")
    p.add_argument("--verify", action="store_true", default=None,
                   help="diff scaled cells against the embedded snapshot")

    p = sub.add_parser("leakcheck", parents=[common], help="probing-model leakage checks")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--gadget", help="registry gadget name")
    g.add_argument("--pipeline", choices=("solve", "solve-unmasked"),
                   help="statistical fixed-vs-random on the full solver")
    p.add_argument("--mode", choices=("exhaustive", "statistical"),
                   help="exhaustive by default for --gadget; --pipeline "
                   "is statistical only")
    p.add_argument("--m", type=_at_least_one,
                   help="--pipeline system size (default 4)")
    p.add_argument("--samples", type=int,
                   help="statistical: total trace count, even, split between "
                   "the two classes (default 20000)")
    p.add_argument("--threshold", type=float,
                   help="statistical: |t| above which a point fails "
                   "(default 4.5)")
    p.add_argument("--shares", type=int, dest="n",
                   help="share count (default 2)")
    p.add_argument("--w", type=int, default=4, help="field width in bits")
    p.add_argument("--json", dest="json_path", help="write verdicts here")

    p = sub.add_parser("bench", parents=[common], help="time masked vs reference solving")
    p.add_argument("--param", required=True, help="preset label, e.g. uov-ip")
    p.add_argument("--shares", type=_share_counts, default=(2,))
    p.add_argument("--iters", type=_at_least_one, default=5)
    p.add_argument("--no-timing", action="store_true",
                   help="omit wall-time fields (deterministic output)")

    p = sub.add_parser("selftest", parents=[common], help="run invariant suites")
    p.add_argument("--suite", dest="suites", type=_suite_names, default=())
    return ap


# the defaults of the flags that parse to None when not given
_DEFAULTS = {"count": 100, "q": 16, "m": 4, "n": 2, "samples": 20000,
             "threshold": 4.5}


def _unread_flags(cfg: argparse.Namespace) -> dict:
    """The flags that the chosen run never reads, given or not, each
    mapped to that run. MGE_SEED is no flag, and no run refuses it; a
    run that never reads --seed does not resolve MGE_SEED either."""
    unread = {}
    if cfg.command == "solve":
        if cfg.in_path is not None:
            for flag in ("--count", "--q", "--m"):
                unread[flag] = "a solve of an --in file"
        if cfg.compare:
            unread["--unmasked"] = "--compare, which runs both paths"
        elif cfg.unmasked:
            unread["--shares"] = "an --unmasked solve"
            if cfg.in_path is not None:
                unread["--seed"] = "an --unmasked solve of an --in file"
    elif cfg.command == "cost-table":
        unread["--seed"] = "cost-table, which draws nothing"
        if not set(cfg.orders) & set(cm.PRINTED_ORDERS):
            unread["--verify"] = (
                f"--orders {','.join(map(str, cfg.orders))}: the snapshot "
                f"prints n = {', '.join(map(str, cm.PRINTED_ORDERS))} only")
    elif cfg.command == "leakcheck" and cfg.gadget:
        if cfg.mode != "statistical":
            for flag in ("--samples", "--threshold", "--seed"):
                unread[flag] = "an exhaustive check"
        unread["--m"] = "a --gadget check: it sizes a --pipeline system"
    elif cfg.command == "leakcheck" and cfg.pipeline == "solve-unmasked":
        unread["--shares"] = "--pipeline solve-unmasked: it has no shares"
    elif (cfg.command == "selftest" and cfg.suites
          and _SEEDLESS.issuperset(cfg.suites)):
        unread["--seed"] = (f"--suite {','.join(cfg.suites)}, which "
                            "draws nothing")
    return unread


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    # a flag the chosen run never reads is refused, not dropped
    unread = _unread_flags(ns)
    for flag, run in unread.items():
        if getattr(ns, {"--shares": "n"}.get(flag, flag[2:])) is not None:
            print(f"{flag} has no effect on {run}", file=sys.stderr)
            return EXIT_USAGE
    for key, value in _DEFAULTS.items():
        if getattr(ns, key, value) is None:
            setattr(ns, key, value)
    try:
        if "--seed" not in unread:
            ns.seed = _resolve_seed(ns.seed)
        handler = {
            "solve": cmd_solve,
            "cost-table": cmd_cost_table,
            "leakcheck": cmd_leakcheck,
            "bench": cmd_bench,
            "selftest": cmd_selftest,
        }[ns.command]
        return handler(ns)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
