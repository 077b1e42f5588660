"""The three workloads, the fixed probe, and the metrics they yield.

Every timed operation runs in a forked child (isolate.py), one at a time,
in a closed loop: the next operation is issued only after the previous one
returned.  The seed fixes the order of operations and the sampled degrees;
the library only ever sees the generated (q, n) values.

engine  cold engine_for(q) for every q in ENGINE_FIELDS, each followed by
        f_count/i_count for n = 1..12; whole passes in seeded field order.
query   cold count requests (f_count(n) + i_count(n) on an engine whose power
        sums no earlier request extended) for q in QUERY_FIELDS and n
        log-uniform on [100, 2500], stratified so that every round covers the
        same n range for every q, plus two table(1, 1000) sweeps at q = 9 per
        round, evenly spaced.
oracle  cold-table enumeration of every in-range (q, n) with
        2**18 <= q**n <= 2**22 and verify_all on ORACLE_GRID in seeded order,
        with the sequence checks repeated at evenly spaced points.

A workload reports every end-to-end metric.  Where it does no work of a
metric's kind, the value comes from the probe: a small fixed job, the same
on every workload and every seed, spread over the measured window.  So the
engine workload's verify_s is the probe's verify_all(3, 4), for example.
Which source each metric came from is written to the result file.

Every time is scaled to a fixed host speed (speed.py): the parent times a
reference routine between operations, and each operation's seconds are
multiplied by the nominal over the measured routine time around it.
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass

from isolate import ColdStateError, object_size, prepare_parent, run_forked
from reference import DIGEST_FIELDS, FIELDS, scan_digest
from speed import SpeedLog
# Library calls go through the module objects, so that the tracer's
# replacement of a module attribute is what this file calls.
from tracezero import counting, oracle, sequences

ENGINE_FIELDS = FIELDS
QUERY_FIELDS = DIGEST_FIELDS  # the reference holds n <= 2500 for these
ORACLE_GRID = ((3, 4), (5, 4), (9, 4), (4, 4))
TAIL_PERCENTILE = 90
TAIL_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the p90


@dataclass(frozen=True)
class Scale:
    engine_fields: tuple
    engine_rows: int
    engine_min_passes: int
    query_fields: tuple
    query_n: tuple  # (lo, hi) for the log-uniform degree draw
    query_strata: int  # requests per field per round
    query_sweep: tuple  # (q, n_max) of the contiguous table sweep
    query_sweeps: int  # sweeps per round
    query_min_rounds: int
    enum_range: tuple  # (lo, hi) bounds on q**n
    grid: tuple
    family_bound: tuple  # (p, n) for distinct_family_count
    family_scan: tuple  # primes p whose Omega_{p,5} is scanned
    family_reps: int  # sequence-check repeats per oracle pass
    setup_reps: int
    probe_count: tuple  # (q, n_lo, n_hi, requests)
    probe_sweep: tuple  # (q, n_max, repeats)
    probe_enum: tuple  # (q, n, repeats)
    probe_verify: tuple  # (q, n_max, repeats)
    probe_family_reps: int


FULL = Scale(
    engine_fields=ENGINE_FIELDS,
    engine_rows=12,
    engine_min_passes=2,
    query_fields=QUERY_FIELDS,
    query_n=(100, 2500),
    query_strata=16,
    query_sweep=(9, 1000),
    query_sweeps=3,
    query_min_rounds=3,
    enum_range=(1 << 18, 1 << 22),
    grid=ORACLE_GRID,
    family_bound=(5, 5),
    family_scan=(5, 7),
    family_reps=4,
    setup_reps=5,
    probe_count=(4, 100, 1000, 2 * TAIL_MIN_SAMPLES),
    probe_sweep=(4, 300, 15),
    probe_enum=(8, 6, 5),
    probe_verify=(3, 4, 9),
    probe_family_reps=9,
)

# Toy sizes for the self-check: every code path, a few seconds in all.
TOY = Scale(
    engine_fields=(2, 3, 4),
    engine_rows=6,
    engine_min_passes=1,
    query_fields=(4, 9),
    query_n=(20, 60),
    query_strata=3,
    query_sweep=(9, 40),
    query_sweeps=1,
    query_min_rounds=1,
    enum_range=(1 << 8, 1 << 10),
    grid=((3, 2), (4, 2)),
    family_bound=(5, 5),
    family_scan=(5,),
    family_reps=2,
    setup_reps=2,
    probe_count=(4, 20, 60, 12),
    probe_sweep=(4, 40, 2),
    probe_enum=(2, 10, 2),
    probe_verify=(3, 2, 2),
    probe_family_reps=2,
)


def enum_pairs(fields, lo: int, hi: int) -> list[tuple[int, int]]:
    return [(q, n) for q in fields for n in range(1, 64) if lo <= q**n <= hi]


def interleave(ops: list, extra: list) -> list:
    """ops with the extra operations inserted at evenly spaced positions."""
    out = list(ops)
    for j in reversed(range(len(extra))):
        out.insert(int((j + 0.5) * len(ops) / len(extra)), extra[j])
    return out


def rate(recs, key: str) -> float:
    """Work per second over all the records: sum of key over sum of time."""
    return sum(r[key] for r in recs) / sum(r["s"] for r in recs)


def mean_s(recs) -> float:
    return sum(r["s"] for r in recs) / len(recs)


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all order
    statistics, the weights being Beta(p(n+1), (1-p)(n+1)) probabilities of
    the intervals [(i-1)/n, i/n].  It moves far less from run to run than
    the single order statistic at rank pn."""
    xs = sorted(samples)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64  # midpoint rule per interval; accurate while a, b >= 1
    total = 0.0
    for i, x in enumerate(xs):
        w = 0.0
        for j in range(steps):
            t = (i + (j + 0.5) / steps) / n
            w += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_norm)
        total += w / (steps * n) * x
    return total


def tail(samples: list[float]) -> tuple[float, str]:
    """The p90 when at least ten samples lie beyond it, else the maximum."""
    if len(samples) >= TAIL_MIN_SAMPLES:
        return quantile(samples, TAIL_PERCENTILE / 100), f"p{TAIL_PERCENTILE} (Harrell-Davis)"
    return max(samples), "max"


# ---------------------------------------------------------------------------
# operations: each returns (timings, check) where check() lists mismatches


def op_build(b, q, rows):
    t0 = time.perf_counter()
    e = counting.engine_for(q)
    build_s = time.perf_counter() - t0
    row_s, got = [], []
    for n in range(1, rows + 1):
        t = time.perf_counter()
        f, i = e.f_count(n), e.i_count(n)
        row_s.append(time.perf_counter() - t)
        got.append((q, n, f, i))
    return {"build_s": build_s, "row_s": row_s}, lambda: b.check_counts(got)


def op_count(b, q, n):
    e = b.pristine[q][0]
    t0 = time.perf_counter()
    f, i = e.f_count(n), e.i_count(n)
    s = time.perf_counter() - t0
    return {"s": s}, lambda: b.check_counts([(q, n, f, i)])


def op_sweep(b, q, n_max):
    e = b.pristine[q][0]
    t0 = time.perf_counter()
    report = e.table(1, n_max)
    s = time.perf_counter() - t0
    got = [(q, row.n, row.f_count, row.i_count) for row in report.rows]
    return {"s": s, "rows": len(got)}, lambda: b.check_counts(got, expect=n_max)


def op_enum(b, q, n):
    t0 = time.perf_counter()
    f, i = oracle.enum_f_count(q, n), oracle.enum_i_count(q, n)
    s = time.perf_counter() - t0
    return {"s": s, "elements": q**n}, lambda: b.check_counts([(q, n, f, i)])


def op_verify(b, q, n_max):
    t0 = time.perf_counter()
    report = oracle.verify_all(q, n_max)
    s = time.perf_counter() - t0
    statuses = [c.status for c in report.checks]
    fails = [f"verify q={q}: {c.name} n={c.n} {c.detail}" for c in report.checks if c.status == "fail"]
    out = {"s": s, "passed": statuses.count("pass"), "skipped": statuses.count("skip")}
    return out, lambda: fails + ([] if statuses else [f"verify q={q} ran no checks"])


def op_family_bound(b, p, n):
    e = b.pristine[p][0]
    t0 = time.perf_counter()
    rep = sequences.distinct_family_count(p, n, engine=e)
    s = time.perf_counter() - t0
    got = {"omega_size": rep.omega_size, "distinct": rep.distinct_families, "bound": rep.bound}
    return {"s": s}, lambda: b.check_family_bound(p, got)


def op_family_scan(b, p, n):
    t0 = time.perf_counter()
    rows = []
    for f in sequences.omega_members(p, n):
        fam = sequences.build_family(f, p)
        rows.append(
            (sequences.family_complexity(fam),)
            + tuple(sequences.cross_correlation(fam, ell) for ell in (1, 2, 3))
        )
    s = time.perf_counter() - t0
    return {"s": s}, lambda: b.check_family_scan(p, rows)


OPS = {
    "build": op_build,
    "count": op_count,
    "sweep": op_sweep,
    "enum": op_enum,
    "verify": op_verify,
    "family_bound": op_family_bound,
    "family_scan": op_family_scan,
}
USES_PRISTINE = {"count", "sweep", "family_bound"}
# End-to-end metrics each workload measures on its own work; the probe
# supplies the rest.
OWN_METRICS = {
    "engine": {"setup_s", "table_rows_per_s"},
    "query": {"setup_s", "count_p50_s", "count_tail_s", "table_rows_per_s"},
    "oracle": {"setup_s", "enum_elements_per_s", "verify_s", "verify_checks_passed", "family_s"},
}
# The first library span each operation must open when traced.
ENTRY_SPAN = {
    "build": "counting.CountEngine.__init__",
    "setup_build": "counting.CountEngine.__init__",
    "count": "counting.CountEngine.f_count",
    "sweep": "counting.CountEngine.table",
    "enum": "oracle.enum_f_count",
    "verify": "oracle.verify_all",
    "family_bound": "sequences.distinct_family_count",
    "family_scan": "sequences.omega_members",
}


class Bench:
    """One run: set-up, the measured window, the probe, and the metrics."""

    def __init__(self, ref, registry, tracer, scale: Scale, seconds: float, rng):
        self.ref = ref
        self.registry = registry
        self.tracer = tracer
        self.scale = scale
        self.seconds = seconds
        self.rng = rng
        self.pristine = {}  # q -> (engine, object size right after the build)
        self.probe_ops = []  # (kind, *args) spread over the measured window
        self.wanted = set()
        self.records = []  # every operation, in order
        self.speed = SpeedLog()

    # -- correctness -------------------------------------------------------------

    def check_counts(self, got, expect=None) -> list[str]:
        bad = [f"q={q} n={n}: (F, I) differs from the reference" for q, n, f, i in got if not self.ref.matches(q, n, f, i)]
        if expect is not None and len(got) != expect:
            bad.append(f"expected {expect} rows, got {len(got)}")
        return bad

    def check_family_bound(self, p, got) -> list[str]:
        want = {k: self.ref.family[p][k] for k in got}
        bad = [] if got == want else [f"family p={p}: {got} != {want}"]
        if not got["distinct"] < got["bound"]:
            bad.append(f"family p={p}: distinct count not below the bound")
        return bad

    def check_family_scan(self, p, rows) -> list[str]:
        bad = [f"family scan p={p}: bound violated by {r}" for r in rows if 2 ** r[0] > p - 1 or max(r[1:]) > p - 1]
        want = self.ref.family.get(p, {}).get("scan")
        if want is not None and scan_digest(rows) != want:
            bad.append(f"family scan p={p}: statistics differ from the reference")
        return bad

    # -- running one operation ------------------------------------------------------

    def _execute(self, kind, args):
        """Body of one operation, in the process that times it."""
        try:
            self.registry.assert_cold()
            if kind in USES_PRISTINE:
                engine, size = self.pristine[args[0]]
                if object_size(engine) != size:
                    raise ColdStateError(f"engine q={args[0]} was extended before this request")
        except ColdStateError as exc:
            return {"cold_error": str(exc)}
        tracer = self.tracer
        if tracer is not None:
            tracer.reset()
            root = tracer.begin_op(kind)
        t0 = time.perf_counter()
        try:
            out, check = OPS[kind](self, *args)
        finally:
            op_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op(root)
        bad = check()
        out.update(op_s=op_s, bad=bad[:5], n_bad=len(bad))
        if tracer is not None:
            # one string, not a tree of small objects: the parent's heap
            # stays compact, so later children do not inherit a fragmented one
            out["spans"] = json.dumps(tracer.spans)
        return out

    def run(self, kind, group, *args) -> dict:
        self.speed.maybe_sample()
        t0 = time.perf_counter()
        rec = run_forked(self._execute, kind, args)
        return self._record(kind, group, args, rec, t0)

    def overhead(self, budget_s: float) -> float:
        """Re-run a prefix of the main operations in pairs, once untraced and
        once traced, alternating which goes first; returns traced over
        untraced time minus one.  The paired runs are not kept as spans."""
        tracer = self.tracer
        ops = [(r["kind"], r["args"]) for r in self.records if r["group"] == "main" and r["ok"]]
        times = {True: 0.0, False: 0.0}
        for j, (kind, args) in enumerate(ops):
            for traced in (j % 2 == 0, j % 2 != 0):
                if traced:
                    tracer.install()
                self.tracer = tracer if traced else None
                rec = self.run(kind, "overhead", *args)
                tracer.uninstall()
                times[traced] += rec["op_s"] if rec["ok"] else 0.0
            if times[False] >= budget_s:
                break
        self.tracer = None
        return times[True] / times[False] - 1.0 if times[False] else 0.0

    def _record(self, kind, group, args, rec, t0) -> dict:
        if "cold_error" in rec:
            raise ColdStateError(rec["cold_error"])
        rec.update(kind=kind, group=group, args=list(args), t0=t0, t1=time.perf_counter())
        rec["failed"] = (not rec["ok"]) or rec.get("n_bad", 0) > 0
        self.records.append(rec)
        self.speed.maybe_sample()
        return rec

    def _scale_times(self):
        """Scale the times of every record not yet scaled to the nominal host
        speed, from the reference samples on both sides of it; raw seconds
        are the scaled ones over rec["scale"]."""
        self.speed.sample()
        for rec in self.records:
            if "scale" in rec:
                continue
            scale = rec["scale"] = self.speed.scale(rec["t0"], rec["t1"])
            for key in ("s", "build_s"):
                if key in rec:
                    rec[key] *= scale
            if "row_s" in rec:
                rec["row_s"] = [x * scale for x in rec["row_s"]]

    def build_pristine(self, fields, group) -> list[dict]:
        """Cold-build engines in this process and keep them; returns the
        builds' records.  Caches are cleared before each build and after
        the last, so only the engines themselves stay warm."""
        recs = []
        for q in fields:
            self.registry.clear()
            self.registry.assert_cold()
            self.speed.maybe_sample()
            tracer = self.tracer
            if tracer is not None:
                tracer.reset()
                root = tracer.begin_op("setup_build")
            t0 = time.perf_counter()
            engine = counting.engine_for(q)
            s = time.perf_counter() - t0
            rec = {"ok": True, "s": s, "op_s": s, "n_bad": 0}
            if tracer is not None:
                tracer.end_op(root)
                rec["spans"] = json.dumps(tracer.spans)
            recs.append(self._record("setup_build", group, (q,), rec, t0))
            self.pristine[q] = (engine, object_size(engine))
        self.registry.clear()
        self.registry.assert_cold()
        prepare_parent()
        return recs

    def setup(self, fields) -> list[list[dict]]:
        return [self.build_pristine(fields, "setup") for _ in range(self.scale.setup_reps)]

    # -- workloads --------------------------------------------------------------------

    def _window(self, make_batch, min_batches):
        """Run batches of operations until the window is spent.  Probe
        operations are spread evenly over the window's time line, so they
        meet the same machine conditions as the workload's own."""
        prepare_parent()
        start = time.perf_counter()
        done = ops_run = 0
        batches = []
        while True:
            batch = make_batch()
            expected_ops = min_batches * len(batch)
            recs = []
            for kind, *args in batch:
                recs.append(self.run(kind, "main", *args))
                ops_run += 1
                # progress: the slower of the clock and the minimum work
                progress = min((time.perf_counter() - start) / max(self.seconds, 1e-9), ops_run / expected_ops)
                due = min(len(self.probe_ops), math.ceil(len(self.probe_ops) * progress))
                for pkind, *pargs in self.probe_ops[done:due]:
                    self.run(pkind, "probe", *pargs)
                done = max(done, due)
            batches.append([r for r in recs if r["ok"]])
            if len(batches) >= min_batches and time.perf_counter() - start >= self.seconds:
                break
        for pkind, *pargs in self.probe_ops[done:]:
            self.run(pkind, "probe", *pargs)
        self._scale_times()
        return batches

    def engine(self) -> dict:
        sc = self.scale

        def batch():
            return [("build", q, sc.engine_rows) for q in self.rng.sample(sc.engine_fields, len(sc.engine_fields))]

        passes = self._window(batch, sc.engine_min_passes)
        recs = [r for p in passes for r in p]
        return {
            "setup_s": statistics.median(sum(r["build_s"] for r in p) for p in passes),
            "table_rows_per_s": sum(len(r["row_s"]) for r in recs) / sum(sum(r["row_s"]) for r in recs),
        }

    def query(self) -> dict:
        sc = self.scale
        setups = self.setup(sc.query_fields)
        lo, hi = math.log(sc.query_n[0]), math.log(sc.query_n[1])

        def batch():
            ops = []
            for q in sc.query_fields:
                for k in range(sc.query_strata):
                    u = (k + self.rng.random()) / sc.query_strata
                    ops.append(("count", q, round(math.exp(lo + u * (hi - lo)))))
            self.rng.shuffle(ops)
            return interleave(ops, [("sweep",) + sc.query_sweep] * sc.query_sweeps)

        rounds = self._window(batch, sc.query_min_rounds)
        recs = [r for batch_ in rounds for r in batch_]
        lat = [r["s"] for r in recs if r["kind"] == "count"]
        t, label = tail(lat)
        return {
            "setup_s": statistics.median(sum(r["s"] for r in recs) for recs in setups),
            "count_p50_s": quantile(lat, 0.5),
            "count_tail_s": t,
            "table_rows_per_s": rate([r for r in recs if r["kind"] == "sweep"], "rows"),
            "_tail": (label, len(lat)),
        }

    def oracle(self) -> dict:
        sc = self.scale
        grid_fields = tuple(sorted({q for q, _ in sc.grid} | {sc.family_bound[0]}))
        setups = self.setup(grid_fields)
        pairs = enum_pairs(ENGINE_FIELDS, *sc.enum_range)

        def batch():
            ops = [("enum", q, n) for q, n in pairs] + [("verify", q, n) for q, n in sc.grid]
            self.rng.shuffle(ops)
            family = [("family_bound",) + sc.family_bound] + [("family_scan", p, 5) for p in sc.family_scan]
            return interleave(ops, family * sc.family_reps)

        passes = self._window(batch, 1)
        recs = [r for p in passes for r in p]

        def of(*kinds):
            return [r for r in recs if r["kind"] in kinds]

        return {
            "setup_s": statistics.median(sum(r["s"] for r in recs) for recs in setups),
            "enum_elements_per_s": rate(of("enum"), "elements"),
            "verify_s": sum(r["s"] for r in of("verify")) / len(passes),
            "verify_checks_passed": sum(r["passed"] for r in of("verify")) / len(passes),
            # one run of the three sequence checks, averaged over the repeats
            "family_s": sum(r["s"] for r in of("family_bound", "family_scan")) / (sc.family_reps * len(passes)),
        }

    # -- the probe ---------------------------------------------------------------------

    def plan_probe(self, wanted: set):
        """Queue the fixed probe operations for the metrics in wanted, each
        kind spread evenly through the queue, and build the engines they use."""
        sc = self.scale
        q, n_lo, n_hi, k = sc.probe_count
        kinds = []
        if wanted & {"count_p50_s", "count_tail_s"}:
            counts = [("count", q, round(n_lo * (n_hi / n_lo) ** (j / (k - 1)))) for j in range(k)]
            random.Random(0).shuffle(counts)  # the same order on every run
            kinds.append(counts)
        if "table_rows_per_s" in wanted:
            kinds.append([("sweep",) + sc.probe_sweep[:2]] * sc.probe_sweep[2])
        if "enum_elements_per_s" in wanted:
            kinds.append([("enum",) + sc.probe_enum[:2]] * sc.probe_enum[2])
        if wanted & {"verify_s", "verify_checks_passed"}:
            kinds.append([("verify",) + sc.probe_verify[:2]] * sc.probe_verify[2])
        if "family_s" in wanted:
            pair = [("family_bound",) + sc.family_bound, ("family_scan",) + sc.family_bound]
            kinds.append(pair * sc.probe_family_reps)
        slots = sorted(((j + 0.5) / len(ops), i, op) for i, ops in enumerate(kinds) for j, op in enumerate(ops))
        self.probe_ops = [op for _, _, op in slots]
        self.wanted = wanted
        need = {op[1] for op in self.probe_ops if op[0] in USES_PRISTINE} - set(self.pristine)
        if need:
            self.build_pristine(sorted(need), "probe_setup")

    def probe_metrics(self) -> dict:
        recs = [r for r in self.records if r["group"] == "probe" and r["ok"]]

        def of(kind):
            return [r for r in recs if r["kind"] == kind]

        out = {}
        wanted = self.wanted
        if wanted & {"count_p50_s", "count_tail_s"}:
            lat = [r["s"] for r in of("count")]
            t, label = tail(lat)
            out.update(count_p50_s=quantile(lat, 0.5), count_tail_s=t, _tail=(label, len(lat)))
        if "table_rows_per_s" in wanted:
            out["table_rows_per_s"] = rate(of("sweep"), "rows")
        if "enum_elements_per_s" in wanted:
            out["enum_elements_per_s"] = rate(of("enum"), "elements")
        if wanted & {"verify_s", "verify_checks_passed"}:
            out["verify_s"] = mean_s(of("verify"))
            out["verify_checks_passed"] = statistics.median(r["passed"] for r in of("verify"))
        if "family_s" in wanted:
            out["family_s"] = mean_s(of("family_bound")) + mean_s(of("family_scan"))
        return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0
