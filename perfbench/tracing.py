"""Outside-in tracing: spans around the library's public functions.

The tracer replaces every binding of a traced function or method (in
each library module namespace and class dict) with a wrapper that records
a span; uninstall() puts the originals back.  No library file changes.
Spans live in memory as [name, parent index, start, end, info] and are
written out when the run ends.  A span's self time is its duration minus
its direct children's; an operation's uncovered remainder is its duration
minus its top-level layer spans.

Hot inner arithmetic (FieldSpec.mul, the poly_* helpers, is_irreducible)
is deliberately not wrapped: a span per call would cost more than the call,
and that time shows as the self time of the caller's layer instead.
"""

from __future__ import annotations

import functools
import statistics
import time
from types import ModuleType

from reference import FIELDS  # fields with a per-field build metric

LAYERS = ("gf", "fastfield", "curves", "lpoly", "counting", "oracle", "sequences")


def _attr(obj, name, default=None):
    return getattr(obj, name, default)


def _build_info(args, kwargs, result, pre):
    engine = args[0]
    field = args[1] if len(args) > 1 else kwargs.get("field")
    curves = _attr(engine, "curves")
    return {
        "q": _attr(engine, "q", _attr(field, "order")),
        "curves": len(curves) if curves is not None else 0,
        "depth": _attr(engine, "verified_depth"),
    }


def _verify_info(args, kwargs, result, pre):
    statuses = [_attr(c, "status") for c in _attr(result, "checks", ())]
    return {"passed": statuses.count("pass"), "skipped": statuses.count("skip")}


def _cache_info(args, kwargs, result, pre):
    misses, cached = pre
    return {"miss": cached.cache_info().misses > misses}


def _curve_elements(args, kwargs, result, pre):
    return {"elements": args[0].field.order ** args[1]}


def _curve_pairs(args, kwargs, result, pre):
    return {"pairs": args[0].field.order ** (2 * args[1])}


def _walk_info(args, kwargs, result, pre):
    return {"elements": _attr(args[0], "N", 0)}


def _functional_info(args, kwargs, result, pre):
    return {"evals": _attr(args[0], "N", 0) * len(args[1])}


def _lpoly_info(args, kwargs, result, pre):
    try:
        return {"key": hash(result)}
    except TypeError:
        return {"key": id(result)}


def _omega_info(args, kwargs, result, pre):
    p, n = args[0], args[1]
    return {"candidates": (p - 1) ** 2 * p ** (n - 4)}


# (module, attribute path, info hook); the span is named "<module>.<path>".
TARGETS = (
    ("gf", "make_field", None),
    ("gf", "make_tower", _cache_info),
    ("gf", "make_tower_alt", None),
    ("fastfield", "table_for", _cache_info),
    ("fastfield", "multiplicative_generator", None),
    ("fastfield", "FieldTable.__init__", _walk_info),
    ("fastfield", "FieldTable.functionals_exp", _functional_info),
    ("curves", "curve_family", None),
    ("curves", "count_points", _curve_elements),
    ("curves", "count_points_naive", _curve_pairs),
    ("curves", "big_curve_count", None),
    ("lpoly", "LPolynomial.from_counts", _lpoly_info),
    ("lpoly", "LPolynomial.power_sum", None),
    ("counting", "CountEngine.__init__", _build_info),
    ("counting", "CountEngine.f_count", None),
    ("counting", "CountEngine.i_count", None),
    ("counting", "CountEngine.table", None),
    ("oracle", "enum_f_count", None),
    ("oracle", "enum_i_count", None),
    ("oracle", "z_count", None),
    ("oracle", "verify_all", _verify_info),
    ("sequences", "omega_members", _omega_info),
    ("sequences", "build_family", None),
    ("sequences", "family_complexity", None),
    ("sequences", "cross_correlation", None),
    ("sequences", "distinct_family_count", None),
)


class Tracer:
    """Span recorder for one process; children reset it after the fork."""

    def __init__(self, modules: list[ModuleType]):
        self.modules = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        self.all_modules = modules
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (namespace owner, name, original)
        self.missing: list[str] = []

    def reset(self):
        self.spans = []
        self._stack = []

    # -- install / uninstall --------------------------------------------------

    def install(self):
        self.missing = []
        for mod_name, path, hook in TARGETS:
            mod = self.modules.get(mod_name)
            owner_name, _, attr = path.rpartition(".")
            owner = _attr(mod, owner_name) if owner_name else mod
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            name = f"{mod_name}.{path}"
            if isinstance(raw, classmethod):
                self._patch(owner, attr, raw, classmethod(self._wrap(raw.__func__, name, hook)))
            elif owner_name:
                self._patch(owner, attr, raw, self._wrap(raw, name, hook))
            else:
                wrapper = self._wrap(raw, name, hook)
                for m in self.all_modules:  # every `from .x import f` binding too
                    for key, val in list(vars(m).items()):
                        if val is raw:
                            self._patch(m, key, raw, wrapper)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, fn, name, hook):
        tracer = self
        is_cache = hook is _cache_info

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            pre = (fn.cache_info().misses, fn) if is_cache else None
            rec = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if hook is not None:
                rec[4] = hook(args, kwargs, result, pre)
            return result

        return wrapper

    # -- an operation as a root span ---------------------------------------------

    def begin_op(self, kind: str) -> list:
        rec = ["op." + kind, -1, time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end_op(self, rec: list):
        rec[3] = time.perf_counter()
        self._stack.pop()


# ---------------------------------------------------------------------------
# aggregation


def check_nesting(spans: list) -> list[str]:
    """Every span lies inside its parent; exactly one root, the op span."""
    problems = []
    roots = [i for i, s in enumerate(spans) if s[1] == -1]
    if roots != [0] or not spans[0][0].startswith("op."):
        problems.append(f"expected one op root span, got roots {roots[:5]}")
    for i, (name, parent, start, end, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if parent >= i or start < p[2] or end > p[3]:
                problems.append(f"span {i} {name} escapes its parent {p[0]}")
    return problems


def self_times(spans: list) -> list[float]:
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


def layer_metrics(ops: list[dict]) -> dict:
    """Per-layer numbers from the span lists of the traced operations."""
    m = {}
    tot = {}  # span name -> (calls, seconds)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    uncovered = op_total = 0.0
    info_sum = {}
    builds = {}
    depths = []
    lp_count = lp_distinct = 0
    f_in_i = i_calls = 0
    i_self = 0.0
    cache = {"gf.make_tower": [0, 0, 0.0], "fastfield.table_for": [0, 0, 0.0]}
    n_spans = 0
    for op in ops:
        spans = op["spans"]
        n_spans += len(spans)
        selfs = self_times(spans)
        op_total += spans[0][3] - spans[0][2]
        uncovered += selfs[0]
        keys = set()
        for i, (name, parent, start, end, info) in enumerate(spans):
            if i == 0:
                continue
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + selfs[i]
            c, s = tot.get(name, (0, 0.0))
            tot[name] = (c + 1, s + end - start)
            if name in cache:
                cache[name][0] += 1
                if info and info["miss"]:
                    cache[name][1] += 1
                    cache[name][2] += end - start
            elif info:
                for k, v in info.items():
                    if isinstance(v, (int, float)) and k not in ("q", "depth", "key"):
                        info_sum[(name, k)] = info_sum.get((name, k), 0) + v
            if name == "counting.CountEngine.__init__" and info:
                builds.setdefault(info["q"], []).append((end - start, info["curves"]))
                if info["depth"] is not None:
                    depths.append(info["depth"])
            elif name == "lpoly.LPolynomial.from_counts":
                lp_count += 1
                keys.add(info["key"])
            elif name == "counting.CountEngine.i_count":
                i_calls += 1
                i_self += selfs[i]
            elif name == "counting.CountEngine.f_count":
                pname = spans[parent][0] if parent >= 0 else ""
                if pname == "counting.CountEngine.i_count":
                    f_in_i += 1
        lp_distinct += len(keys)

    def secs(name):
        return tot.get(name, (0, 0.0))[1]

    def calls(name):
        return tot.get(name, (0, 0.0))[0]

    tower = cache["gf.make_tower"]
    table = cache["fastfield.table_for"]
    m["gf.make_tower.calls"] = (tower[0], "count")
    m["gf.make_tower.misses"] = (tower[1], "count")
    m["gf.make_tower_s"] = (tower[2], "s")
    m["fastfield.table_builds"] = (calls("fastfield.FieldTable.__init__"), "count")
    m["fastfield.table_hit_ratio"] = ((table[0] - table[1]) / table[0] if table[0] else 0.0, "ratio")
    m["fastfield.table_build_s"] = (secs("fastfield.FieldTable.__init__"), "s")
    m["fastfield.generator_s"] = (secs("fastfield.multiplicative_generator"), "s")
    m["fastfield.walk_elements"] = (info_sum.get(("fastfield.FieldTable.__init__", "elements"), 0), "count")
    m["fastfield.functionals_s"] = (secs("fastfield.FieldTable.functionals_exp"), "s")
    m["fastfield.functional_evals"] = (info_sum.get(("fastfield.FieldTable.functionals_exp", "evals"), 0), "count")
    m["curves.count_points.calls"] = (calls("curves.count_points"), "count")
    m["curves.count_points_s"] = (secs("curves.count_points"), "s")
    m["curves.count_points_elements"] = (info_sum.get(("curves.count_points", "elements"), 0), "count")
    m["curves.naive_s"] = (secs("curves.count_points_naive"), "s")
    m["curves.naive_pairs"] = (info_sum.get(("curves.count_points_naive", "pairs"), 0), "count")
    m["curves.big_curve_s"] = (secs("curves.big_curve_count"), "s")
    m["lpoly.from_counts_s"] = (secs("lpoly.LPolynomial.from_counts"), "s")
    m["lpoly.count"] = (lp_count, "count")
    m["lpoly.distinct"] = (lp_distinct, "count")
    m["lpoly.distinct_ratio"] = (lp_distinct / lp_count if lp_count else 0.0, "ratio")
    m["lpoly.power_sum_calls"] = (calls("lpoly.LPolynomial.power_sum"), "count")
    m["lpoly.power_sum_s"] = (secs("lpoly.LPolynomial.power_sum"), "s")
    for q in FIELDS:
        rows = builds.get(q, [])
        m[f"counting.build_s.q{q}"] = (statistics.median(r[0] for r in rows) if rows else 0.0, "s")
        m[f"counting.curves.q{q}"] = (rows[0][1] if rows else 0, "count")
    m["counting.verified_depth_min"] = (min(depths) if depths else 0, "count")
    m["counting.f_count_calls_per_i_count"] = (f_in_i / i_calls if i_calls else 0.0, "ratio")
    m["counting.f_count_s"] = (secs("counting.CountEngine.f_count"), "s")
    m["counting.i_count_self_s"] = (i_self, "s")
    m["oracle.enum_f_s"] = (secs("oracle.enum_f_count"), "s")
    m["oracle.enum_i_s"] = (secs("oracle.enum_i_count"), "s")
    m["oracle.z_count_s"] = (secs("oracle.z_count"), "s")
    m["oracle.verify_all_s"] = (secs("oracle.verify_all"), "s")
    m["oracle.checks_passed"] = (info_sum.get(("oracle.verify_all", "passed"), 0), "count")
    m["oracle.checks_skipped"] = (info_sum.get(("oracle.verify_all", "skipped"), 0), "count")
    m["sequences.omega_members_s"] = (secs("sequences.omega_members"), "s")
    m["sequences.omega_candidates"] = (info_sum.get(("sequences.omega_members", "candidates"), 0), "count")
    m["sequences.build_family_s"] = (secs("sequences.build_family"), "s")
    m["sequences.family_complexity_s"] = (secs("sequences.family_complexity"), "s")
    m["sequences.cross_correlation_s"] = (secs("sequences.cross_correlation"), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.op_s"] = (op_total, "s")
    m["trace.uncovered_s"] = (uncovered, "s")
    m["trace.uncovered_share"] = (uncovered / op_total if op_total else 0.0, "ratio")
    m["trace.spans"] = (n_spans, "count")
    return m
