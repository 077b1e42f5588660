"""tracezero benchmark: one command, three workloads, exact checks.

    python3 perfbench/run.py --workload engine|query|oracle --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the repository root; the library is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
End-to-end times are scaled to a fixed host speed (speed.py).  A result
file with the machine record and every operation goes to .perfbench/.
See NOTES.md for what each workload and metric means.
"""

from __future__ import annotations

import os

# One BLAS thread: the load stays single-process with at most nproc
# threads, and forking a child is safe because no thread pool exists.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

END_TO_END = {
    "setup_s": "s",
    "count_p50_s": "s",
    "count_tail_s": "s",
    "table_rows_per_s": "rows/s",
    "enum_elements_per_s": "elements/s",
    "verify_s": "s",
    "verify_checks_passed": "count",
    "family_s": "s",
    "peak_rss_mb": "MB",
}
WORKLOADS = ("engine", "query", "oracle")
OVERHEAD_REPLAY_SHARE = 0.25  # paired overhead runs: this share of --seconds each side


def import_library():
    """Import tracezero from ./src and nowhere else."""
    sys.path.insert(0, str(SRC))
    import tracezero

    if not Path(tracezero.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"tracezero imported from {tracezero.__file__}, not from {SRC}")


def machine_record() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "tracezero").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "loadavg_start": list(os.getloadavg()),
    }


def git_sha() -> str | None:
    """HEAD of ./.git read directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale) -> tuple[dict, dict]:
    """One run; returns (result line, result file contents)."""
    import isolate
    import tracing
    import workloads
    from reference import Reference

    modules = isolate.library_modules()
    registry = isolate.ColdRegistry(modules)
    tracer = None
    if trace:
        tracer = tracing.Tracer(modules)
        tracer.install()
    bench = workloads.Bench(Reference.load(), registry, tracer, scale, seconds, random.Random(seed))
    started = time.perf_counter()
    if not trace:
        bench.plan_probe(set(END_TO_END) - workloads.OWN_METRICS[name] - {"peak_rss_mb"})
    values = getattr(bench, name)()
    tail_info = values.pop("_tail", None)
    sources = dict.fromkeys(values, "workload")
    if trace:
        tracer.uninstall()
        overhead = bench.overhead(OVERHEAD_REPLAY_SHARE * seconds)
        for r in bench.records:
            if "spans" in r:
                r["spans"] = json.loads(r["spans"])
        home = [r for r in bench.records if r["group"] in ("setup", "main")]
        layer = tracing.layer_metrics(home)
        layer["trace.overhead_share"] = (overhead, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        probed = bench.probe_metrics()
        tail_info = probed.pop("_tail", tail_info)
        values.update(probed)
        sources.update(dict.fromkeys(probed, "probe"))
        values["peak_rss_mb"] = workloads.peak_rss_mb()
        sources["peak_rss_mb"] = "workload"
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    failed = [r for r in bench.records if r["failed"]]
    line = {
        "correct": not failed,
        "attempted": len(bench.records),
        "failed": len(failed),
        "metrics": metrics,
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "wall_s": time.perf_counter() - started,
        "count_tail": {"percentile": tail_info[0], "samples": tail_info[1]} if tail_info else None,
        "speed": bench.speed.summary(),
        "sources": sources,
        "missing_trace_targets": tracer.missing if tracer else [],
        "failures": [{k: r.get(k) for k in ("kind", "args", "error", "bad")} for r in failed],
        "operations": [{k: v for k, v in r.items() if k != "spans"} for r in bench.records],
    }
    if trace:
        detail["spans"] = [
            {"op": i, "kind": r["kind"], "group": r["group"], "args": r["args"], "spans": r["spans"]}
            for i, r in enumerate(bench.records)
            if "spans" in r
        ]
    return line, detail


def print_summary(line: dict, detail: dict):
    for name, m in line["metrics"].items():
        src = detail["sources"].get(name, "trace")
        print(f"{name:40s} {m['value']:.6g} {m['unit']}  [{src}]")
    if detail["count_tail"]:
        ct = detail["count_tail"]
        print(f"count_tail_s is the {ct['percentile']} of {ct['samples']} cold count requests")
    sp = detail["speed"]
    print(
        f"times scaled to a {sp['nominal_s']} s reference routine; it took {sp['median_s']:.6g} s"
        f" (median of {sp['samples']}, {sp['min_s']:.6g} to {sp['max_s']:.6g}) in this run"
    )
    rate = line["failed"] / line["attempted"]
    print(f"error_rate {rate:.6g} ratio ({line['failed']} failed of {line['attempted']} attempted)")
    for f in detail["failures"][:5]:
        print(f"FAILED {f['kind']} {f['args']}: {f['error'] or f['bad']}", file=sys.stderr)


def selfcheck() -> int:
    """Toy-size run of every workload, traced and untraced, plus the
    reference against the oracles and BENCHMARK.json against this file."""
    import tracing
    import workloads
    from reference import Reference, oracle_cross_check

    problems = list(oracle_cross_check(Reference.load(), 1 << 16))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    per_layer = set()
    for name in WORKLOADS:
        for trace in (False, True):
            line, detail = run_workload(name, 1, 0.0, trace, workloads.TOY)
            tag = f"{name} trace={int(trace)}"
            if not line["correct"]:
                problems.append(f"{tag}: {detail['failures'][:3]}")
            if detail["missing_trace_targets"]:
                problems.append(f"{tag}: untraced targets {detail['missing_trace_targets']}")
            for op in detail.get("spans", []):
                spans = op["spans"]
                problems += [f"{tag} {op['kind']}: {p}" for p in tracing.check_nesting(spans)]
                entry = workloads.ENTRY_SPAN[op["kind"]]
                if not any(sp[1] == 0 and sp[0] == entry for sp in spans):
                    problems.append(f"{tag} {op['kind']} {op['args']}: no {entry} span in the op")
            if trace:
                per_layer = set(line["metrics"])
            print(f"selfcheck {tag}: {line['attempted']} ops, {line['failed']} failed", flush=True)
    if per_layer != {m["name"] for m in spec["per_layer"]}:
        problems.append("BENCHMARK.json per_layer differs from the traced metrics")
    for p in problems:
        print("PROBLEM", p, file=sys.stderr)
    print(json.dumps({"selfcheck": not problems, "problems": len(problems)}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required unless --selfcheck is given")
    if args.seconds < 0:
        ap.error("--seconds must not be negative")
    try:
        import_library()
    except ImportError as exc:
        print(f"cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    import isolate
    import workloads

    machine = machine_record()
    print("machine " + json.dumps(machine), flush=True)
    try:
        line, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL)
    except isolate.ColdStateError as exc:
        print(f"cold state violated: {exc}", file=sys.stderr)
        return 3
    detail["machine"] = machine
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail))
    print_summary(line, detail)
    print(f"details in {out.relative_to(ROOT)}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
