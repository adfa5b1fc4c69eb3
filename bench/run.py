"""Run one eventspec benchmark workload and print its metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run, whose ops alternate traced and untraced so the tracing
overhead is measured in the same run. The lines before it print every
metric by name with its unit and sample count, and a provenance block.
--out appends the full record (result, provenance, samples) to a JSON-lines
file, the input of compare.py. The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchstats
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    parser.add_argument("--smoke", action="store_true",
                        help="minimal inputs and one set-up run, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def measure_setup(workload_cls, runs: int) -> list[float]:
    """Wall time of fresh interpreters doing the workload's set-up."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", workload_cls.setup_code], env=child_env(),
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def timed_phase(workload, seconds: float, trace: bool, first_op: int):
    """Closed loop: one op in flight until the next would overrun ``seconds``.

    Returns per-op records, the tracer, the wall seconds and the CPU
    utilisation. In a traced run every other op is traced, starting with the
    first, so the others measure the tracing overhead.
    """
    tracer = spans.Tracer() if trace else None
    records = []
    cpu0 = cpu_seconds()
    t_start = time.perf_counter()
    i = first_op
    while True:
        traced = trace and len(records) % 2 == 0
        restore = None
        if traced:
            tracer.op = i
            restore = spans.install(tracer) if workload.in_process else None
            op_span = tracer.begin(spans.OP)
        t0 = time.perf_counter()
        error = child_spans = None
        try:
            child_spans = workload.op(i, tracer if traced else None)
        except Exception as exc:  # an op that raises counts as failed, the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if traced:
            tracer.end(op_span)
            if restore is not None:
                restore()
            if child_spans is not None:
                tracer.adopt_child(child_spans, op_span)
                child_spans.unlink()
        records.append({"op": i, "s": t1 - t0, "traced": traced, "error": error})
        i += 1
        ok = [r["s"] for r in records if r["error"] is None] or [t1 - t0]
        if t1 - t_start + statistics.median(ok) > seconds:
            break
    wall = time.perf_counter() - t_start
    return records, tracer, wall, (cpu_seconds() - cpu0) / wall


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def provenance(args, workload, records, overhead_pct) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_env": {k: os.environ.get(k) for k in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}},
        "git_commit": commit or "unknown (not a git checkout)",
        "workload": args.workload,
        "seed": args.seed,
        "op_seeds": f"seed * 100000 + op index (timed ops 1..{records[-1]['op']})",
        "warm_up": workload.warm_up_note,
        "timed_ops": len(records),
        "replicates_per_op": getattr(workload, "replicates", None),
        "seconds": args.seconds,
        "trace": args.trace,
        "tracing_overhead_pct": overhead_pct,
        "smoke": args.smoke,
    }


def run(args) -> tuple[dict, dict]:
    cls = workloads.WORKLOADS[args.workload]
    setup = measure_setup(cls, 1 if args.smoke else SETUP_RUNS)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        workload = cls(ROOT, work, args.seed, args.smoke)
        workload.warm_up()
        records, tracer, wall, cpu_util = timed_phase(
            workload, args.seconds, bool(args.trace), first_op=1)
        problems = workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    ok = [r for r in records if r["error"] is None]
    failed = len(records) - len(ok)
    lines = []
    overhead_pct = None
    if args.trace:
        traced = [r["s"] for r in ok if r["traced"]]
        plain = [r["s"] for r in ok if not r["traced"]]
        if traced and plain:
            overhead_pct = 100.0 * (statistics.mean(traced) / statistics.mean(plain) - 1.0)
        layer = spans.layer_metrics([s for s in tracer.spans if s["op"] is not None])
        layer["proc.cpu_util"] = cpu_util
        layer["trace.overhead_pct"] = overhead_pct if overhead_pct is not None else 0.0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in spec}
        n_traced = sum(r["traced"] for r in ok)
        for m in spec:
            lines.append(f"{args.workload:22s} {m['name']:44s} {layer[m['name']]:14.6g} "
                         f"{m['unit']:6s} (n={n_traced} traced ops)")
    else:
        lat = [r["s"] for r in ok] or [float("nan")]
        tail, tail_pct = benchstats.tail(lat)
        values = {
            "setup_s": (statistics.median(setup), "s", f"median of n={len(setup)}"),
            "op_p50_s": (statistics.median(lat), "s", f"n={len(ok)}"),
            "op_tail_s": (tail, "s", f"p{tail_pct:.1f}, n={len(ok)}"),
            "ops_per_s": (len(ok) / wall, "1/s", f"n={len(ok)} ops over {wall:.2f} s"),
            "fail_frac": (failed / len(records), "ratio", f"{failed}/{len(records)}"),
            "peak_rss_mb": (peak_rss_mb(workload.in_process), "MB", "n=1, getrusage"),
        }
        # fail_frac reads 0 on a healthy run, and an end-to-end metric may not,
        # so it travels as attempted/failed
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()
                   if k != "fail_frac"}
        for k, (v, u, note) in values.items():
            lines.append(f"{args.workload:22s} {k:12s} {v:14.6g} {u:6s} ({note})")
    for r in records:
        if r["error"]:
            lines.append(f"op {r['op']} failed: {r['error']}")
    for p in problems:
        lines.append(f"CHECK FAILED: {p}")
    result = {"correct": not problems and bool(ok), "attempted": len(records),
              "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "result": result, "setup_s": setup, "op_s": [r["s"] for r in records],
              "provenance": provenance(args, workload, records, overhead_pct),
              "lines": lines}
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "eventspec" / "__init__.py").is_file():
        print(f"error: no eventspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result, record = run(args)
    for line in record["lines"]:
        print(line)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
