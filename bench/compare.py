"""Compare two result sets of the benchmark, workload by workload.

Usage: python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that ``run.py --out`` (or ``suite.py``) appends,
one per untraced run. Runs of the two sets with the same workload and seed
form a pair; suite.py alternates which side of a pair runs first. For each
workload and end-to-end metric the verdict follows these rules:

- ``more failures``: the change's ops fail more often (failed over
  attempted, over all its runs of the workload) than the parent's. A
  change that makes slow ops fail would otherwise read as faster.
- ``better``: the change wins at least 9/10 of the pairs (ties count for
  neither) and its median beats the parent's by more than the parent's
  interquartile range; or every change run beats every parent run.
- ``unresolved``: otherwise, when either side's spread (interquartile range
  over median) exceeds the metric's bound.
- ``worse``: the change's median is worse than the parent's by more than
  the bound.
- ``same``: otherwise.
- ``too few pairs``: fewer than 10 pairs.

Bounds and directions come from BENCHMARK.json. The exit code is 1 when a
verdict is ``more failures``, ``worse``, ``unresolved`` or ``too few pairs``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import benchstats

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path) -> dict:
    """{workload: {seed: run}} of the correct untraced runs in a set.

    A run is {"metrics": {metric: value}, "attempted": n, "failed": n}.
    """
    out: dict = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"] or not rec["result"]["correct"]:
                continue
            result = rec["result"]
            out.setdefault(rec["workload"], {})[rec["seed"]] = {
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "attempted": result["attempted"], "failed": result["failed"]}
    return out


def fail_frac(runs: dict) -> float:
    """Failed over attempted ops, over all runs of one workload in a set."""
    return (sum(r["failed"] for r in runs.values())
            / sum(r["attempted"] for r in runs.values()))


def verdict(parent: list, change: list, pairs: list, bound: float, better: str,
            parent_fail: float = 0.0, change_fail: float = 0.0) -> str:
    """Verdict for one metric; ``pairs`` holds (parent, change) values."""
    if len(pairs) < MIN_PAIRS:
        return "too few pairs"
    if change_fail > parent_fail:
        return "more failures"
    sign = 1.0 if better == "lower" else -1.0

    def beats(c, p):
        return sign * (c - p) < 0

    p_q1, p_med, p_q3 = benchstats.quartiles(parent)
    c_med = statistics.median(change)
    wins = sum(beats(c, p) for p, c in pairs)
    if (wins >= WIN_SHARE * len(pairs) and sign * (p_med - c_med) > p_q3 - p_q1) or \
            all(beats(c, p) for c in change for p in parent):
        return "better"
    if max(benchstats.spread(parent), benchstats.spread(change)) > bound:
        return "unresolved"
    if sign * (c_med - p_med) / abs(p_med) > bound:
        return "worse"
    return "same"


def compare(parent_set: dict, change_set: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in sorted(set(parent_set) & set(change_set)):
        p_runs, c_runs = parent_set[workload], change_set[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        p_fail, c_fail = fail_frac(p_runs), fail_frac(c_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name] for r in p_runs.values()]
            change = [r["metrics"][name] for r in c_runs.values()]
            pairs = [(p_runs[s]["metrics"][name], c_runs[s]["metrics"][name]) for s in seeds]
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "bound": metric["bound"], "pairs": len(pairs),
                "parent": benchstats.quartiles(parent), "change": benchstats.quartiles(change),
                "parent_spread": benchstats.spread(parent),
                "change_spread": benchstats.spread(change),
                "parent_fail": p_fail, "change_fail": c_fail,
                "verdict": verdict(parent, change, pairs, metric["bound"], metric["better"],
                                   p_fail, c_fail),
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(argv[0]), load(argv[1]), spec)
    print(f"{'workload':22s} {'metric':12s} {'parent median [Q1, Q3]':>32s} "
          f"{'change median [Q1, Q3]':>32s} {'spread p/c':>13s} {'bound':>5s} "
          f"{'pairs':>5s} {'fail p/c':>13s}  verdict")
    for r in rows:
        p1, pm, p3 = r["parent"]
        c1, cm, c3 = r["change"]
        print(f"{r['workload']:22s} {r['metric']:12s} "
              f"{pm:10.4g} [{p1:8.4g}, {p3:8.4g}] {cm:10.4g} [{c1:8.4g}, {c3:8.4g}] "
              f"{r['parent_spread']:6.3f}/{r['change_spread']:5.3f} {r['bound']:5.2f} "
              f"{r['pairs']:5d} {r['parent_fail']:6.3f}/{r['change_fail']:6.3f}  {r['verdict']}")
    bad = [r for r in rows
           if r["verdict"] in ("more failures", "worse", "unresolved", "too few pairs")]
    return 1 if bad or not rows else 0


if __name__ == "__main__":
    sys.exit(main())
