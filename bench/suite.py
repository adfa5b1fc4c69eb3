"""Run the benchmark over several seeds into a result set for compare.py.

Usage:

    python3 bench/suite.py --out SET.jsonl [--seeds 1-10]
                           [--other-root DIR --other-out OTHER.jsonl]

Every workload of BENCHMARK.json runs untraced for its ``run_seconds``, once
per seed, each run a fresh ``run.py`` process. With --other-root, every run is
made on both checkouts (for example the parent commit and a change), in an
order that alternates from one seed to the next, so the two result sets
pair up seed by seed. Runs that fail their checks are reported, and
compare.py skips them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--other-root")
    parser.add_argument("--other-out")
    args = parser.parse_args(argv)
    if bool(args.other_root) != bool(args.other_out):
        parser.error("--other-root and --other-out go together")
    names = [w["name"] for w in spec["workloads"]]
    sides = [(ROOT, Path(args.out).resolve())]
    if args.other_root:
        sides.append((Path(args.other_root).resolve(), Path(args.other_out).resolve()))
    failures = 0
    for k, seed in enumerate(args.seeds):
        for name in names:
            for root, out in (sides if k % 2 == 0 else sides[::-1]):
                cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0", "--out", str(out)]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                last = proc.stdout.strip().splitlines()[-1:] or [""]
                print(f"{root.name} {name} seed={seed} exit={proc.returncode} {last[0][:160]}",
                      flush=True)
                if proc.returncode != 0:
                    failures += 1
                    print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
