"""Run each workload on several seeds and report every metric's median and spread.

    python3 perfbench/spread.py                      # 10 seeds per workload
    python3 perfbench/spread.py --runs 5 --workloads numeric

Runs are made one after another, untraced, with the run length from
BENCHMARK.json.  The spread of a metric is the distance between the first
and third quartiles of its values (``statistics.quantiles(values, n=4)``)
as a share of their median; it is set against the metric's bound, and
the exit code is 1 if any spread is above its bound.  Every
result line is kept in ``perfbench/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    ok = True
    for w in args.workloads.split(","):
        results = []
        log = out_dir / f"spread-{w}.jsonl"
        for k in range(args.runs):
            seed = args.first_seed + k
            start = time.monotonic()
            proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                                   "--workload", w, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.monotonic() - start
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                print(f"{w} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr[-1500:]}")
                return 1
            passes = [line for line in proc.stdout.splitlines() if " passes, pass_s " in line]
            with open(log, "a") as fh:
                fh.write(json.dumps({"seed": seed, "wall_s": wall, "passes": passes[-1:], **result})
                         + "\n")
            results.append(result)
            values = " ".join(f"{m}={v['value']:.4f}" for m, v in result["metrics"].items())
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values} "
                  f"(run took {wall:.0f} s)", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{w}: failed share {sorted(shares)}; all correct: "
              f"{all(r['correct'] for r in results)}")
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            ok &= spread <= bound
            print(f"  {metric:12s} median {med:10.4f}  spread {spread:6.3f}  "
                  f"(bound {bound}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
