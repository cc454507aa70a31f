"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads certify highdeg --seeds 1 2 3 4 5

For every workload and metric it prints the median, the quartiles and the
interquartile range as a share of the median (statistics.quantiles, n=4),
and the share of failed operations of each run.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=["certify", "highdeg", "levelsets", "search"])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    seconds = args.seconds or json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w,
                                  "--seed", str(seed), "--seconds", str(seconds)],
                                 capture_output=True, text=True, check=True, timeout=180)
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items())
            print(f"{out.stdout.strip().splitlines()[-2]}\n    {values}", flush=True)
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        print(f"{w}: correct {all(r['correct'] for r in runs)}, failed/attempted {shares}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            iqr = (q3 - q1) / med if med else float("nan")
            print(f"  {name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  iqr/median {iqr:.4f}")


if __name__ == "__main__":
    main()
