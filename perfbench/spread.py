"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads homogeneous,tlimit --seeds 1-10

Runs run.py once per workload and seed, one after another, with --trace 0
and BENCHMARK.json's run_seconds, and prints for every metric its median
and the distance between its first and third quartiles
(statistics.quantiles, n=4) as a share of the median.  The failed share of
operations is printed per workload as well.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = str(json.load(fh)["run_seconds"])
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            print(f"{wl} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _q2, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else float("nan")
            print(f"{wl} {name}: median {med:.6g}  IQR/median {share:.4f}  "
                  f"min {min(vals):.6g}  max {max(vals):.6g}")
        print(f"{wl} failed share: {sorted({r['failed'] / r['attempted'] for r in runs})}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
