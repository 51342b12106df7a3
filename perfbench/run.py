"""The backwave benchmark: run one workload's pipeline as a user would.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pipeline runs through the CLI entry point in a fresh process with
OpenBLAS and OpenMP pinned to one thread, one pipeline at a time (closed
loop).  Pipelines are repeated while another one still fits in S seconds;
the first always runs.  Every bundle is checked against the budgets in
workloads.py, every pipeline of a run must give bit-identical report
items, and those items are written to 17 significant digits under
.perfbench/items/ for compare.py.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics (medians over the run's pipelines); with --trace 1
each round runs the pipeline untraced and then traced, and the object holds
the per-layer metrics of the traced runs and the tracing overhead.  The
metrics printed, and their units, are those BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 3
# a run ends within --seconds plus this: the warm-up import, the set-up
# probes and a last round that started just inside --seconds
ALLOWANCE_S = 140.0


def listed_metrics() -> dict:
    """{"end_to_end" | "per_layer": {metric name: unit}} from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in bench[kind]}
            for kind in ("end_to_end", "per_layer")}


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _dirs, files in os.walk(path) for f in files)


class Runner:
    """Spawns worker processes for one workload and collects their records."""

    def __init__(self, workload: str, cfg_path: str, work: str, deadline: float):
        self.workload = workload
        self.cfg_path = cfg_path
        self.work = work
        self.deadline = deadline
        self.env = child_env()

    def spawn(self, mode: str):
        """One worker process; (record or None, bundle dir, error text)."""
        bundle = os.path.join(self.work, f"bundle-{mode}")
        result = os.path.join(self.work, f"result-{mode}.json")
        shutil.rmtree(bundle, ignore_errors=True)
        if os.path.exists(result):
            os.remove(result)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), result, mode, "--",
               workloads.COMMANDS[self.workload], "--config", self.cfg_path,
               "--out", bundle, "--quiet"]
        timeout = max(self.deadline - now(), 1.0)
        t_spawn = now()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, bundle, f"{mode}: timed out after {timeout:.0f} s"
        if proc.returncode != 0 or not os.path.exists(result):
            return None, bundle, f"{mode}: exit {proc.returncode}: {proc.stderr[-2000:]}"
        with open(result, encoding="utf-8") as fh:
            rec = json.load(fh)
        rec["setup_s"] = rec["t_call"] - t_spawn
        if mode == "probe":
            return rec, bundle, ""
        if rec["exit"] != 0:
            return None, bundle, f"{mode}: backwave exited {rec['exit']}: {proc.stderr[-2000:]}"
        rec["run_s"] = rec["t_end"] - rec["t_call"]
        rec["cpu_s"] = rec["cpu_end"] - rec["cpu_call"]
        rec["peak_rss_mb"] = rec["maxrss_kb"] / 1024.0
        rec["bytes"] = dir_bytes(bundle)
        return rec, bundle, ""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = now() + args.seconds + ALLOWANCE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "backwave", "cli.py")):
        print(f"error: no backwave sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    units = listed_metrics()["per_layer" if args.trace else "end_to_end"]
    # a terminated run unwinds through subprocess.run, which kills its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg_text = workloads.config_text(args.workload, args.seed)
    cfg_path = os.path.join(work, "input.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(cfg_text)
    runner = Runner(args.workload, cfg_path, work, deadline)

    # untimed import: later set-ups see warm page and bytecode caches, as a
    # user's repeated CLI runs do
    subprocess.run([sys.executable, "-c", "import backwave.cli"], cwd=ROOT,
                   env=runner.env, check=True, timeout=120)
    setups, problems = [], []
    attempted = failed = 0
    if not args.trace:
        for _ in range(SETUP_PROBES):
            rec, _bundle, err = runner.spawn("probe")
            if rec is None:
                print(f"error: set-up probe failed: {err}", file=sys.stderr)
                return 1
            setups.append(rec["setup_s"])

    untraced, traced, reference = [], [], None
    t_begin = now()
    while True:
        t_round = now()
        for mode in (("run", "trace") if args.trace else ("run",)):
            attempted += 1
            rec, bundle, err = runner.spawn(mode)
            if rec is None:
                failed += 1
                print(f"failed: {err}", file=sys.stderr)
                continue
            problems += [f"{mode}: {msg}" for msg in
                         workloads.check_bundle(args.workload, cfg_text, bundle)]
            items = workloads.capture_items(bundle)
            if reference is None:
                reference = items
            elif items != reference:
                changed = sorted(k for k in set(items) | set(reference)
                                 if items.get(k) != reference.get(k))
                problems.append(f"{mode}: report items differ between pipelines: {changed}")
            (traced if mode == "trace" else untraced).append(rec)
            print(f"{mode}: run_s={rec['run_s']:.4f} cpu_s={rec['cpu_s']:.4f} "
                  f"setup_s={rec['setup_s']:.4f} peak_rss_mb={rec['peak_rss_mb']:.1f}")
        elapsed = now() - t_begin
        if failed or elapsed + (now() - t_round) > args.seconds:
            break

    if reference is not None:
        items_dir = os.path.join(WORK, "items")
        os.makedirs(items_dir, exist_ok=True)
        with open(os.path.join(items_dir, f"{args.workload}-seed{args.seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "items": reference},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    for msg in problems:
        print(f"incorrect: {msg}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("error: no pipeline completed", file=sys.stderr)
        return 1

    if args.trace:
        values = {name: statistics.median([r["layers"][name] for r in traced])
                  for name in traced[0]["layers"]}
        values["outputs.bytes"] = statistics.median([r["bytes"] for r in traced])
        values["trace.run_s"] = statistics.median([r["run_s"] for r in traced])
        values["trace.untraced_run_s"] = statistics.median([r["run_s"] for r in untraced])
        values["trace.overhead"] = values["trace.run_s"] / values["trace.untraced_run_s"] - 1.0
    else:
        values = {
            "run_s": statistics.median([r["run_s"] for r in untraced]),
            "cpu_s": statistics.median([r["cpu_s"] for r in untraced]),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in untraced]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in untraced]),
        }
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: BENCHMARK.json lists metrics this run does not measure: {missing}",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
