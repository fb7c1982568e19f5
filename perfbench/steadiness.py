#!/usr/bin/env python3
"""Run the benchmark repeatedly and report each metric's spread across runs.

    python3 perfbench/steadiness.py [--workload W ...] [--seeds 1 2 3 ...] [--trace 0|1]

For every workload, runs perfbench/run.py once per seed (one after another,
never in parallel) and prints, per metric, the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread = (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json. With no arguments it runs
every workload on seeds 1 to 5. Each run's JSON result is also appended to
.bench_build/steadiness.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    with open(ROOT / ".bench_build" / "steadiness.jsonl", "a") as log:
        log.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                              "wall_s": wall, "result": result}) + "\n")
    return result, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    for w in workloads:
        values, walls, failed, attempted = {}, [], 0, 0
        for seed in args.seeds:
            result, wall = run_once(w, seed, args.trace)
            walls.append(wall)
            failed += result["failed"] + (0 if result["correct"] else 1)
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed={seed} wall={wall:.0f}s correct={result['correct']}", flush=True)
        print(f"\n{w}: {len(args.seeds)} runs, mean wall {statistics.mean(walls):.1f}s, "
              f"failed {failed} of {attempted}")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:40s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f} "
                  f"{'' if bound is None else bound:>6}")
        print(flush=True)


if __name__ == "__main__":
    main()
