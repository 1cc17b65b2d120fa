#!/usr/bin/env python3
"""Run the benchmark N times per workload and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --runs 10                  # every workload
    python3 perfbench/spread.py --runs 5 --workloads serve --first-seed 11
    python3 perfbench/spread.py --runs 3 --trace 1         # per-layer metrics

Each run uses its own seed (first-seed, first-seed+1, ...). For every
metric the report prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, (q3 - q1) / median, and
every run's value, in seed order. An
end-to-end metric whose spread exceeds its bound in BENCHMARK.json is
flagged, and the script then exits with status 1.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    env = next((l[4:] for l in lines if l.startswith("env ")), "{}")
    return json.loads(lines[-1]), env


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    opts = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    flagged = []
    for workload in opts.workloads.split(","):
        values = {}
        env = None
        for i in range(opts.runs):
            res, env = run_once(bench["command"], workload, opts.first_seed + i, opts.seconds, opts.trace)
            if not res["correct"]:
                sys.exit(f"{workload} seed {opts.first_seed + i}: incorrect output")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {opts.runs} runs, seeds {opts.first_seed}..{opts.first_seed + opts.runs - 1}")
        print(f"  env {env}")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in sorted(values):
            vs = values[name]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], vs[0], vs[0])
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  EXCEEDS BOUND"
                flagged.append(f"{workload}/{name}")
            print(f"  {name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in vs))
    if flagged:
        print("spread above bound: " + ", ".join(flagged))
        sys.exit(1)


if __name__ == "__main__":
    main()
