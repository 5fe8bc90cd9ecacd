#!/usr/bin/env python3
"""Run each workload N times with different seeds and report steadiness.

    python3 perfbench/steady.py --runs 10 [--workloads grid_cold_20k,...] [--trace 1]

Run from the repository root. For every metric it prints the median,
the first and third quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json,
plus the share of failed operations per workload. With --trace 1 it
summarises the per-layer metrics instead (they have no bound). Every
run's full output is kept in .bench_build/steady/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

LOGS = os.path.join(".bench_build", "steady")


def run_once(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True)
    # Each run's full output (class lines, tails, set-up times) is kept.
    os.makedirs(LOGS, exist_ok=True)
    with open(os.path.join(LOGS, f"{workload}-seed{seed}-trace{trace}.log"), "w") as f:
        f.write(out.stdout + out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    worst = 0.0
    for wl in args.workloads.split(","):
        results = [run_once(wl, args.first_seed + i, args.seconds, args.trace) for i in range(args.runs)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"{wl}: {args.runs} runs, correct={correct}, failed shares {shares}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            line = f"  {m['name']:30s} median {med:12.4f} {m['unit']:5s} q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.3f}"
            if "bound" in m:
                line += f"  bound {m['bound']:.2f}  spread/bound {spread / m['bound']:.2f}"
                if m["name"] != "setup_s":
                    worst = max(worst, spread / m["bound"])
            print(line, flush=True)
    if not args.trace:
        print(f"largest spread/bound (setup_s excluded): {worst:.2f} (steady below 0.33)")


if __name__ == "__main__":
    main()
