"""Steadiness check: run each workload once per seed and report the spread.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]

Run from the root of a checkout. For every workload it makes one untraced
run per seed (run.py --trace 0, run_seconds from BENCHMARK.json) and prints,
for each end-to-end metric, the median, the quartiles (statistics.quantiles,
n=4), the interquartile spread as a share of the median and whether that
spread fits the metric's bound. It then makes one traced run and prints the
tracing overhead: traced pass_s minus untraced pass_s, the median over that
run's rounds, each of which makes one pass of each kind back to back. It
exits with 1 if any spread, setup_s included, exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1]), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        failed_shares = set()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            report, _ = run(workload, seed, bench["run_seconds"], 0)
            failed_shares.add(report["failed"] / report["attempted"])
            for name in bounds:
                values[name].append(report["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        print(f"== {workload}: {args.seeds} runs, share of failed operations {sorted(failed_shares)}")
        for name, vals in values.items():
            q1, mid, q3 = quantiles(vals, n=4)
            spread = (q3 - q1) / median(vals)
            fits = spread <= bounds[name]
            tight = spread <= bounds[name] / 3
            steady &= fits
            print(f"   {name:12s} median {median(vals):.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {spread:.2%}  bound {bounds[name]:.0%}  {'fits' if fits else 'EXCEEDS'}"
                  f"{'' if tight else ' (above a third of the bound)'}")
        _, lines = run(workload, args.first_seed, bench["run_seconds"], 1)
        overhead = next(json.loads(line.split(":", 1)[1]) for line in lines if line.startswith("trace overhead:"))
        print(f"   tracing overhead: {overhead['overhead_s']:+.4g} s, the median of traced minus untraced pass_s "
              f"over the rounds of one run (medians: traced {overhead['traced_pass_s']:.4g} s, "
              f"untraced {overhead['untraced_pass_s']:.4g} s)", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
