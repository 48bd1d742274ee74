"""latticeccr benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src). A run repeats whole passes of the workload for about S seconds. Each
pass starts a fresh interpreter (child.py) with BLAS pinned to
BLAS_THREADS threads, which imports latticeccr, parses the workload's
configs and calls ``latticeccr.cli.main`` once per invocation; the datasets
and manifests it writes are then checked (checks.py) outside the timed span.

With --trace 0 the last stdout line reports the end-to-end metrics, medians
over the run's passes. With --trace 1 every round is one untraced and one
traced pass, in alternating order; the last line reports the per-layer
metrics (medians over the traced passes) and the line before it the tracing
overhead. Every operation
(one CLI invocation) that exits non-zero or fails its check counts as failed.
Scratch files go to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

import numpy as np

from checks import CheckFailed, check_invocation
from tracer import layer_metrics
from workloads import EXPERIMENTS, WORKLOADS, invocations

BLAS_THREADS = 1
MIN_ROUNDS = 3
SETUP_SAMPLES = 5  # extra set-up-only interpreters per round, for a steadier setup_s median
LAST_START_S = 120.0  # no round starts later than this, so a run ends within 180 s
PASS_TIMEOUT_S = 150.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
def environment(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Runner:
    """Spawns the passes of one run and checks what they wrote."""

    def __init__(self, root: str, workload: str, seed: int, threads: int):
        self.root = root
        self.invocations = invocations(workload, seed)
        self.work = os.path.join(root, ".bench_work", workload)
        self.out = os.path.join(self.work, "out")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(os.path.join(self.work, "configs"))
        plan = {"src": os.path.join(root, "src"), "invocations": []}
        for inv in self.invocations:
            path = os.path.join(self.work, "configs", f"{inv.name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(inv.config, handle, indent=2, sort_keys=True)
            plan["invocations"].append(
                {"experiment": inv.experiment, "config": path, "argv": [inv.experiment, "--config", path, "--out", self.out]}
            )
        self.plan_path = os.path.join(self.work, "plan.json")
        with open(self.plan_path, "w", encoding="utf-8") as handle:
            json.dump(plan, handle, indent=2)
        self.env = dict(os.environ, PYTHONPATH=plan["src"], **{var: str(threads) for var in THREAD_VARS})
        self.attempted = 0
        self.failed = 0

    def _spawn(self, flag: str | None) -> tuple[dict, str]:
        result_path = os.path.join(self.work, "result.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        argv = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py"), self.plan_path, result_path]
        if flag:
            argv.append(flag)
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"a pass ran longer than {PASS_TIMEOUT_S} s")
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise RuntimeError(f"pass process failed (exit {proc.returncode}):\n{err}")
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        result["setup_s"] = result["ready"] - spawned
        return result, err

    def setup_sample(self) -> float:
        """Set-up time of one interpreter that stops once set up."""
        return self._spawn("--setup-only")[0]["setup_s"]

    def one_pass(self, trace: bool) -> dict:
        """Spawn one pass, check its outputs, return its measurements."""
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        result, err = self._spawn("--trace" if trace else None)
        print(f"{'traced' if trace else 'untraced'} pass: setup {result['setup_s']:.4f} s, pass {result['pass_s']:.4f} s, "
              f"cpu {result['cpu_s']:.4f} s, peak rss {result['peak_rss_kb'] / 1024:.1f} MB", file=sys.stderr)
        self.attempted += len(self.invocations)
        for inv, code in zip(self.invocations, result["codes"]):
            try:
                if code != 0:
                    raise CheckFailed(f"exit code {code}")
                check_invocation(inv, self.out)
            except (CheckFailed, OSError, KeyError, ValueError) as failure:
                self.failed += 1
                print(f"FAILED {inv.name}: {failure}", file=sys.stderr)
                if code != 0:
                    print(err, file=sys.stderr)
        return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "latticeccr", "__init__.py")):
        print("no latticeccr source under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    runner = Runner(root, args.workload, args.seed, threads)
    env = environment(threads)

    started = time.monotonic()
    plain, traced, rounds, setups = [], [], [], []
    try:
        while True:
            began = time.monotonic()
            if args.trace:
                # Alternate which pass goes first, so that an order effect
                # does not enter the paired overhead.
                for trace in (False, True) if len(rounds) % 2 == 0 else (True, False):
                    (traced if trace else plain).append(runner.one_pass(trace=trace))
            else:
                plain.append(runner.one_pass(trace=False))
                setups.append(plain[-1]["setup_s"])
                setups.extend(runner.setup_sample() for _ in range(SETUP_SAMPLES))
            rounds.append(time.monotonic() - began)
            next_end = time.monotonic() + median(rounds)
            if len(rounds) >= MIN_ROUNDS and next_end > started + args.seconds:
                break
            if next_end > started + LAST_START_S:
                break
    except RuntimeError as err:
        print(f"benchmark aborted: {err}", file=sys.stderr)
        return 1

    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{runner.attempted} operations attempted, {runner.failed} failed")
    pass_s = median(p["pass_s"] for p in plain)
    if args.trace:
        per_pass = [layer_metrics(p["spans"], EXPERIMENTS) for p in traced]
        metrics = {name: median(p[name] for p in per_pass) for name in per_pass[0]}
        traced_s = median(p["pass_s"] for p in traced)
        # Each round runs its untraced and traced pass back to back, so the
        # paired difference cancels most of the host's drift.
        overhead_s = median(t["pass_s"] - p["pass_s"] for p, t in zip(plain, traced))
        with open(os.path.join(runner.work, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "counts"], "spans": traced[-1]["spans"]}, handle)
        print(f"trace overhead: {json.dumps({'untraced_pass_s': pass_s, 'traced_pass_s': traced_s, 'overhead_s': overhead_s})}")
    else:
        metrics = {
            "setup_s": median(setups),
            "pass_s": pass_s,
            "cpu_s": median(p["cpu_s"] for p in plain),
            "peak_rss_mb": median(p["peak_rss_kb"] / 1024 for p in plain),
        }
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    report = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
