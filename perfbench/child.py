"""One pass of a workload, in a fresh interpreter started by run.py.

    python3 perfbench/child.py PLAN RESULT [--trace | --setup-only]

PLAN is a JSON file naming the package source directory and the pass's
invocations (each an argv for ``latticeccr.cli.main`` and its config file).
Set-up is the import of latticeccr plus parsing every config with
``latticeccr.parse_config``; it ends at ``ready`` (CLOCK_MONOTONIC, which
run.py also reads when it spawns this process). The pass then calls
``cli.main`` once per invocation, in this one process. RESULT receives the
timings, the CPU time and peak RSS of this process, each exit code and, with
--trace, the recorded spans. With --setup-only it stops after set-up.
"""

import json
import os
import resource
import sys
import time
import traceback


def main(argv) -> int:
    plan_path, result_path = argv[0], argv[1]
    trace = "--trace" in argv[2:]
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    src = plan["src"]
    sys.path.insert(0, src)
    import latticeccr
    from latticeccr import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(latticeccr.__file__))) != src:
        print(f"imported latticeccr from {latticeccr.__file__}, not from {src}", file=sys.stderr)
        return 1
    for inv in plan["invocations"]:
        with open(inv["config"], encoding="utf-8") as handle:
            raw = json.load(handle)
        raw["experiment"] = inv["experiment"]
        latticeccr.parse_config(json.dumps(raw))
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if "--setup-only" in argv[2:]:
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump({"ready": ready}, handle)
        return 0

    tracer = None
    if trace:
        from tracer import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()

    codes = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for inv in plan["invocations"]:
        try:
            code = cli.main(inv["argv"])
        except Exception:  # an uncaught error is a failed operation, not the end of the pass
            traceback.print_exc()
            code = -1
        codes.append(code)
    pass_s = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "ready": ready,
        "pass_s": pass_s,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_kb": usage1.ru_maxrss,
        "codes": codes,
        "spans": tracer.spans if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
