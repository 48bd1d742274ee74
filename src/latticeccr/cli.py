"""Command line entry point.

    latticeccr <experiment> [--config cfg.json] [--set key=value ...] [--out dir]

The experiment comes from the command line only; a config file or --set
that names another one is a config error. Exit codes: 0 success, 2 config
error (running out of memory included), 3 numerical-tolerance failure, 4
leakage failure. Every run, failed ones included, leaves
<dataset stem>_manifest.json beside the configured output.path: a failed
run's manifest is the one its run made when it started, with the resolved
config, started_utc, and the warnings and wall time up to the failure, plus
the exit code and reason (a config that did not parse is written as
<experiment>_manifest.json with config null, unless that file holds the
manifest of a run whose config parsed, which stays in place). Warnings are
printed to stderr on failed runs as well.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import __version__
from .errors import ConfigError, LeakageError, ToleranceError
from .experiments import EXPERIMENTS, RunManifest, _read_config, parse_config, run_experiment

_FAILURES = {2: "config error", 3: "tolerance failure", 4: "leakage failure"}


def _apply_override(raw: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    dotted, text = assignment.split("=", 1)
    keys = dotted.split(".")
    try:
        value = json.loads(text)
    except ValueError:  # not JSON, or an integer literal past Python's digit limit
        value = text
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {dotted!r} crosses a non-object key")
    node[keys[-1]] = value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="latticeccr",
        description="Lattice quantum mechanics experiments: spectra, ladders, "
        "Bloch oscillations, and canonical-commutator diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"latticeccr {__version__}")
    parser.add_argument("experiment", choices=EXPERIMENTS, help="the experiment to run")
    parser.add_argument("--config", help="JSON config file (defaults applied on top)")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key, e.g. --set potential.kind=linear --set potential.F=0.5",
    )
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    args = parser.parse_args(argv)

    try:
        os.makedirs(args.out, exist_ok=True)
        raw = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = _read_config(handle.read())
        raw.setdefault("experiment", args.experiment)
        for assignment in args.overrides:
            _apply_override(raw, assignment)
        if raw["experiment"] != args.experiment:
            raise ConfigError(
                f"config key 'experiment' is {raw['experiment']!r}; "
                f"the command line sets it to {args.experiment!r}"
            )
        _, rows, manifest = run_experiment(parse_config(json.dumps(raw)), out_dir=args.out)
    except (ValueError, OSError, MemoryError, ToleranceError, LeakageError) as err:
        # ConfigError and json.JSONDecodeError are ValueErrors: exit code 2, as for a
        # config that asks for more memory than there is
        code = getattr(err, "exit_code", 2)
        reason = str(err)
        if isinstance(err, MemoryError):  # often raised with no message at all
            reason = f"out of memory: {reason}" if reason else "out of memory"
        print(f"{_FAILURES[code]}: {reason}", file=sys.stderr)
        # the failed run's own manifest; one with config null if the config did not parse
        manifest = getattr(err, "manifest", None) or RunManifest(args.experiment, None)
        manifest.error = {"exit_code": code, "reason": reason}
        with contextlib.suppress(OSError):  # best effort once the run already failed
            manifest.write(args.out)
    else:
        code = 0
        print(f"{args.experiment}: {len(rows)} rows -> {os.path.join(args.out, manifest.dataset)}")
    for warning in manifest.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
