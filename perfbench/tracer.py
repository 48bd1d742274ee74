"""Span tracing of latticeccr from outside the package, and the per-layer
metrics derived from the spans.

``Tracer.install`` replaces each public function of the traced modules with
a wrapper at every place the package binds it (``spectral.eigensolve`` is
also bound as ``dynamics.eigensolve``, ``experiments.eigensolve`` and
``latticeccr.eigensolve``), plus ``OperatorMatrix.__post_init__`` (the
Hermiticity check every operator build pays) and ``numpy.linalg.eigh``
(LAPACK). Each call records a span: name, start, end, the index of the
enclosing span, and a few counts. Spans stay in memory until the pass ends.
``series`` is on no CLI path and is not traced.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("lattice", "spectral", "dynamics", "ccr", "experiments", "cli")
ORACLES = (
    "dynamics.exact_position_linear",
    "dynamics.ccr_position_linear",
    "dynamics.ccr_position_harmonic",
    "dynamics.ccr_position_periodic_kinetic",
)


def _args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_run_experiment(fn, args, kwargs, result):
    return {"experiment": _args(fn, args, kwargs)["cfg"].experiment}


def _count_emit_dataset(fn, args, kwargs, result):
    return {"rows": len(_args(fn, args, kwargs)["rows"]), "bytes": os.path.getsize(result)}


def _count_eigensolve(fn, args, kwargs, result):
    return {"dim": _args(fn, args, kwargs)["ham"].dimension}


def _count_harmonic_sweep(fn, args, kwargs, result):
    a = _args(fn, args, kwargs)
    n_sites = 2 * a["half_width"] + 1
    return {"used": len(a["a_values"]) * min(a["states_per_point"], n_sites)}


def _count_run_timeseries(fn, args, kwargs, result):
    return {"steps": len(_args(fn, args, kwargs)["t_grid"])}


_COUNTERS = {
    "experiments.run_experiment": _count_run_experiment,
    "experiments.emit_dataset": _count_emit_dataset,
    "spectral.eigensolve": _count_eigensolve,
    "spectral.harmonic_sweep": _count_harmonic_sweep,
    "dynamics.run_timeseries": _count_run_timeseries,
}


class Tracer:
    """Records one span per traced call; spans are [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions of the already imported package."""
        import numpy
        from latticeccr import lattice

        package = [mod for key, mod in sys.modules.items() if key == "latticeccr" or key.startswith("latticeccr.")]
        originals = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"latticeccr.{short}"]
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                    originals[id(value)] = (value, f"{short}.{attr}")
        wrappers = {key: self.wrap(name, fn) for key, (fn, name) in originals.items()}
        for module in package:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is originals[id(value)][0]:
                    setattr(module, attr, wrappers[id(value)])
        lattice.OperatorMatrix.__post_init__ = self.wrap(
            "lattice.OperatorMatrix.__post_init__", lattice.OperatorMatrix.__post_init__
        )
        numpy.linalg.eigh = self.wrap("numpy.linalg.eigh", numpy.linalg.eigh)


def _is_lattice_build(name: str) -> bool:
    return name.startswith("lattice.build_") or name == "lattice.OperatorMatrix.__post_init__"


def layer_metrics(spans: list, experiments) -> dict:
    """Per-layer totals of one traced pass (times in s unless the name says otherwise)."""
    names = [s[0] for s in spans]
    duration = [s[2] - s[1] for s in spans]
    child_time = defaultdict(float)
    for s, d in zip(spans, duration):
        if s[3] >= 0:
            child_time[s[3]] += d

    def under(index, pred) -> bool:
        parent = spans[index][3]
        while parent >= 0:
            if pred(names[parent]):
                return True
            parent = spans[parent][3]
        return False

    def total(name) -> float:
        return sum(d for n, d in zip(names, duration) if n == name)

    def self_time(name) -> float:
        return sum(d - child_time[i] for i, (n, d) in enumerate(zip(names, duration)) if n == name)

    def count(name, key) -> int:
        return sum(s[4][key] for s in spans if s[0] == name)

    m = {"experiments.parse_config_s": total("experiments.parse_config")}
    per_experiment = defaultdict(float)
    for s, d in zip(spans, duration):
        if s[0] == "experiments.run_experiment":
            per_experiment[s[4]["experiment"]] += d
    for exp in experiments:
        m[f"experiments.{exp}_s"] = per_experiment[exp]
    m["experiments.runner_self_s"] = self_time("experiments.run_experiment")
    m["experiments.emit_dataset_s"] = total("experiments.emit_dataset")
    m["experiments.dataset_rows"] = count("experiments.emit_dataset", "rows")
    m["experiments.dataset_bytes"] = count("experiments.emit_dataset", "bytes")

    m["lattice.build_s"] = sum(
        d for i, (n, d) in enumerate(zip(names, duration)) if _is_lattice_build(n) and not under(i, _is_lattice_build)
    )
    m["lattice.build_calls"] = sum(n.startswith("lattice.build_") for n in names)
    m["lattice.build_quasi_momentum_calls"] = names.count("lattice.build_quasi_momentum")

    eigensolve_s = total("spectral.eigensolve")
    lapack_s = sum(
        d for s, d in zip(spans, duration) if s[0] == "numpy.linalg.eigh" and s[3] >= 0 and names[s[3]] == "spectral.eigensolve"
    )
    m["spectral.eigensolve_s"] = eigensolve_s
    m["spectral.eigensolve_calls"] = names.count("spectral.eigensolve")
    m["spectral.eigensolve.lapack_s"] = lapack_s
    m["spectral.eigensolve.checks_s"] = eigensolve_s - lapack_s
    used = count("spectral.harmonic_sweep", "used")
    computed = sum(
        s[4]["dim"] for i, s in enumerate(spans) if s[0] == "spectral.eigensolve" and under(i, lambda n: n == "spectral.harmonic_sweep")
    )
    m["spectral.eigenvalues_used_ratio"] = used / computed if computed else 0.0
    for name in ("harmonic_sweep", "diagnose_states", "wannier_stark_analysis"):
        m[f"spectral.{name}_s"] = total(f"spectral.{name}")

    steps = count("dynamics.run_timeseries", "steps")
    loop_s = self_time("dynamics.run_timeseries")
    m["dynamics.run_timeseries_self_s"] = loop_s
    m["dynamics.state_steps"] = steps
    m["dynamics.step_us"] = 1e6 * loop_s / steps if steps else 0.0
    m["dynamics.oracles_s"] = sum(
        d for i, (n, d) in enumerate(zip(names, duration)) if n in ORACLES and not under(i, lambda p: p in ORACLES)
    )

    m["ccr.ccr_defect_self_s"] = self_time("ccr.ccr_defect")
    m["ccr.commutator_s"] = total("lattice.commutator")
    return m

