"""Named experiments, JSON configs, and deterministic CSV/JSON datasets.

Each experiment resolves its defaults into an explicit config (echoed in the
run manifest), produces one dataset with a fixed column schema, and writes it
with fixed float formatting so identical configs give byte-identical files.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError
from .ccr import ccr_defect
from .dynamics import GaussianPacket, make_gaussian, run_timeseries
from .lattice import Hopping, LatticeSpec, Potential, build_hamiltonian
from .spectral import (
    diagnose_states,
    eigensolve,
    harmonic_sweep,
    threshold_estimate,
    wannier_stark_analysis,
)


# ---------------------------------------------------------------------------
# config validation

def _check(value, kind, key):
    """Validate one config value against its kind and return it normalized.

    kind is a tuple of allowed values; "int", "float" or "str", where a
    trailing "+" requires a positive value; or a kind in brackets for a
    non-empty list of such values, followed by "*" if the list may be
    empty. Floats must be finite.
    """
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"config key {key!r} must be one of {kind}, got {value!r}")
        return value
    if kind.startswith("["):
        if not isinstance(value, list) or not (value or kind.endswith("*")):
            need = "a list" if kind.endswith("*") else "a non-empty list"
            raise ConfigError(f"config key {key!r} must be {need}, got {value!r}")
        return [_check(v, kind[1 : kind.index("]")], key) for v in value]
    base = kind.rstrip("+")
    if base == "str":
        if not isinstance(value, str):
            raise ConfigError(f"config key {key!r} must be a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, int if base == "int" else (int, float)):
        noun = "an integer" if base == "int" else "a number"
        raise ConfigError(f"config key {key!r} must be {noun}, got {value!r}")
    if base == "float":
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond the float range
            value = np.inf
        if not np.isfinite(value):
            raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    if kind.endswith("+") and not value > 0:
        raise ConfigError(f"config key {key!r} must be positive, got {value!r}")
    return value


# Each leaf is (default, kind); a None default marks an optional key. Every
# experiment lists only the keys its runner reads.
_OUTPUT = {"path": (None, "str"), "format": ("csv", ("csv", "json"))}
_SOLVE = {"eigensolve": (1e-10, "float+")}
_LEAK = {**_SOLVE, "leak_warn": (1e-10, "float+"), "leak_fail": (1e-6, "float+")}
_HOPPING = {
    "kind": ("quadratic", ("quadratic", "cosine", "custom")),
    "t0": (0.0, "float"),
    "t_n": ([], "[float]*"),
}
_POTENTIAL = {
    "kind": ("harmonic", ("constant", "linear", "harmonic", "custom")),
    "V0": (0.0, "float"),
    "F": (0.4, "float"),
    "c": (0.01, "float"),
    "values": ([], "[float]*"),
}
_TIME = {"t_max": (None, "float+"), "dt": (None, "float+")}
_GRID = {"x_min": (0.1, "float+"), "x_max": (3.0, "float+"), "points": (25, "int+")}


def _packet(n0, b):
    return {"n0": (n0, "int"), "b": (b, "float+"), "k0": (0.0, "float")}


def _schema(M, **keys):
    return {"lattice": {"M": (M, "int+"), "a": (1.0, "float+")}, **keys, "output": _OUTPUT}


_SWEEP = {"c": (0.01, "float+"), "grid": _GRID, "states_per_point": (20, "int+")}
_SCHEMAS = {
    "spectrum": _schema(100, hopping=_HOPPING, potential=_POTENTIAL, tolerances=_SOLVE),
    "sweep": _schema(100, **_SWEEP, hopping=_HOPPING, tolerances=_SOLVE),
    "dynamics": _schema(
        128,
        hopping=_HOPPING,
        potential=_POTENTIAL,
        packet=_packet(20, 0.2),
        time=_TIME,
        tolerances=_LEAK,
    ),
    "ccr-check": _schema(100, packet=_packet(0, 50.0), margin=(None, "int+")),
    "fig1": _schema(100, **_SWEEP, nn_pair=([1, 2], "[int]"), tolerances=_SOLVE),
    "fig2": _schema(
        100, c_values=([1.0, 0.1, 0.01], "[float+]"), n_cut=(80, "int+"), tolerances=_SOLVE
    ),
    "fig3": _schema(
        100,
        F=(0.4, "float+"),
        c=(0.01, "float+"),
        target_site=(-41, "int"),
        tolerances=_SOLVE,
    ),
    "fig4": _schema(
        288,
        F=(0.4, "float+"),
        b=([0.2, 0.02], "[float+]"),
        n0=(0, "int"),
        oracle_b=(0.02, "float+"),
        time=_TIME,
        tolerances=_LEAK,
    ),
    "fig5": _schema(
        192,
        c=(0.01, "float+"),
        b=(0.2, "float+"),
        n0=([20, 30, 40], "[int]"),
        nn_n0=(20, "int"),
        time=_TIME,
        tolerances=_LEAK,
    ),
}
EXPERIMENTS = tuple(_SCHEMAS)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment name plus its fully resolved parameter tree."""

    experiment: str
    params: dict

    def __getitem__(self, key):
        return self.params[key]


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@dataclass
class RunManifest:
    """Provenance sidecar of every run, failed runs included.

    config is the resolved config, or None if the run failed before it
    parsed; error holds the exit code and reason of a failed run.
    """

    experiment: str
    config: dict | None
    version: str = __version__
    timestamp: dict = field(default_factory=lambda: {"started_utc": _utc_now()})
    warnings: list = field(default_factory=list)
    derived: dict = field(default_factory=dict)
    dataset: str | None = None
    error: dict | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def write(self, out_dir: str) -> None:
        """Write atomically to out_dir as <dataset stem>_manifest.json, the
        dataset being the configured output.path (<experiment>.csv while the
        config has not parsed)."""
        dataset = self.config["output"]["path"] if self.config else f"{self.experiment}.csv"
        path = os.path.splitext(os.path.join(out_dir, dataset))[0] + "_manifest.json"
        _write_atomic(path, self.to_json())


def _validate_tree(raw: dict, schema: dict, prefix: str = "") -> dict:
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown config key {prefix + key!r}")
    out = {}
    for key, entry in schema.items():
        if isinstance(entry, dict):
            sub = raw.get(key, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"config key {prefix + key!r} must be an object")
            out[key] = _validate_tree(sub, entry, prefix=f"{prefix}{key}.")
        else:
            default, kind = entry
            value = raw.get(key, default)
            given = key in raw and not (value is None and default is None)
            out[key] = _check(value, kind, prefix + key) if given else value
    return out


def _time_defaults(time: dict, a: float, kind: str, force: float, curvature: float) -> None:
    """Fill unset time keys: two periods of the motion, in about 126 (Bloch)
    or 63 (harmonic) steps per period; 10 time units in steps of 0.1 when
    the potential sets no period."""
    if kind == "linear" and force != 0:
        dt, period = 0.05 / (a * abs(force)), 2 * np.pi / (a * abs(force))
    elif kind == "harmonic" and curvature > 0:
        dt, period = 0.1 / np.sqrt(curvature), 2 * np.pi / np.sqrt(curvature)
    else:
        dt, period = 0.1, 5.0
    time["dt"] = time["dt"] or dt
    time["t_max"] = time["t_max"] or 2 * period


def _resolve(experiment: str, params: dict) -> None:
    """Cross-key checks, then the defaults that depend on other keys."""
    pot = params.get("potential")
    if pot and pot["kind"] == "harmonic" and not pot["c"] > 0:
        raise ConfigError("config key 'potential.c' must be positive")
    grid = params.get("grid")
    if grid and grid["x_max"] <= grid["x_min"]:
        raise ConfigError("config key 'grid.x_max' must exceed 'grid.x_min'")
    if experiment == "fig1" and min(params["nn_pair"]) < 0:
        raise ConfigError(f"config key 'nn_pair' must hold indices >= 0, got {params['nn_pair']}")
    if experiment == "fig4" and params["oracle_b"] not in params["b"]:
        raise ConfigError(
            f"config key 'oracle_b' must be one of 'b' {params['b']}, got {params['oracle_b']!r}"
        )
    a = params["lattice"]["a"]
    if experiment == "fig4":
        _time_defaults(params["time"], a, "linear", params["F"], 0.0)
    elif experiment == "fig5":  # the one exception: 25/sqrt(c), about four periods
        params["time"]["t_max"] = params["time"]["t_max"] or 25.0 / np.sqrt(params["c"])
        _time_defaults(params["time"], a, "harmonic", 0.0, params["c"])
    elif experiment == "dynamics":
        _time_defaults(params["time"], a, pot["kind"], pot["F"], pot["c"])
    if params["output"]["path"] is None:
        params["output"]["path"] = f"{experiment}.csv"


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config, applying defaults.

    Unknown keys are rejected with the offending key name; syntax errors
    report the position. The returned config has every default resolved to
    its numeric value so the manifest echo is self-contained.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        where = f"line {err.lineno}, column {err.colno}"
        raise ConfigError(f"config syntax error at {where}: {err.msg}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "experiment" not in raw:
        raise ConfigError("config is missing the 'experiment' key")
    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    body = {k: v for k, v in raw.items() if k != "experiment"}
    params = _validate_tree(body, _SCHEMAS[experiment])
    _resolve(experiment, params)
    return ExperimentConfig(experiment=experiment, params=params)


# ---------------------------------------------------------------------------
# dataset emission

def _cell(value):
    """One dataset cell as a plain Python value; floats keep 12 significant
    digits and negative zero becomes 0.0."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(f"{float(value) + 0.0:.11e}")


def _csv_token(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.11e}"
    return cell if isinstance(cell, str) else json.dumps(cell)


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(text.encode("ascii"))
        os.replace(tmp, path)
    except OSError as err:
        raise OSError(f"failed writing {path}: {err}") from err


def emit_dataset(rows, columns, path: str, fmt: str = "csv") -> str:
    """Write rows under a fixed column schema; byte-deterministic output.

    Floats are rendered with 12 significant digits, lines end with newline,
    and the file is written atomically (temp file + rename). Returns path.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown dataset format {fmt!r}")
    cells = []
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row with {len(row)} cells does not fit {len(columns)} columns")
        cells.append([_cell(v) for v in row])
    if fmt == "csv":
        text = "".join(",".join(map(_csv_token, row)) + "\n" for row in [columns, *cells])
    else:
        body = {"columns": list(columns), "rows": cells}
        text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    _write_atomic(path, text)
    return path


# ---------------------------------------------------------------------------
# experiment bodies

def _spec(params: dict) -> LatticeSpec:
    return LatticeSpec(params["lattice"]["M"], params["lattice"]["a"])


def _hopping_from(params: dict) -> Hopping:
    cfg = params["hopping"]
    if cfg["kind"] == "custom":
        return Hopping.custom(cfg["t0"], cfg["t_n"])
    return Hopping(cfg["kind"])


def _potential_from(params: dict) -> Potential:
    cfg = params["potential"]
    if cfg["kind"] == "constant":
        return Potential.constant(cfg["V0"])
    if cfg["kind"] == "linear":
        return Potential.linear(cfg["F"])
    if cfg["kind"] == "harmonic":
        return Potential.harmonic(cfg["c"])
    return Potential.custom(cfg["values"])


def _solve(params: dict, spec: LatticeSpec, hop: Hopping, pot: Potential):
    return eigensolve(build_hamiltonian(spec, hop, pot), tol=params["tolerances"]["eigensolve"])


def _evolve(params: dict, spec: LatticeSpec, hop: Hopping, pot: Potential, packets):
    """The configured time grid and one TimeSeries per packet, from one eigensolve."""
    tgrid = np.arange(0.0, params["time"]["t_max"] + 1e-12, params["time"]["dt"])
    sr = _solve(params, spec, hop, pot)
    tol = params["tolerances"]
    runs = [
        run_timeseries(spec, hop, pot, packet, tgrid, sr, tol["leak_warn"], tol["leak_fail"])
        for packet in packets
    ]
    return tgrid, runs


def _run_spectrum(params):
    spec = _spec(params)
    sr = _solve(params, spec, _hopping_from(params), _potential_from(params))
    columns = ["n", "energy", "parity", "s_n", "center"]
    rows = [
        [d.index, sr.eigenvalues[d.index], d.parity, d.overlap, d.center]
        for d in diagnose_states(sr, spec)
    ]
    return columns, rows, {"residual_norm": sr.residual_norm}


def _sweep_rows(params, hopping, states):
    c, grid = params["c"], params["grid"]
    a_values = np.linspace(grid["x_min"], grid["x_max"], grid["points"]) / c**0.25
    sweep = harmonic_sweep(
        c, a_values, states, params["lattice"]["M"], hopping, tol=params["tolerances"]["eigensolve"]
    )
    columns = (sweep.ac_quarter, sweep.index, sweep.e_over_sqrt_c, sweep.reference)
    return [list(row) for row in zip(*columns)]


def _run_sweep(params):
    rows = _sweep_rows(params, _hopping_from(params), params["states_per_point"])
    c = params["c"]
    a_values = [row[0] / c**0.25 for row in rows[:: params["states_per_point"]]]
    return ["ac_quarter", "n", "e_over_sqrtc", "dashed_ref"], rows, {"c": c, "a_values": a_values}


def _run_fig1(params):
    pair = sorted(params["nn_pair"])
    quad = _sweep_rows(params, Hopping.quadratic(), params["states_per_point"])
    cos = _sweep_rows(params, Hopping.cosine(), max(pair) + 1)
    rows = [["quadratic", *row] for row in quad]
    rows.extend(["cosine", *row] for row in cos if row[1] in pair)
    columns = ["kinetic", "ac_quarter", "n", "e_over_sqrtc", "dashed_ref"]
    return columns, rows, {"states_per_point": params["states_per_point"], "nn_pair": pair}


def _run_fig2(params):
    spec = _spec(params)
    rows = []
    for c in params["c_values"]:
        sr = _solve(params, spec, Hopping.quadratic(), Potential.harmonic(c))
        rows.extend(
            [c, d.index, d.overlap]
            for d in diagnose_states(sr, spec)
            if d.parity == "even" and d.index <= params["n_cut"]
        )
    return ["c", "n", "s_n"], rows, {"c_values": params["c_values"], "n_cut": params["n_cut"]}


def _run_fig3(params):
    spec = _spec(params)
    force, target = params["F"], params["target_site"]
    hop = Hopping.quadratic()

    ws = _solve(params, spec, hop, Potential.linear(force))
    centers = np.sum(spec.sites[:, None] * np.abs(ws.eigenvectors) ** 2, axis=0)
    ws_idx = int(np.argmin(np.abs(centers - target)))
    ladder = wannier_stark_analysis(ws, spec, force)

    # even states have mirror lobes at +-m, so match the lobe's distance from the centre
    harm = _solve(params, spec, hop, Potential.harmonic(params["c"]))
    even = [d.index for d in diagnose_states(harm, spec) if d.parity == "even"]
    lobes = spec.sites[np.argmax(np.abs(harm.eigenvectors[:, even]), axis=0)]
    best = even[int(np.argmin(np.abs(np.abs(lobes) - abs(target))))]
    columns = ["m", "ws_amp_sqrt2", "harmonic_amp"]
    rows = [
        [int(m), np.sqrt(2.0) * ws.eigenvectors[i, ws_idx].real, harm.eigenvectors[i, best].real]
        for i, m in enumerate(spec.sites)
    ]
    derived = {
        "ws_state_index": ws_idx,
        "ws_center": float(centers[ws_idx]),
        "ws_energy": float(ws.eigenvalues[ws_idx]),
        "harmonic_state_index": best,
        "ladder_mean_spacing": ladder.mean_spacing,
        "ladder_max_spacing_deviation": ladder.max_spacing_deviation,
        "expected_spacing": spec.spacing * force,
    }
    return columns, rows, derived


def _run_fig4(params):
    spec = _spec(params)
    force, bs = params["F"], params["b"]
    packets = [GaussianPacket(params["n0"], b) for b in bs]
    pot = Potential.linear(force)
    tgrid, runs = _evolve(params, spec, Hopping.quadratic(), pot, packets)
    oracle = runs[bs.index(params["oracle_b"])]
    tags = [f"b{b:g}" for b in bs]
    columns = ["t", *(f"x_mean_{tag}" for tag in tags), "x_ccr", "x_exact"]
    columns += [f"s_abs_{tag}" for tag in tags]
    series = [tgrid, *(r.x_mean for r in runs), oracle.x_ccr, oracle.x_exact_oracle]
    series += [r.s_abs for r in runs]
    derived = {
        "bloch_period": 2 * np.pi / (spec.spacing * force),
        "oracle_b": params["oracle_b"],
        "boundary_max": max(r.boundary_max for r in runs),
    }
    return columns, np.column_stack(series).tolist(), derived


def _run_fig5(params):
    spec = _spec(params)
    curv, b, n0s, nn_n0 = params["c"], params["b"], params["n0"], params["nn_n0"]
    pot = Potential.harmonic(curv)
    packets = [GaussianPacket(-n0, b) for n0 in n0s]
    tgrid, runs = _evolve(params, spec, Hopping.quadratic(), pot, packets)
    _, (nn,) = _evolve(params, spec, Hopping.cosine(), pot, [GaussianPacket(-nn_n0, b)])
    root = np.sqrt(curv)
    columns = ["t", "sqrt_c_t", *(f"x_mean_n{n0}" for n0 in n0s)]
    columns += [f"x_ccr_n{n0s[0]}", f"x_mean_nn{nn_n0}"]
    series = [tgrid, root * tgrid, *(r.x_mean for r in runs), runs[0].x_ccr, nn.x_mean]
    derived = {
        "threshold_estimate": threshold_estimate(spec.spacing, curv),
        "period": 2 * np.pi / root,
        "boundary_max": max(r.boundary_max for r in [*runs, nn]),
    }
    return columns, np.column_stack(series).tolist(), derived


def _run_dynamics(params):
    spec, pot, pk = _spec(params), _potential_from(params), params["packet"]
    packet = GaussianPacket(pk["n0"], pk["b"], pk["k0"])
    tgrid, (ts,) = _evolve(params, spec, _hopping_from(params), pot, [packet])
    nan = np.full(len(tgrid), np.nan)
    x_ccr = nan if ts.x_ccr is None else ts.x_ccr
    x_exact = nan if ts.x_exact_oracle is None else ts.x_exact_oracle
    columns = ["t", "x_mean", "k_mean", "s_abs", "norm", "x_ccr", "x_exact"]
    series = [tgrid, ts.x_mean, ts.k_mean, ts.s_abs, ts.norm, x_ccr, x_exact]
    derived = {"boundary_max": ts.boundary_max}
    if pot.kind == "linear" and pot.force != 0:
        derived["bloch_period"] = 2 * np.pi / (spec.spacing * abs(pot.force))
    if pot.kind == "harmonic":
        derived["threshold_estimate"] = threshold_estimate(spec.spacing, pot.curvature)
    return columns, np.column_stack(series).tolist(), derived


def _run_ccr_check(params):
    spec, pk = _spec(params), params["packet"]
    psi = make_gaussian(spec, GaussianPacket(pk["n0"], pk["b"], pk["k0"]))
    result = ccr_defect(psi, spec, params["margin"])
    columns = ["m", "defect_re", "defect_im", "ratio_re", "ratio_im"]
    rows = []
    for m, defect in zip(result.sites, result.profile):
        ratio = defect / (-1j * (-1.0) ** abs(int(m)))
        rows.append([int(m), defect.real, defect.imag, ratio.real, ratio.imag])
    derived = {
        "s_abs": abs(result.overlap),
        "max_defect": result.max_defect,
        "truncation_tail": result.tail,
    }
    return columns, rows, derived


_RUNNERS = {
    "spectrum": _run_spectrum,
    "sweep": _run_sweep,
    "dynamics": _run_dynamics,
    "ccr-check": _run_ccr_check,
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
}


def run_experiment(cfg: ExperimentConfig, out_dir: str = "."):
    """Execute the configured experiment and write dataset plus manifest.

    Returns (columns, rows, manifest). On failure the exception carries the
    warnings raised before it as run_warnings, and the caller is expected to
    write a RunManifest carrying both (the CLI does).
    """
    started = _utc_now()
    clock = time.perf_counter()
    out = cfg.params["output"]
    with warnings.catch_warnings(record=True) as wrec:
        warnings.simplefilter("always")
        try:
            columns, rows, derived = _RUNNERS[cfg.experiment](cfg.params)
            emit_dataset(rows, columns, os.path.join(out_dir, out["path"]), out["format"])
        except Exception as err:
            err.run_warnings = [str(w.message) for w in wrec]
            raise
    manifest = RunManifest(
        experiment=cfg.experiment,
        config={"experiment": cfg.experiment, **cfg.params},
        timestamp={"started_utc": started, "wall_time_s": round(time.perf_counter() - clock, 3)},
        warnings=[str(w.message) for w in wrec],
        derived=derived,
        dataset=out["path"],
    )
    manifest.write(out_dir)
    return columns, rows, manifest
