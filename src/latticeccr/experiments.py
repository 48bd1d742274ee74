"""Named experiments, JSON configs, and deterministic CSV/JSON datasets.

Each experiment resolves its defaults into an explicit config (echoed in the
run manifest), produces one dataset with a fixed column schema, and writes it
with fixed float formatting so identical configs give byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError
from .ccr import _interior, ccr_defect
from .dynamics import LEAK_FAIL, LEAK_WARN, GaussianPacket, make_gaussian, run_timeseries
from .lattice import Hopping, LatticeSpec, Potential, _hamiltonian_diagonal, build_hamiltonian
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


# Each leaf is (default, kind), or (default, kind, the block kind that reads it); a None
# default marks an optional key. Each experiment's schema holds exactly the keys its runner
# reads (output.* excepted, which run_experiment reads), as tests/test_experiments.py checks.
_OUTPUT = {"path": (None, "str"), "format": ("csv", ("csv", "json"))}
_SOLVE = {"eigensolve": (1e-10, "float+")}
_LEAK = {**_SOLVE, "leak_warn": (LEAK_WARN, "float+"), "leak_fail": (LEAK_FAIL, "float+")}
_HOPPING = {
    "kind": ("quadratic", ("quadratic", "cosine", "custom")),
    "t0": (0.0, "float", "custom"),
    "t_n": ([], "[float]*", "custom"),
}
_POTENTIAL = {
    "kind": ("harmonic", ("constant", "linear", "harmonic", "custom")),
    "V0": (0.0, "float", "constant"),
    "F": (0.4, "float", "linear"),
    "c": (0.01, "float", "harmonic"),
    "values": ([], "[float]*", "custom"),
}
_TIME = {"t_max": (None, "float+"), "dt": (None, "float+")}
_GRID = {"x_min": (0.1, "float+"), "x_max": (3.0, "float+"), "points": (25, "int+")}


def _packet(n0, b):
    return {"n0": (n0, "int"), "b": (b, "float+"), "k0": (0.0, "float")}


def _schema(M, **keys):
    spacing = {} if "grid" in keys else {"a": (1.0, "float+")}  # sweep, fig1: spacings from grid
    return {"lattice": {"M": (M, "int+"), **spacing}, **keys, "output": _OUTPUT}


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


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@dataclass
class RunManifest:
    """Provenance sidecar of every run, failed runs included, made by
    run_experiment when the run starts.

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

    def write(self, out_dir: str) -> None:
        """Write atomically to out_dir as <dataset stem>_manifest.json, the
        dataset being the configured output.path (<experiment>.csv while the
        config has not parsed)."""
        dataset = self.config["output"]["path"] if self.config else f"{self.experiment}.csv"
        path = os.path.splitext(os.path.join(out_dir, dataset))[0] + "_manifest.json"
        _write_atomic(path, json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


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
            default, kind, *reader = entry  # reader: [the block kind that reads the key]
            value = raw.get(key, default)
            given = key in raw and not (value is None and default is None)
            out[key] = _check(value, kind, prefix + key) if given else value
            # kind, first in its block, is set; a key it does not read keeps its default
            if reader and reader != [out["kind"]] and out[key] != default:
                unread = f"is not read by {prefix}kind {out['kind']!r}"
                raise ConfigError(f"config key {prefix + key!r} = {out[key]!r} {unread}")
    return out


_MAX_FLOATS = np.iinfo(np.intp).max // 8  # the most float64 values one numpy array can hold


def _key_names(keys) -> str:
    """The config keys of an error message: config key 'a', config keys 'a' and 'b'."""
    return f"config key{'s' * (len(keys) > 1)} {' and '.join(map(repr, keys))}"


def _named(keys, build, *args):
    """build(*args) with numpy's floating-point warnings off (the package's checks
    refuse what is not finite); a ValueError becomes a ConfigError naming keys."""
    try:
        with np.errstate(all="ignore"):
            return build(*args)
    except ValueError as err:
        raise ConfigError(f"{_key_names(keys)}: {err}") from err


def _time_points(time: dict) -> float:
    """Length of the time grid k * dt, k = 0, 1, ..., up to t_max (and 1e-12
    past it, against rounding): the length of np.arange(0, t_max + 1e-12, dt),
    as a float that is inf when it overflows."""
    with np.errstate(over="ignore"):
        return np.ceil((time["t_max"] + 1e-12) / time["dt"])


# potential kind -> the one key it reads, from the potential leaves
_POTENTIAL_KEYS = {leaf[2]: key for key, leaf in _POTENTIAL.items() if len(leaf) == 3}


def _hamiltonians(params: dict) -> list:
    """(potential's config key, Hopping, Potential) of every Hamiltonian the experiment
    solves, in the order its runner solves them: each hopping with each potential. The
    hopping is the hopping block's, else quadratic, and for fig1 and fig5 also cosine; the
    potential is the one potential.kind selects, else F (linear), c and each of c_values
    (harmonic). A refused potential is a ConfigError naming its key."""
    hop = params.get("hopping")
    if hop:
        custom = hop["kind"] == "custom"
        hops = [Hopping.custom(hop["t0"], hop["t_n"]) if custom else Hopping(hop["kind"])]
    else:
        nearest = "nn_pair" in params or "nn_n0" in params  # fig1, fig5
        hops = [Hopping.quadratic(), *[Hopping.cosine()] * nearest]
    pot = params.get("potential")
    if pot:
        name = _POTENTIAL_KEYS[pot["kind"]]
        found = [(f"potential.{name}", pot["kind"], pot[name])]
    else:
        found = [(key, kind, params[key]) for kind, key in _POTENTIAL_KEYS.items() if key in params]
        found += [("c_values", "harmonic", c) for c in params.get("c_values", [])]
    pots = [(key, _named((key,), getattr(Potential, kind), arg)) for key, kind, arg in found]
    return [(key, h, p) for h in hops for key, p in pots]


def _motion(params: dict):
    """(config key, default dt, period) of the motion the first Hamiltonian's potential
    drives, None unless it is linear or harmonic, or at F = 0: frequency w = a |F| (Bloch)
    or sqrt(c), period 2 pi / w, dt 0.05 / w or 0.1 / w (about 126 or 63 steps a period);
    an infinite period is an error."""
    key, _, pot = _hamiltonians(params)[0]
    strength = pot.force if pot.kind == "linear" else pot.curvature  # 0 unless either
    if not strength:
        return None
    a = params["lattice"]["a"]
    rate = a * abs(strength) if pot.kind == "linear" else np.sqrt(strength)
    period = 2 * np.pi / rate if rate > 0 else np.inf
    if not np.isfinite(2 * period):  # the default t_max; only F can: sqrt(c) > 1e-162
        raise ConfigError(
            f"config key {key!r}: F = {strength!r} at 'lattice.a' = {a!r} gives a Bloch period "
            f"2 pi / (a |F|) of {period:.3g}, beyond the float range"
        )
    return key, (0.05 if pot.kind == "linear" else 0.1) / rate, period


def _resolve_time(experiment: str, params: dict) -> None:
    """Fill unset time keys: two periods of _motion in its steps, else 10 time units in
    steps of 0.1. A grid longer than any array is a ConfigError naming the given time
    keys and the force or curvature key behind a default."""
    time = params["time"]
    given = [f"time.{name}" for name in ("t_max", "dt") if time[name] is not None]
    if experiment == "fig5":  # the one exception: 25/sqrt(c), about four periods
        time["t_max"] = time["t_max"] or 25.0 / np.sqrt(params["c"])
    key, dt, period = _motion(params) or (None, 0.1, 5.0)
    time["dt"] = time["dt"] or dt
    time["t_max"] = time["t_max"] or 2 * period
    points = _time_points(time)
    if not points <= _MAX_FLOATS:
        keys = given if len(given) == 2 or key is None else [*given, key]
        raise ConfigError(
            f"{_key_names(keys)}: a time grid of {points:.3g} points is longer than any array"
        )


def _sweep_spacings(params: dict, points: int | None = None) -> np.ndarray:
    """Spacings x / c^(1/4) for grid.points (or points) x from grid.x_min to grid.x_max."""
    grid = params["grid"]
    x = np.linspace(grid["x_min"], grid["x_max"], points or grid["points"])
    with np.errstate(over="ignore"):  # LatticeSpec refuses an infinite spacing by name
        return x / params["c"] ** 0.25


def _packets(params: dict) -> list:
    """(config keys, GaussianPacket) of each packet the experiment starts: the packet
    block (dynamics, ccr-check); one at n0 per b (fig4); one at -n0 per n0 and, last,
    the cosine-hopping one at -nn_n0 (fig5)."""
    if "packet" in params:
        pk = params["packet"]
        return [(("packet.n0", "packet.k0"), GaussianPacket(pk["n0"], pk["b"], pk["k0"]))]
    if "oracle_b" in params:  # fig4
        return [(("n0",), GaussianPacket(params["n0"], b)) for b in params["b"]]
    if "nn_n0" in params:  # fig5
        packets = [(("n0",), GaussianPacket(-n0, params["b"])) for n0 in params["n0"]]
        return [*packets, (("nn_n0",), GaussianPacket(-params["nn_n0"], params["b"]))]
    return []


def _tags(params: dict) -> tuple:
    """(config key, column tags) of fig4's b list or fig5's n0 list."""
    if "oracle_b" in params:  # fig4
        return "b", [f"b{b:g}" for b in params["b"]]
    return "n0", [f"n{n0}" for n0 in params["n0"]]


def _check_window(params: dict) -> None:
    """Range checks before the run, each naming its config key. The dense N x N
    complex operator must fit one numpy array; then the run's O(N) objects are
    built through the package's own checks: the LatticeSpec of every spacing;
    custom hopping's terms; at every spacing, the diagonal of each Hamiltonian of
    _hamiltonians, first without its potential and then with it; every packet; and
    for ccr-check the margin and support check of ccr_defect."""
    half_width = params["lattice"]["M"]
    if 2 * (2 * half_width + 1) ** 2 > _MAX_FLOATS:
        raise ConfigError(
            f"config key 'lattice.M': a window of {2 * half_width + 1} sites needs an "
            "N x N matrix larger than any array"
        )
    if "grid" in params:  # sweep and fig1: both ends of the grid of spacings
        spacings = dict(zip(("grid.x_min", "grid.x_max"), _sweep_spacings(params, 2)))
    else:
        spacings = {"lattice.a": params["lattice"]["a"]}
    specs = {key: _named((key,), LatticeSpec, half_width, a) for key, a in spacings.items()}
    widest = list(specs.values())[-1]  # lattice.a, or grid.x_max > grid.x_min
    hams = _hamiltonians(params)  # none for ccr-check
    if hams and hams[0][1].kind == "custom":  # the hopping block's
        _named(("hopping.t_n",), hams[0][1].terms, widest)
    # Both ends of the spacings bound the diagonal: a harmonic V grows with a, the onsite
    # -t0 with 1/a^2.
    for spacing_key, spec in specs.items():
        for key, hop, pot in hams:
            kinetic = ("hopping.t0", "hopping.t_n") if hop.kind == "custom" else (spacing_key,)
            _named(kinetic, _hamiltonian_diagonal, spec, hop, Potential.constant())
            _named((key,), _hamiltonian_diagonal, spec, hop, pot)
    for keys, packet in _packets(params):
        psi = _named(keys, make_gaussian, widest, packet)
    if "margin" in params:  # ccr-check, whose one packet is psi
        keys = ("lattice.M" if params["margin"] is None else "margin", "packet.n0", "packet.b")
        _named(keys, _interior, psi, widest, params["margin"])


def _resolve(experiment: str, params: dict) -> None:
    """Cross-key checks, then the defaults that depend on other keys."""
    out = params["output"]
    out["path"] = f"{experiment}.csv" if out["path"] is None else out["path"]
    if os.path.basename(out["path"]) in ("", ".", ".."):
        raise ConfigError(f"config key 'output.path' must name a file, got {out['path']!r}")
    grid = params.get("grid")
    if grid and grid["x_max"] <= grid["x_min"]:
        raise ConfigError("config key 'grid.x_max' must exceed 'grid.x_min'")
    if grid and grid["points"] > _MAX_FLOATS:
        raise ConfigError(
            f"config key 'grid.points': a grid of {grid['points']} points is longer than any array"
        )
    half = params["lattice"]["M"]
    states = 2 * half + 1
    if experiment == "fig1" and not all(0 <= n < states for n in params["nn_pair"]):
        raise ConfigError(
            f"config key 'nn_pair' must hold state indices 0..{states - 1} of the "
            f"{states}-site window, got {params['nn_pair']}"
        )
    if experiment == "fig3" and not abs(params["target_site"]) < half:
        raise ConfigError(
            f"config key 'target_site' = {params['target_site']} is outside the window |m| < {half}"
        )
    if experiment == "fig4" and params["oracle_b"] not in params["b"]:
        raise ConfigError(
            f"config key 'oracle_b' must be one of 'b' {params['b']}, got {params['oracle_b']!r}"
        )
    if experiment in ("fig4", "fig5"):
        key, tags = _tags(params)
        if len(set(tags)) < len(tags):
            raise ConfigError(f"config key {key!r} repeats a dataset column tag: {tags}")
    _check_window(params)
    if "time" in params:
        _resolve_time(experiment, params)


def _read_config(text: str) -> dict:
    """The JSON object of a config document, or a ConfigError placing what is wrong."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        where = f"line {err.lineno}, column {err.colno}"
        raise ConfigError(f"config syntax error at {where}: {err.msg}") from err
    except ValueError as err:  # an integer literal past Python's digit limit
        raise ConfigError(f"config value error: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config, applying defaults.

    Unknown keys are rejected with the offending key name; syntax errors
    report the position. The returned config has every default resolved to
    its numeric value so the manifest echo is self-contained.
    """
    raw = _read_config(text)
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
        with contextlib.suppress(OSError):  # there is no temp file if open failed
            os.remove(tmp)
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


def _solve(params: dict, spec: LatticeSpec, hop: Hopping, pot: Potential):
    return eigensolve(build_hamiltonian(spec, hop, pot), tol=params["tolerances"]["eigensolve"])


def _timeseries(params: dict, spec: LatticeSpec, hop: Hopping, pot: Potential, packets):
    """The configured time grid and one TimeSeries per packet, from one eigensolve."""
    tgrid = np.arange(int(_time_points(params["time"]))) * params["time"]["dt"]
    sr = _solve(params, spec, hop, pot)
    tol = params["tolerances"]
    runs = [
        run_timeseries(spec, hop, pot, packet, tgrid, sr, tol["leak_warn"], tol["leak_fail"])
        for packet in packets
    ]
    return tgrid, runs


def _run_spectrum(params):
    spec, ((_, hop, pot),) = _spec(params), _hamiltonians(params)
    sr = _solve(params, spec, hop, pot)
    columns = ["n", "energy", "parity", "s_n", "center"]
    rows = [
        [d.index, sr.eigenvalues[d.index], d.parity, d.overlap, d.center]
        for d in diagnose_states(sr, spec)
    ]
    return columns, rows, {"residual_norm": sr.residual_norm}


def _sweep_rows(params, hop, pot, states):
    half_width, tol = params["lattice"]["M"], params["tolerances"]["eigensolve"]
    sweep = harmonic_sweep(pot.curvature, _sweep_spacings(params), states, half_width, hop, tol=tol)
    columns = (sweep.ac_quarter, sweep.index, sweep.e_over_sqrt_c, sweep.reference)
    return [list(row) for row in zip(*columns)]


def _run_sweep(params):
    ((_, hop, pot),) = _hamiltonians(params)
    rows = _sweep_rows(params, hop, pot, params["states_per_point"])
    derived = {"c": params["c"], "a_values": _sweep_spacings(params).tolist()}
    return ["ac_quarter", "n", "e_over_sqrtc", "dashed_ref"], rows, derived


def _run_fig1(params):
    pair, ((_, quadratic, pot), (_, cosine, _)) = sorted(params["nn_pair"]), _hamiltonians(params)
    quad = _sweep_rows(params, quadratic, pot, params["states_per_point"])
    cos = _sweep_rows(params, cosine, pot, max(pair) + 1)
    rows = [["quadratic", *row] for row in quad]
    rows.extend(["cosine", *row] for row in cos if row[1] in pair)
    columns = ["kinetic", "ac_quarter", "n", "e_over_sqrtc", "dashed_ref"]
    return columns, rows, {"states_per_point": params["states_per_point"], "nn_pair": pair}


def _run_fig2(params):
    spec = _spec(params)
    rows = []
    for _, hop, pot in _hamiltonians(params):
        sr = _solve(params, spec, hop, pot)
        rows.extend(
            [pot.curvature, d.index, d.overlap]
            for d in diagnose_states(sr, spec)
            if d.parity == "even" and d.index <= params["n_cut"]
        )
    return ["c", "n", "s_n"], rows, {"c_values": params["c_values"], "n_cut": params["n_cut"]}


def _run_fig3(params):
    spec, target = _spec(params), params["target_site"]
    (_, hop, linear), (_, _, harmonic) = _hamiltonians(params)

    ws = _solve(params, spec, hop, linear)
    centers = np.sum(spec.sites[:, None] * np.abs(ws.eigenvectors) ** 2, axis=0)
    ws_idx = int(np.argmin(np.abs(centers - target)))
    # how many ladder states lie inside depends on the solved spectrum, not on the parse
    ladder = _named(("lattice.M", "F"), wannier_stark_analysis, ws, spec, linear.force)

    # even states have mirror lobes at +-m, so match the lobe's distance from the centre
    harm = _solve(params, spec, hop, harmonic)
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
        "expected_spacing": spec.spacing * linear.force,
    }
    return columns, rows, derived


def _run_fig4(params):
    spec = _spec(params)
    packets, ((_, hop, pot),) = [packet for _, packet in _packets(params)], _hamiltonians(params)
    tgrid, runs = _timeseries(params, spec, hop, pot, packets)
    oracle = runs[params["b"].index(params["oracle_b"])]
    _, tags = _tags(params)
    columns = ["t", *(f"x_mean_{tag}" for tag in tags), "x_ccr", "x_exact"]
    columns += [f"s_abs_{tag}" for tag in tags]
    series = [tgrid, *(r.x_mean for r in runs), oracle.x_ccr, oracle.x_exact_oracle]
    series += [r.s_abs for r in runs]
    derived = {
        "bloch_period": _motion(params)[2],
        "oracle_b": params["oracle_b"],
        "boundary_max": max(r.boundary_max for r in runs),
    }
    return columns, np.column_stack(series).tolist(), derived


def _run_fig5(params):
    spec, ((_, quad, pot), (_, cos, _)) = _spec(params), _hamiltonians(params)
    curv = pot.curvature
    *packets, nn_packet = [packet for _, packet in _packets(params)]
    tgrid, runs = _timeseries(params, spec, quad, pot, packets)
    _, (nn,) = _timeseries(params, spec, cos, pot, [nn_packet])
    _, tags = _tags(params)
    root = np.sqrt(curv)
    columns = ["t", "sqrt_c_t", *(f"x_mean_{tag}" for tag in tags)]
    columns += [f"x_ccr_{tags[0]}", f"x_mean_nn{params['nn_n0']}"]
    series = [tgrid, root * tgrid, *(r.x_mean for r in runs), runs[0].x_ccr, nn.x_mean]
    derived = {
        "threshold_estimate": threshold_estimate(spec.spacing, curv),
        "period": _motion(params)[2],
        "boundary_max": max(r.boundary_max for r in [*runs, nn]),
    }
    return columns, np.column_stack(series).tolist(), derived


def _run_dynamics(params):
    spec, ((_, hop, pot),), ((_, packet),) = _spec(params), _hamiltonians(params), _packets(params)
    tgrid, (ts,) = _timeseries(params, spec, hop, pot, [packet])
    nan = np.full(len(tgrid), np.nan)
    x_ccr = nan if ts.x_ccr is None else ts.x_ccr
    x_exact = nan if ts.x_exact_oracle is None else ts.x_exact_oracle
    columns = ["t", "x_mean", "k_mean", "s_abs", "norm", "x_ccr", "x_exact"]
    series = [tgrid, ts.x_mean, ts.k_mean, ts.s_abs, ts.norm, x_ccr, x_exact]
    derived = {"boundary_max": ts.boundary_max}
    if pot.kind == "linear" and pot.force != 0:
        derived["bloch_period"] = _motion(params)[2]
    if pot.kind == "harmonic":
        derived["threshold_estimate"] = threshold_estimate(spec.spacing, pot.curvature)
    return columns, np.column_stack(series).tolist(), derived


def _run_ccr_check(params):
    spec, ((_, packet),) = _spec(params), _packets(params)
    psi = make_gaussian(spec, packet)
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

    The run's one RunManifest is made when it starts (config echo, started_utc)
    and filled in as the run goes; the dataset's directory is made first. Returns
    (columns, rows, manifest). On failure the exception carries that manifest as
    err.manifest, with the warnings and wall time up to the failure, and the
    caller sets its error and writes it (the CLI does).
    """
    manifest = RunManifest(cfg.experiment, {"experiment": cfg.experiment, **cfg.params})
    clock = time.perf_counter()
    out = cfg.params["output"]
    path = os.path.join(out_dir, out["path"])
    with warnings.catch_warnings(record=True) as wrec:
        warnings.simplefilter("always")
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            columns, rows, manifest.derived = _RUNNERS[cfg.experiment](cfg.params)
            emit_dataset(rows, columns, path, out["format"])
            manifest.dataset = out["path"]
        except Exception as err:
            err.manifest = manifest
            raise
        finally:
            manifest.warnings = [str(w.message) for w in wrec]
            manifest.timestamp["wall_time_s"] = round(time.perf_counter() - clock, 3)
    manifest.write(out_dir)
    return columns, rows, manifest
