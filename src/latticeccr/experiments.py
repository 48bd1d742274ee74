"""Named experiments, JSON configs, and deterministic CSV/JSON datasets.

Each experiment resolves its defaults into an explicit config (echoed in the
run manifest), produces one dataset with a fixed column schema, and writes it
with fixed float formatting so identical configs give byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, field
from decimal import Decimal
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import ConfigError
from .ccr import _margin, ccr_defect
from .dynamics import CHUNK, LEAK_FAIL, LEAK_WARN, GaussianPacket, make_gaussian, run_timeseries
from .lattice import Hopping, LatticeSpec, Potential, _hamiltonian_diagonal, build_hamiltonian
from .spectral import (
    _even_states,
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


def _schema(M, a=(1.0, "float+"), **keys):  # a=None: grid sets the spacings (sweep, fig1)
    spacing = {"a": a} if a else {}
    return {"lattice": {"M": (M, "int+"), **spacing}, **keys, "output": _OUTPUT}


_SWEEP = {"c": (0.01, "float+"), "grid": _GRID, "states_per_point": (20, "int+")}
_SCHEMAS = {
    "spectrum": _schema(100, hopping=_HOPPING, potential=_POTENTIAL, tolerances=_SOLVE),
    "sweep": _schema(100, None, **_SWEEP, hopping=_HOPPING, tolerances=_SOLVE),
    "dynamics": _schema(
        128,
        hopping=_HOPPING,
        potential=_POTENTIAL,
        packet=_packet(20, 0.2),
        time=_TIME,
        tolerances=_LEAK,
    ),
    "ccr-check": _schema(100, packet=_packet(0, 50.0), margin=(None, "int+")),
    "fig1": _schema(100, None, **_SWEEP, nn_pair=([1, 2], "[int]"), tolerances=_SOLVE),
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
        config has not parsed). A manifest whose config did not parse leaves
        in place a manifest there whose config did."""
        dataset = self.config["output"]["path"] if self.config else f"{self.experiment}.csv"
        path = os.path.splitext(os.path.join(out_dir, dataset))[0] + "_manifest.json"
        if self.config is None and _parsed_manifest(path):
            return
        _write_atomic(path, json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


def _parsed_manifest(path: str) -> bool:
    """Whether path holds the manifest of a run whose config parsed."""
    try:
        with open(path, encoding="utf-8") as handle:
            old = json.load(handle)
    except (OSError, ValueError):  # no file there, or not JSON
        return False
    return isinstance(old, dict) and old.get("config") is not None


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


def _time_points(time: dict) -> int:
    """Length of the time grid k * dt, k = 0, 1, ..., up to t_max (and 1e-12 past it,
    against rounding): the length of np.arange(0, t_max + 1e-12, dt), and past the float
    range the ceiling of the exact quotient."""
    span, dt = float(time["t_max"]) + 1e-12, float(time["dt"])
    return math.ceil(span / dt if span / dt < math.inf else Fraction(span) / Fraction(dt))


@dataclass
class _Plan:
    """What a run computes, as _plan derives it from the resolved config. Solves are
    (potential's config key, Hopping, Potential) and packets (config keys, GaussianPacket),
    each in the order the runner takes them; rows counts the dataset's rows (fig2's depend
    on the solved parities: none counted). The size rule reads dense, the N x N float64
    matrices the run holds at once, and grows, the config keys its rows grow with."""

    params: dict
    specs: dict  # config key of each spacing the parse checks -> its LatticeSpec
    spec: LatticeSpec  # the run's window, at grid.x_max for sweep and fig1
    solves: list = field(default_factory=list)
    packets: list = field(default_factory=list)
    columns: list = field(default_factory=list)  # fig4's and fig5's column tags among them
    rows: int = 0
    points: int = 0  # the time grid's length
    period: float | None = None  # the period of the motion that the time grid samples
    dense: int = 2
    grows: tuple = ("lattice.M",)


_CCR_PRODUCTS = 10**9  # ccr-check's cap on N (4M + 1), its convolution's products: M <= 11 179


def _plan(experiment: str, params: dict) -> _Plan:
    """The one map from a resolved config to its run, with O(1) objects only, built through
    the package's own checks; a refusal names its key. Fills the unset time keys: two
    periods of the motion the first solve's potential drives at the rate w = a |F| (Bloch)
    or sqrt(c), in steps of 0.05 / w or 0.1 / w (fig5's t_max: 25 / sqrt(c), about four
    periods); with no such motion, 10 time units in steps of 0.1."""
    lattice, quadratic = params["lattice"], Hopping.quadratic()
    half = lattice["M"]
    sites = 2 * half + 1
    if experiment in ("sweep", "fig1"):  # both ends of the grid of spacings x / c^(1/4)
        grid = params["grid"]
        if grid["x_max"] <= grid["x_min"]:
            raise ConfigError("config key 'grid.x_max' must exceed 'grid.x_min'")
        spacings = {f"grid.{end}": grid[end] / params["c"] ** 0.25 for end in ("x_min", "x_max")}
    else:
        spacings = {"lattice.a": lattice["a"]}
    specs = {key: _named((key,), LatticeSpec, half, a) for key, a in spacings.items()}
    plan = _Plan(params, specs, list(specs.values())[-1])

    def solve(key, kind, value, *hops):
        pot = _named((key,), getattr(Potential, kind), value)
        plan.solves += [(key, hop, pot) for hop in hops]

    if experiment in ("spectrum", "sweep", "dynamics"):  # the hopping block's
        hop = params["hopping"]
        custom = hop["kind"] == "custom"
        block = Hopping.custom(hop["t0"], hop["t_n"]) if custom else Hopping(hop["kind"])
    if experiment in ("spectrum", "dynamics"):  # the potential block's, with its kind's key
        kind = params["potential"]["kind"]
        name = next(key for key, leaf in _POTENTIAL.items() if leaf[2:] == (kind,))
        solve(f"potential.{name}", kind, params["potential"][name], block)
    if experiment in ("dynamics", "ccr-check"):
        pk = params["packet"]
        plan.packets = [(("packet.n0", "packet.k0"), GaussianPacket(pk["n0"], pk["b"], pk["k0"]))]

    if experiment == "spectrum":
        plan.columns, plan.rows = ["n", "energy", "parity", "s_n", "center"], sites
    elif experiment in ("sweep", "fig1"):  # eigenvalues only, of one window at a time
        fig1 = experiment == "fig1"
        pair = params["nn_pair"] if fig1 else []
        if not all(0 <= n < sites for n in pair):
            raise ConfigError(f"config key 'nn_pair' must index states 0..{sites - 1}, got {pair}")
        solve("c", "harmonic", params["c"], *([quadratic, Hopping.cosine()] if fig1 else [block]))
        plan.columns = ["kinetic"] * fig1 + ["ac_quarter", "n", "e_over_sqrtc", "dashed_ref"]
        plan.rows = grid["points"] * (min(params["states_per_point"], sites) + len(set(pair)))
        plan.dense, plan.grows = 1, ("grid.points",)
    elif experiment == "fig2":
        for c in params["c_values"]:
            solve("c_values", "harmonic", c, quadratic)
        plan.columns = ["c", "n", "s_n"]
    elif experiment == "fig3":
        target = params["target_site"]
        if not abs(target) < half:
            raise ConfigError(f"config key 'target_site' = {target} is outside |m| < {half}")
        solve("F", "linear", params["F"], quadratic)
        solve("c", "harmonic", params["c"], quadratic)
        plan.columns, plan.rows, plan.dense = ["m", "ws_amp_sqrt2", "harmonic_amp"], sites, 3
    elif experiment == "ccr-check":  # no N x N matrix: bounded by its convolution's products
        if sites * (4 * half + 1) > _CCR_PRODUCTS:
            work = f"ccr-check's {Decimal(sites * (4 * half + 1)):.3g} complex products N (4M + 1)"
            raise ConfigError(f"config key 'lattice.M': {work} exceed {_CCR_PRODUCTS:.0e}")
        margin = params["margin"]
        width = _named(("lattice.M" if margin is None else "margin",), _margin, half, margin)
        plan.columns = ["m", "defect_re", "defect_im", "ratio_re", "ratio_im"]
        plan.rows, plan.dense = 2 * (half - width) + 1, 0
    elif experiment == "dynamics":
        plan.columns = ["t", "x_mean", "k_mean", "s_abs", "norm", "x_ccr", "x_exact"]
    elif experiment == "fig4":
        bs, oracle_b = params["b"], params["oracle_b"]
        if oracle_b not in bs:
            raise ConfigError(f"config key 'oracle_b' must be one of 'b' {bs}, got {oracle_b!r}")
        tags = [f"b{b:g}" for b in bs]
        solve("F", "linear", params["F"], quadratic)
        plan.packets = [(("n0",), GaussianPacket(params["n0"], b)) for b in bs]
        plan.columns = ["t", *(f"x_mean_{tag}" for tag in tags), "x_ccr", "x_exact"]
        plan.columns += [f"s_abs_{tag}" for tag in tags]
    else:  # fig5: the packets at -n0, and last the cosine hopping's at -nn_n0
        tags, nn_n0 = [f"n{n0}" for n0 in params["n0"]], params["nn_n0"]
        solve("c", "harmonic", params["c"], quadratic, Hopping.cosine())
        plan.packets = [(("n0",), GaussianPacket(-n0, params["b"])) for n0 in params["n0"]]
        plan.packets.append((("nn_n0",), GaussianPacket(-nn_n0, params["b"])))
        plan.columns = ["t", "sqrt_c_t", *(f"x_mean_{tag}" for tag in tags)]
        plan.columns += [f"x_ccr_{tags[0]}", f"x_mean_nn{nn_n0}"]
    if len(set(plan.columns)) < len(plan.columns):  # fig4's b tags or fig5's n0 tags
        key = "b" if experiment == "fig4" else "n0"
        raise ConfigError(f"config key {key!r} repeats a dataset column tag: {plan.columns}")

    if experiment in ("dynamics", "fig4", "fig5"):  # propagations sampled on one time grid
        times = params["time"]
        given = tuple(f"time.{name}" for name in ("t_max", "dt") if times[name] is not None)
        if experiment == "fig5":  # about four periods
            times["t_max"] = times["t_max"] or 25.0 / np.sqrt(params["c"])
        key, _, pot = plan.solves[0]
        strength = pot.force if pot.kind == "linear" else pot.curvature  # 0 unless either
        dt, period = 0.1, 5.0
        if strength:
            a = lattice["a"]
            rate = a * abs(strength) if pot.kind == "linear" else np.sqrt(strength)
            period = 2 * np.pi / rate if rate > 0 else np.inf
            if not np.isfinite(2 * period):  # the default t_max; only F can: sqrt(c) > 1e-162
                raise ConfigError(
                    f"config key {key!r}: F = {strength!r} at 'lattice.a' = {a!r} gives a Bloch "
                    f"period 2 pi / (a |F|) of {period:.3g}, beyond the float range"
                )
            dt, plan.period = (0.05 if pot.kind == "linear" else 0.1) / rate, period
        times["dt"] = times["dt"] or dt
        times["t_max"] = times["t_max"] or 2 * period
        plan.rows = plan.points = _time_points(times)
        # the given time keys, and the force or curvature key behind a default
        plan.grows = given if len(given) == 2 or not strength else (*given, key)
    return plan


def _size(plan: _Plan) -> tuple:
    """The size rule's lower bound on the bytes a run holds at once, with the config keys
    behind it: the larger of two stages, each held whole at one moment. The solve holds 8
    bytes per entry of plan.dense N x N matrices and, while it propagates, 16 per amplitude
    of two blocks of min(CHUNK, points) times: the chunk's exp(-i E t) block and the
    amplitudes of the one packet being reduced. The emission holds 8 per time and per
    dataset cell. Python integers throughout, so that no config value overflows it."""
    n = plan.spec.n_sites
    solve = 8 * n * n * plan.dense + 32 * n * min(CHUNK, plan.points)
    emission = 8 * (plan.points + plan.rows * len(plan.columns))
    return max((solve, ("lattice.M",)), (emission, plan.grows))


def _check_plan(plan: _Plan) -> None:
    """The plan's checks before the run, each naming its config key: first the size rule,
    _size's bound against the machine's physical memory; then the run's O(N) objects through
    the package's own checks: custom hopping's terms; at every spacing, the diagonal of each
    solve, first without its potential and then with it; and every packet."""
    need, keys = _size(plan)
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise ConfigError(
            f"{_key_names(keys)}: the run would hold at least {Decimal(need) / 2**30:.3g} GiB "
            f"at once, more than the {memory / 2**30:.3g} GiB of physical memory"
        )
    if plan.solves and plan.solves[0][1].kind == "custom":  # the hopping block's
        _named(("hopping.t_n",), plan.solves[0][1].terms, plan.spec)
    # Both ends of the spacings bound the diagonal: a harmonic V grows with a, the onsite
    # -t0 with 1/a^2.
    for spacing_key, spec in plan.specs.items():
        for key, hop, pot in plan.solves:
            kinetic = ("hopping.t0", "hopping.t_n") if hop.kind == "custom" else (spacing_key,)
            _named(kinetic, _hamiltonian_diagonal, spec, hop, Potential.constant())
            _named((key,), _hamiltonian_diagonal, spec, hop, pot)
    for keys, packet in plan.packets:
        _named(keys, make_gaussian, plan.spec, packet)


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
    its numeric value so the manifest echo is self-contained. The run's plan
    is built and checked here, the size rule before anything O(N) is built.
    """
    raw = _read_config(text)
    if "experiment" not in raw:
        raise ConfigError("config is missing the 'experiment' key")
    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    body = {k: v for k, v in raw.items() if k != "experiment"}
    params = _validate_tree(body, _SCHEMAS[experiment])
    out = params["output"]
    path = out["path"] = f"{experiment}.{out['format']}" if out["path"] is None else out["path"]
    outside = os.path.isabs(path) or os.path.normpath(path).split(os.sep)[0] == ".."
    if outside or os.path.basename(path) in ("", ".", ".."):
        raise ConfigError(f"config key 'output.path' must name a file inside --out, got {path!r}")
    suffix, fmt = os.path.splitext(path)[1].lower(), out["format"]
    if suffix in (".csv", ".json") and suffix != "." + fmt:
        raise ConfigError(f"config key 'output.path' {path!r} contradicts output.format {fmt!r}")
    _check_plan(_plan(experiment, params))
    return ExperimentConfig(experiment=experiment, params=params)


# ---------------------------------------------------------------------------
# dataset emission

_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json writes them


def _kind(cls) -> str:
    """How emit_dataset writes a cell of type cls: as a str, bool, int or float."""
    if issubclass(cls, str):
        return "str"
    if issubclass(cls, (bool, np.bool_)):
        return "bool"
    return "int" if issubclass(cls, (int, np.integer)) else "float"


def _json_float(token: str) -> str:
    """The JSON text of a "%.12g" token, repr(float(token)) as json writes it: %g and repr
    write one value alike except that %g writes an integral one without ".0", exponents
    12 to 15 where repr writes fixed notation, and at exponents to -308 the digits that
    a subnormal float may not keep."""
    if "e" in token:
        exponent = int(token[token.index("e") + 1 :])
        return repr(float(token)) if 12 <= exponent <= 15 or exponent <= -308 else token
    return _JSON_FLOATS.get(token, token + ".0")


def _converted(cells, kind: str, fmt: str) -> tuple:
    """(conversion, values): the %-conversion that writes cells of one kind, and the values
    it takes. A str is written as is in CSV and quoted in JSON, a bool as true or false, a
    float with 12 significant digits and negative zero as zero; in JSON as the shortest
    text of that rounded value."""
    if kind == "str":
        return "%s", list(cells) if fmt == "csv" else list(map(json.dumps, cells))
    if kind == "bool":
        return "%s", ["true" if cell else "false" for cell in cells]
    if kind == "int":
        return "%d", [int(cell) for cell in cells]
    values = [float(cell) + 0.0 for cell in cells]
    if fmt == "csv":
        return "%.11e", values
    tokens = ("%.12g " * len(values) % tuple(values)).split()
    return "%s", [t if "." in t and "e" not in t else _json_float(t) for t in tokens]


def _column(cells, fmt: str) -> tuple:
    """_converted for one column's cells; a column of mixed kinds, which no experiment
    writes, is converted cell by cell and written as text."""
    kind_of = {cls: _kind(cls) for cls in set(map(type, cells))}
    kinds = set(kind_of.values())
    if len(kinds) == 1:
        return _converted(cells, kinds.pop(), fmt)
    texts = []
    for cell in cells:
        conversion, (value,) = _converted([cell], kind_of[type(cell)], fmt)
        texts.append(conversion % value)
    return "%s", texts


def _json_list(items, indent: int) -> str:
    """A list of JSON texts laid out as json.dumps(..., indent=2) lays it out at indent."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def _write_atomic(path: str, text: str) -> None:
    tmp, data = path + ".tmp", text.encode("ascii")  # a cell that is not ASCII opens no file
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
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
    rows = list(rows)
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row with {len(row)} cells does not fit {len(columns)} columns")
    # the cells row by row, converted column by column and written by one %-format
    width, conversions = len(columns), []
    cells = [None] * (len(rows) * width)
    for j, column in enumerate(zip(*rows)):
        conversion, cells[j::width] = _column(column, fmt)
        conversions.append(conversion)
    _, header = _converted(list(columns), "str", fmt)  # the column names
    if fmt == "csv":
        layout = "%s\n" + (",".join(conversions) + "\n") * len(rows)
        text = layout % (",".join(header), *cells)
    else:  # json.dumps({"columns": ..., "rows": ...}, indent=2, sort_keys=True), line for line
        body = _json_list([_json_list(conversions, 4)] * len(rows), 2)
        layout = f'{{\n  "columns": %s,\n  "rows": {body}\n}}\n'
        text = layout % (_json_list(header, 2), *cells)
    _write_atomic(path, text)
    return path


# ---------------------------------------------------------------------------
# experiment bodies: each executes its plan and returns (rows, derived)

def _solve(plan: _Plan, hop: Hopping, pot: Potential, even_only=False):
    """eigensolve of the plan's Hamiltonian, or with even_only its _even_states."""
    ham, tol = build_hamiltonian(plan.spec, hop, pot), plan.params["tolerances"]["eigensolve"]
    return _even_states(ham, tol) if even_only else eigensolve(ham, tol=tol)


def _timeseries(plan: _Plan, hop: Hopping, pot: Potential, packets):
    """The plan's time grid and one TimeSeries per packet, all propagated in one eigensolve,
    each with its own CCR model and Heisenberg oracle."""
    tgrid = np.arange(plan.points) * plan.params["time"]["dt"]
    sr, tol = _solve(plan, hop, pot), plan.params["tolerances"]
    leak = tol["leak_warn"], tol["leak_fail"]
    return tgrid, run_timeseries(plan.spec, hop, pot, packets, tgrid, sr, *leak)


def _run_spectrum(plan):
    ((_, hop, pot),) = plan.solves
    sr = _solve(plan, hop, pot)
    rows = [
        [d.index, sr.eigenvalues[d.index], d.parity, d.overlap, d.center]
        for d in diagnose_states(sr, plan.spec)
    ]
    return rows, {"residual_norm": sr.residual_norm}


def _sweep_rows(plan, hop, pot, states):
    """harmonic_sweep's rows over the spacings x / c^(1/4) of the grid, and the spacings."""
    grid, tol = plan.params["grid"], plan.params["tolerances"]["eigensolve"]
    spacings = np.linspace(grid["x_min"], grid["x_max"], grid["points"]) / pot.curvature**0.25
    sweep = harmonic_sweep(pot.curvature, spacings, states, plan.spec.half_width, hop, tol=tol)
    columns = (sweep.ac_quarter, sweep.index, sweep.e_over_sqrt_c, sweep.reference)
    return [list(row) for row in zip(*columns)], spacings


def _run_sweep(plan):
    ((_, hop, pot),) = plan.solves
    rows, spacings = _sweep_rows(plan, hop, pot, plan.params["states_per_point"])
    return rows, {"c": pot.curvature, "a_values": spacings.tolist()}


def _run_fig1(plan):
    pair, ((_, quadratic, pot), (_, cosine, _)) = sorted(plan.params["nn_pair"]), plan.solves
    states = plan.params["states_per_point"]
    quad, _ = _sweep_rows(plan, quadratic, pot, states)
    cos, _ = _sweep_rows(plan, cosine, pot, max(pair) + 1)
    rows = [["quadratic", *row] for row in quad]
    rows.extend(["cosine", *row] for row in cos if row[1] in pair)
    return rows, {"states_per_point": states, "nn_pair": pair}


def _run_fig2(plan):
    # odd states have S_n = 0: only the even halves v_-j are solved; S_n = v_0 + 2 sum (-1)^j v_-j
    rows, n_cut = [], plan.params["n_cut"]
    weights = 2.0 * (-1.0) ** np.arange(plan.spec.half_width + 1)
    weights[0] = 1.0
    for _, hop, pot in plan.solves:
        index, _, half = _solve(plan, hop, pot, even_only=True)
        overlap = np.abs(weights @ half)
        rows.extend([pot.curvature, int(n), float(s)] for n, s in zip(index, overlap) if n <= n_cut)
    return rows, {"c_values": plan.params["c_values"], "n_cut": n_cut}


def _run_fig3(plan):
    spec, target = plan.spec, plan.params["target_site"]
    (_, hop, linear), (_, _, harmonic) = plan.solves

    ws = _solve(plan, hop, linear)
    centers = np.sum(spec.sites[:, None] * np.abs(ws.eigenvectors) ** 2, axis=0)
    ws_idx = int(np.argmin(np.abs(centers - target)))
    # how many ladder states lie inside depends on the solved spectrum, not on the parse
    ladder = _named(("lattice.M", "F"), wannier_stark_analysis, ws, spec, linear.force)

    # even states have mirror lobes at +-m, so match the lobe's distance from the centre; only
    # the even halves (m = 0, -1, ..., -M) are solved, reversed for the first-index tie rule
    even, _, half = _solve(plan, hop, harmonic, even_only=True)
    lobes = spec.half_width - np.argmax(np.abs(half[::-1]), axis=0)
    best = int(np.argmin(np.abs(lobes - abs(target))))
    harm = np.concatenate([half[::-1, best], half[1:, best]])  # v_m = v_-m
    rows = [
        [int(m), np.sqrt(2.0) * ws.eigenvectors[i, ws_idx].real, harm[i]]
        for i, m in enumerate(spec.sites)
    ]
    derived = {
        "ws_state_index": ws_idx,
        "ws_center": float(centers[ws_idx]),
        "ws_energy": float(ws.eigenvalues[ws_idx]),
        "harmonic_state_index": int(even[best]),
        "ladder_mean_spacing": ladder.mean_spacing,
        "ladder_max_spacing_deviation": ladder.max_spacing_deviation,
        "expected_spacing": spec.spacing * linear.force,
    }
    return rows, derived


def _run_fig4(plan):
    params, ((_, hop, pot),) = plan.params, plan.solves
    tgrid, runs = _timeseries(plan, hop, pot, [packet for _, packet in plan.packets])
    oracle = runs[params["b"].index(params["oracle_b"])]
    series = [tgrid, *(r.x_mean for r in runs), oracle.x_ccr, oracle.x_exact_oracle]
    series += [r.s_abs for r in runs]
    derived = {
        "bloch_period": plan.period,
        "oracle_b": params["oracle_b"],
        "boundary_max": max(r.boundary_max for r in runs),
    }
    return np.column_stack(series).tolist(), derived


def _run_fig5(plan):
    spec, ((_, quad, pot), (_, cos, _)) = plan.spec, plan.solves
    *packets, nn_packet = [packet for _, packet in plan.packets]
    tgrid, runs = _timeseries(plan, quad, pot, packets)
    _, (nn,) = _timeseries(plan, cos, pot, [nn_packet])
    root = np.sqrt(pot.curvature)
    series = [tgrid, root * tgrid, *(r.x_mean for r in runs), runs[0].x_ccr, nn.x_mean]
    derived = {
        "threshold_estimate": threshold_estimate(spec.spacing, pot.curvature),
        "period": plan.period,
        "boundary_max": max(r.boundary_max for r in [*runs, nn]),
    }
    return np.column_stack(series).tolist(), derived


def _run_dynamics(plan):
    ((_, hop, pot),), ((_, packet),) = plan.solves, plan.packets
    tgrid, (ts,) = _timeseries(plan, hop, pot, [packet])
    nan = np.full(len(tgrid), np.nan)
    x_ccr = nan if ts.x_ccr is None else ts.x_ccr
    x_exact = nan if ts.x_exact_oracle is None else ts.x_exact_oracle
    series = [tgrid, ts.x_mean, ts.k_mean, ts.s_abs, ts.norm, x_ccr, x_exact]
    derived = {"boundary_max": ts.boundary_max}
    if pot.kind == "linear" and plan.period:
        derived["bloch_period"] = plan.period
    if pot.kind == "harmonic":
        derived["threshold_estimate"] = threshold_estimate(plan.spec.spacing, pot.curvature)
    return np.column_stack(series).tolist(), derived


def _run_ccr_check(plan):
    ((_, packet),) = plan.packets
    result = ccr_defect(make_gaussian(plan.spec, packet), plan.spec, plan.params["margin"])
    rows = []
    for m, defect in zip(result.sites, result.profile):
        ratio = defect / (-1j * (-1.0) ** abs(int(m)))
        rows.append([int(m), defect.real, defect.imag, ratio.real, ratio.imag])
    derived = {
        "s_abs": abs(result.overlap),
        "max_defect": result.max_defect,
        "truncation_tail": result.tail,
    }
    return rows, derived


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
    and filled in as the run goes; the dataset's directory is made first, and the
    runner executes the plan _plan rebuilds from the resolved config. Returns
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
            plan = _plan(cfg.experiment, cfg.params)
            rows, manifest.derived = _RUNNERS[cfg.experiment](plan)
            emit_dataset(rows, plan.columns, path, out["format"])
            manifest.dataset = out["path"]
        except Exception as err:
            err.manifest = manifest
            raise
        finally:
            manifest.warnings = [str(w.message) for w in wrec]
            manifest.timestamp["wall_time_s"] = round(time.perf_counter() - clock, 3)
    manifest.write(out_dir)
    return plan.columns, rows, manifest
