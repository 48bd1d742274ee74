"""Correctness checks on the datasets and manifests a pass wrote.

Each check reads the files back and compares them with quantities the
benchmark computes itself from closed forms (trace and Frobenius norm of
the Hamiltonian, the alternating overlap of a Gaussian) or with properties
the method must have (equidistant harmonic ladder, Wannier-Stark spacing
a F, unit norms, Bloch periodicity, agreement with the Heisenberg oracle,
harmonic motion of a release below the threshold, row counts that follow
from the config). A failed check raises CheckFailed.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# Datasets carry 12 significant digits, so these tolerances sit well above
# rounding and well below any physical effect.
SUM_RTOL = 1e-9
NORM_TOL = 1e-9
LADDER_RTOL = 0.01
OVERLAP_LOW = 1e-6
OVERLAP_HIGH = 0.05
SPACING_TOL = 1e-8
RATIO_TOL = 1e-8
ORACLE_TOL = 1e-6
# A harmonic release follows the CCR trajectory x0 cos(wt) + (k0/w) sin(wt)
# only as far as its momentum spread stays clear of the zone edge. Over three
# periods the benchmark's releases leave it by at most 1.8 % of the amplitude
# (at the corner n0 = 25, b = 0.3, |k0| = 0.3 of the seeded ranges); the
# paper-figures defaults by 3e-6 of it.
HARMONIC_RTOL = 0.025


class CheckFailed(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Dataset:
    """Columns of a written CSV or JSON dataset, as float arrays where numeric."""

    def __init__(self, path: str):
        if path.endswith(".json"):
            with open(path, encoding="ascii") as handle:
                body = json.load(handle)
            self.columns = body["columns"]
            rows = body["rows"]
        else:
            with open(path, newline="", encoding="ascii") as handle:
                reader = csv.reader(handle)
                self.columns = next(reader)
                rows = list(reader)
        self.rows = len(rows)
        self._raw = {c: [row[i] for row in rows] for i, c in enumerate(self.columns)}

    def __getitem__(self, column: str) -> np.ndarray:
        return np.array(self._raw[column], dtype=float)

    def text(self, column: str) -> list:
        return self._raw[column]


def _time_grid_length(time_cfg: dict) -> int:
    # The CLI samples np.arange(0, t_max + 1e-12, dt).
    return len(np.arange(0.0, time_cfg["t_max"] + 1e-12, time_cfg["dt"]))


def _threshold(a: float, c: float) -> float:
    return 3.0 / (a * a * math.sqrt(c))


def _trace_and_frobenius(cfg: dict) -> tuple[float, float]:
    """tr H and ||H||_F^2 of the quadratic-hopping Hamiltonian from its matrix
    elements: pi^2/(6 a^2) + V_m on the diagonal, (-1)^d/(a d)^2 at distance d."""
    M, a = cfg["lattice"]["M"], cfg["lattice"]["a"]
    _require(cfg["hopping"]["kind"] == "quadratic", "spectrum check covers quadratic hopping only")
    x = a * np.arange(-M, M + 1)
    pot = cfg["potential"]
    potential = {
        "harmonic": lambda: pot["c"] * x**2 / 2,
        "linear": lambda: -pot["F"] * x,
        "constant": lambda: np.full(x.shape, pot["V0"]),
    }[pot["kind"]]()
    diag = np.pi**2 / (6 * a * a) + potential
    d = np.arange(1, 2 * M + 1)
    off = 2.0 * np.sum((2 * M + 1 - d) / (a * d) ** 4)
    return float(diag.sum()), float(np.sum(diag**2) + off)


def _check_ladder(n, e_over_sqrtc, limit, what: str) -> None:
    ratio = e_over_sqrtc / (n + 0.5)
    worst = float(np.abs(ratio - 1).max(initial=0.0))
    _require(worst <= LADDER_RTOL, f"{what}: E_n/(sqrt(c)(n+1/2)) off by {worst:.3g} below {limit}")


def check_spectrum(ds: Dataset, manifest: dict) -> None:
    cfg = manifest["config"]
    M, a = cfg["lattice"]["M"], cfg["lattice"]["a"]
    _require(ds.rows == 2 * M + 1, f"spectrum has {ds.rows} rows, expected {2 * M + 1}")
    energy = ds["energy"]
    tr, frob = _trace_and_frobenius(cfg)
    _require(abs(energy.sum() - tr) <= SUM_RTOL * np.abs(energy).sum(), f"sum of eigenvalues {energy.sum()!r} != tr H {tr!r}")
    sq = float(np.sum(energy**2))
    _require(abs(sq - frob) <= SUM_RTOL * frob, f"sum of squared eigenvalues {sq!r} != ||H||_F^2 {frob!r}")
    if cfg["potential"]["kind"] == "harmonic":
        c = cfg["potential"]["c"]
        n = ds["n"]
        below = n < _threshold(a, c)
        _check_ladder(n[below], energy[below] / math.sqrt(c), "the validity threshold", "spectrum")


def _check_sweep_rows(n, e, ref, what: str) -> None:
    # dashed_ref is the threshold 3/(a^2 sqrt(c)). The ladder is checked on
    # states below a quarter of it: on coarse lattices (a c^(1/4) > 0.9) the
    # lowest states already leave the ladder by more than 1 % below it.
    low = (n + 0.5) <= ref / 4
    _check_ladder(n[low], e[low], "a quarter of the threshold", what)


def check_sweep(ds: Dataset, manifest: dict) -> None:
    cfg = manifest["config"]
    expected = cfg["grid"]["points"] * cfg["states_per_point"]
    _require(ds.rows == expected, f"sweep has {ds.rows} rows, expected {expected}")
    _check_sweep_rows(ds["n"], ds["e_over_sqrtc"], ds["dashed_ref"], "sweep")


def check_fig1(ds: Dataset, manifest: dict) -> None:
    cfg = manifest["config"]
    expected = cfg["grid"]["points"] * (cfg["states_per_point"] + len(cfg["nn_pair"]))
    _require(ds.rows == expected, f"fig1 has {ds.rows} rows, expected {expected}")
    quad = np.array([k == "quadratic" for k in ds.text("kinetic")])
    _check_sweep_rows(ds["n"][quad], ds["e_over_sqrtc"][quad], ds["dashed_ref"][quad], "fig1")


def check_fig2(ds: Dataset, manifest: dict) -> None:
    """Even states only: n_cut // 2 + 1 rows per c. |S_n| below 1e-6 for
    n <= thr/4 - 1 and above 0.05 for n >= 1.5 thr (thr = 3/(a^2 sqrt(c)))."""
    cfg = manifest["config"]
    a, n_cut = cfg["lattice"]["a"], cfg["n_cut"]
    c, n, s = ds["c"], ds["n"], ds["s_n"]
    for cv in cfg["c_values"]:
        sel = c == cv
        _require(int(sel.sum()) == n_cut // 2 + 1, f"fig2 has {int(sel.sum())} even states for c={cv}, expected {n_cut // 2 + 1}")
        _require(np.all(n[sel] % 2 == 0), f"fig2 lists an odd index as even-parity for c={cv}")
        thr = _threshold(a, cv)
        low, high = sel & (n <= thr / 4 - 1), sel & (n >= 1.5 * thr)
        _require(np.all(s[low] < OVERLAP_LOW), f"fig2 low state has |S_n| = {s[low].max(initial=0.0):.3g} for c={cv}")
        _require(np.all(s[high] > OVERLAP_HIGH), f"fig2 high state has |S_n| = {s[high].min(initial=np.inf):.3g} for c={cv}")


def check_fig3(ds: Dataset, manifest: dict) -> None:
    cfg, derived = manifest["config"], manifest["derived"]
    M, a = cfg["lattice"]["M"], cfg["lattice"]["a"]
    _require(ds.rows == 2 * M + 1, f"fig3 has {ds.rows} rows, expected {2 * M + 1}")
    for column, scale in (("ws_amp_sqrt2", 0.5), ("harmonic_amp", 1.0)):
        norm = scale * float(np.sum(ds[column] ** 2))
        _require(abs(norm - 1) <= NORM_TOL, f"fig3 column {column} has norm^2 {norm!r}")
    spacing = a * cfg["F"]
    _require(abs(derived["ladder_mean_spacing"] - spacing) <= SPACING_TOL, f"Wannier-Stark spacing {derived['ladder_mean_spacing']!r} != aF {spacing!r}")
    _require(derived["ladder_max_spacing_deviation"] <= SPACING_TOL, f"Wannier-Stark spacing deviates by {derived['ladder_max_spacing_deviation']!r}")


def check_ccr(ds: Dataset, manifest: dict) -> None:
    """The ratio column equals S = sum_m (-1)^m psi_m of the configured Gaussian."""
    cfg = manifest["config"]
    M, a = cfg["lattice"]["M"], cfg["lattice"]["a"]
    margin = cfg["margin"] if cfg["margin"] is not None else M // 4
    expected = 2 * (M - margin) + 1
    _require(ds.rows == expected, f"ccr-check has {ds.rows} rows, expected {expected}")
    pk = cfg["packet"]
    m = np.arange(-M, M + 1)
    psi = np.exp(-pk["b"] * (m - pk["n0"]) ** 2.0) * np.exp(1j * pk["k0"] * a * m)
    psi /= np.linalg.norm(psi)
    overlap = complex(np.sum((-1.0) ** np.abs(m) * psi))
    ratio = ds["ratio_re"] + 1j * ds["ratio_im"]
    worst = float(np.abs(ratio - overlap).max())
    _require(worst <= RATIO_TOL * max(1.0, abs(overlap)), f"ccr-check ratio differs from S = {overlap:.6g} by {worst:.3g}")


def _check_harmonic_release(x_mean, t, lattice: dict, packet: dict, c: float, what: str) -> None:
    """x_mean follows x0 cos(wt) + (k0/w) sin(wt), w = sqrt(c), where x0 is
    the mean position of the configured Gaussian, computed here."""
    M, a = lattice["M"], lattice["a"]
    m = np.arange(-M, M + 1)
    weight = np.exp(-2 * packet["b"] * (m - packet["n0"]) ** 2.0)
    x0 = a * float(np.sum(m * weight) / np.sum(weight))
    w, k0 = math.sqrt(c), packet["k0"]
    model = x0 * np.cos(w * t) + (k0 / w) * np.sin(w * t)
    worst = float(np.abs(x_mean - model).max())
    amplitude = math.hypot(x0, k0 / w)
    _require(worst <= HARMONIC_RTOL * amplitude, f"{what} x_mean leaves the harmonic trajectory by {worst:.3g} (amplitude {amplitude:.3g})")


def _check_time_rows(ds: Dataset, cfg: dict, what: str) -> None:
    expected = _time_grid_length(cfg["time"])
    _require(ds.rows == expected, f"{what} has {ds.rows} rows, expected {expected}")


def check_dynamics(ds: Dataset, manifest: dict) -> None:
    cfg = manifest["config"]
    _check_time_rows(ds, cfg, "dynamics")
    drift = float(np.abs(ds["norm"] - 1).max())
    _require(drift <= NORM_TOL, f"dynamics norm column drifts by {drift:.3g}")
    pot, a = cfg["potential"], cfg["lattice"]["a"]
    if pot["kind"] == "harmonic":
        _check_harmonic_release(ds["x_mean"], ds["t"], cfg["lattice"], cfg["packet"], pot["c"], "dynamics")
    if pot["kind"] != "linear":
        return
    x, exact = ds["x_mean"], ds["x_exact"]
    worst = float(np.abs(x - exact).max())
    _require(worst <= ORACLE_TOL, f"x_mean leaves the Heisenberg oracle by {worst:.3g}")
    # The benchmark's Bloch runs sample whole Bloch periods, so periodicity is testable.
    period, dt = 2 * math.pi / (a * abs(pot["F"])), cfg["time"]["dt"]
    steps = round(period / dt)
    _require(abs(steps * dt - period) <= 1e-9 * period, f"Bloch period {period!r} is not a whole number of steps {dt!r}")
    _require(len(x) > steps, f"Bloch run has {len(x)} rows, fewer than one period of {steps} steps")
    worst = float(np.abs(x[steps:] - x[:-steps]).max())
    _require(worst <= ORACLE_TOL, f"x_mean is not Bloch-periodic: off by {worst:.3g}")
    if cfg["hopping"]["kind"] == "cosine":
        worst = float(np.abs(ds["x_ccr"] - exact).max())
        _require(worst <= ORACLE_TOL, f"nearest-neighbour x_ccr leaves x_exact by {worst:.3g}")


def check_fig4(ds: Dataset, manifest: dict) -> None:
    cfg = manifest["config"]
    _check_time_rows(ds, cfg, "fig4")
    worst = float(np.abs(ds[f"x_mean_b{cfg['oracle_b']:g}"] - ds["x_exact"]).max())
    _require(worst <= ORACLE_TOL, f"fig4 x_mean leaves the Heisenberg oracle by {worst:.3g}")


def check_fig5(ds: Dataset, manifest: dict) -> None:
    """The first release (the one fig5 pairs with x_ccr) moves harmonically;
    the deeper ones are shown leaving that motion, so they are not checked."""
    cfg = manifest["config"]
    _check_time_rows(ds, cfg, "fig5")
    first = cfg["n0"][0]
    packet = {"n0": -first, "b": cfg["b"], "k0": 0.0}
    _check_harmonic_release(ds[f"x_mean_n{first}"], ds["t"], cfg["lattice"], packet, cfg["c"], "fig5")


CHECKS = {
    "spectrum": check_spectrum,
    "sweep": check_sweep,
    "dynamics": check_dynamics,
    "ccr-check": check_ccr,
    "fig1": check_fig1,
    "fig2": check_fig2,
    "fig3": check_fig3,
    "fig4": check_fig4,
    "fig5": check_fig5,
}


def check_invocation(invocation, out_dir: str) -> None:
    """Run the check that fits one invocation's outputs in out_dir."""
    with open(os.path.join(out_dir, invocation.manifest), encoding="ascii") as handle:
        manifest = json.load(handle)
    _require(manifest.get("error") is None, f"manifest reports an error: {manifest.get('error')}")
    ds = Dataset(os.path.join(out_dir, invocation.dataset))
    CHECKS[invocation.experiment](ds, manifest)
