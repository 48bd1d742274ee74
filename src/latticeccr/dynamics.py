"""Wave-packet time evolution and closed-form trajectory oracles.

Propagation is spectral (expand in the precomputed eigenbasis, advance the
phases), so unitarity is exact to rounding and no integrator error enters
the comparisons between exact dynamics and the trajectories predicted by
assuming the canonical commutation relation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import LeakageError, ToleranceError
from .lattice import Hopping, LatticeSpec, Potential, StateVector, build_quasi_momentum, expectation
from .spectral import SpectrumResult

LEAK_WARN = 1e-10
LEAK_FAIL = 1e-6
CHUNK = 128  # grid times per evolution block: memory O(N * CHUNK), not O(N * len(grid))
# _evolve's blocks hold _UNIT psi. A power of two changes no rounding unless a value under-
# or overflows, so each observable is bit-identical to the plain one, while the Bessel tails
# of cosine hopping (below 2^-1022) stay normal floats off the slow subnormal path. Nothing
# overflows: at LatticeSpec's extremes |x| <= 2^512 * 2^30, ||S|| <= pi/a < 2^514 and
# sum |_UNIT psi|^2 = 2^256, so every product and sum stays below 2^800.
_UNIT = 2.0**128


@dataclass(frozen=True)
class GaussianPacket:
    """Initial Gaussian wave packet exp(-falloff (m - center)^2) e^{i k0 a m}.

    falloff is the dimensionless exponent coefficient in the site index
    (larger = narrower packet); k0 is an optional quasi-momentum kick.
    """

    center_site: int
    falloff: float
    k0: float = 0.0

    def __post_init__(self):
        if not self.falloff > 0:
            raise ValueError(f"falloff must be positive, got {self.falloff}")


@dataclass(frozen=True)
class TimeSeries:
    """Sampled observables of one propagation run.

    x_ccr holds the CCR prediction for the Hamiltonian (None unless the
    potential is harmonic or linear); x_exact_oracle holds the closed-form
    Heisenberg solution, recorded for every linear potential. boundary_max
    records the largest boundary-site amplitude seen, the truncation-honesty
    figure of merit.
    """

    times: np.ndarray
    x_mean: np.ndarray
    k_mean: np.ndarray
    s_abs: np.ndarray
    norm: np.ndarray
    x_ccr: np.ndarray | None
    x_exact_oracle: np.ndarray | None
    boundary_max: float


def make_gaussian(spec: LatticeSpec, packet: GaussianPacket) -> StateVector:
    """Normalized Gaussian packet on the window; the center must lie inside it."""
    m = spec.half_width
    if abs(packet.center_site) >= m:
        raise ValueError(f"packet center {packet.center_site} outside window |m| < {m}")
    sites = spec.sites
    amp = np.exp(-packet.falloff * (sites - packet.center_site) ** 2.0).astype(complex)
    amp *= np.exp(1j * packet.k0 * spec.spacing * sites)
    return StateVector(amp).normalize()


def _evolve(psi0: StateVector, sr: SpectrumResult, times: np.ndarray):
    """Yield (start, block) over chunks of at most CHUNK times, where
    block[:, j] holds _UNIT times the amplitudes of psi0 at times[start + j].

    psi0 is expanded in the eigenbasis of its Hamiltonian once; each block is
    then one GEMM V @ (exp(-i E t) * coeff), a real one on the interleaved
    real and imaginary parts when the eigenvectors V are real.
    """
    if len(psi0.amplitudes) != sr.dimension:
        raise ValueError("state dimension does not match the spectrum")
    vecs = sr.eigenvectors
    coeff = vecs.conj().T @ psi0.amplitudes
    coeff *= _UNIT
    for start in range(0, len(times), CHUNK):
        phased = -1j * np.outer(sr.eigenvalues, times[start : start + CHUNK])
        np.exp(phased, out=phased)
        phased *= coeff[:, None]
        if np.iscomplexobj(vecs):
            yield start, vecs @ phased
        else:
            yield start, (vecs @ phased.view(np.float64)).view(complex)


def propagate(psi0: StateVector, sr: SpectrumResult, t: float) -> StateVector:
    """Evolve a state to time t in the eigenbasis of its Hamiltonian."""
    ((_, block),) = _evolve(psi0, sr, np.array([t], dtype=float))
    return StateVector(block[:, 0] / _UNIT, normalized=psi0.normalized)


def exact_position_linear(
    psi0: StateVector,
    spec: LatticeSpec,
    hop: Hopping,
    force: float,
    t,
) -> float | np.ndarray:
    """Closed-form <x(t)> for kinetic hopping plus a linear potential.

    The Heisenberg solution follows from [x, T_n] = a n T_n and
    [T_n, H] = a n F T_n:

        x(t) = x - sum_{n>0} [ t_n T_n (e^{-i a n F t} - 1)/F + h.c. ],

    with t_n the hopping amplitudes (the coefficient of T_n in H is -t_n).
    Manifestly periodic with the Bloch period 2 pi/(a F); at F = 0 the
    bracket takes its limit -i a n t, which is free motion.
    """
    a = spec.spacing
    _, amps = hop.terms(spec)
    amp = psi0.amplitudes
    n = np.arange(1, len(amps) + 1)
    t_exp = np.correlate(amp, amp, "full")[len(amp) - 1 - n]  # <T_n> = sum_m conj(psi_{m+n}) psi_m
    x0 = np.real(expectation(psi0, spec.positions))
    weights = amps * t_exp
    times = np.atleast_1d(np.asarray(t, dtype=float))
    series = np.empty(len(times))
    # The len(t) x R bracket is built in blocks of CHUNK rows, memory O(CHUNK * R).
    # A last block under CHUNK/2 rows joins the one before it: with R = 1 numpy
    # multiplies very short arrays in a scalar loop that rounds differently, and
    # the series stays bit-identical to the bracket built in one piece.
    edges = [*range(0, max(len(times) - CHUNK // 2, 1), CHUNK), len(times)]
    for start, stop in zip(edges, edges[1:]):
        # -i a n F t, or at F = 0 the bracket's limit -i a n t; updated in place
        bracket = -1j * a * (force or 1.0) * np.outer(times[start:stop], n)
        if force:
            np.exp(bracket, out=bracket)
            bracket -= 1.0
        bracket *= weights
        series[start:stop] = 2.0 * np.real(bracket).sum(axis=1)
    out = x0 - (series / force if force else series)
    return out if np.ndim(t) else float(out[0])


def ccr_position_linear(x0: float, k0: float, force: float, t):
    """Free-acceleration parabola x0 + k0 t + F t^2/2 that the CCR implies
    for the initial moments x0 = <x>, k0 = <k>."""
    t_arr = np.asarray(t, dtype=float)
    out = x0 + k0 * t_arr + force * t_arr**2 / 2
    return out if np.ndim(t) else float(out)


def ccr_position_harmonic(x0: float, k0: float, curvature: float, t):
    """Harmonic CCR trajectory x0 cos(sqrt(c) t) + (k0/sqrt(c)) sin(sqrt(c) t)
    for the initial moments x0 = <x>, k0 = <k>."""
    if curvature <= 0:
        raise ValueError("curvature must be positive")
    w = np.sqrt(curvature)
    t_arr = np.asarray(t, dtype=float)
    out = x0 * np.cos(w * t_arr) + (k0 / w) * np.sin(w * t_arr)
    return out if np.ndim(t) else float(out)


def run_timeseries(
    spec: LatticeSpec,
    hop: Hopping,
    pot: Potential,
    packet: GaussianPacket,
    t_grid,
    sr: SpectrumResult,
    leak_warn: float = LEAK_WARN,
    leak_fail: float = LEAK_FAIL,
) -> TimeSeries:
    """Propagate a Gaussian packet in the spectrum sr of the Hamiltonian
    (hop, pot) and record observables at each grid time.

    x_ccr is the CCR prediction for that Hamiltonian: ccr_position_harmonic
    for a harmonic potential; for a linear one x_exact_oracle, the
    closed-form Heisenberg solution, with cosine hopping (whose CCR
    trajectory is exact) and ccr_position_linear with any other; None
    otherwise. Boundary amplitude above leak_warn, initially or during the
    run, issues a warning; above leak_fail the run aborts with LeakageError.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValueError("t_grid must be a non-empty 1-D array")
    if np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ValueError("t_grid must ascend from t >= 0")

    psi0 = make_gaussian(spec, packet)
    edge = max(abs(psi0.amplitudes[0]), abs(psi0.amplitudes[-1]))
    if edge > leak_warn:
        warnings.warn(
            f"initial packet has boundary amplitude {edge:.2e} > {leak_warn:.0e}", stacklevel=2
        )
    x = spec.positions
    kop = build_quasi_momentum(spec).matrix
    x0, k0 = expectation(psi0, x).real, expectation(psi0, kop).real
    # kop = i S with S real antisymmetric, so <k> = -2 u.(S v) for amplitudes u + i v
    s_mat = np.ascontiguousarray(kop.imag)
    del kop

    x_mean = np.empty(len(t_grid))
    k_mean = np.empty(len(t_grid))
    s_abs = np.empty(len(t_grid))
    norm = np.empty(len(t_grid))
    boundary = 0.0
    half = spec.half_width
    signs = (-1.0) ** np.abs(spec.sites)
    for start, block in _evolve(psi0, sr, t_grid):  # block = _UNIT psi: scale each sum back
        stop = start + block.shape[1]
        parts = block.view(np.float64)
        u, v = parts[:, 0::2], np.ascontiguousarray(parts[:, 1::2])  # BLAS needs unit stride
        prob = u * u + v * v
        x_mean[start:stop] = x @ prob / _UNIT**2
        k_mean[start:stop] = -2.0 * (u * (s_mat @ v)).sum(axis=0) / _UNIT**2
        s_abs[start:stop] = np.abs((signs @ parts).view(complex)) / _UNIT
        norm[start:stop] = np.sqrt(prob.sum(axis=0)) / _UNIT
        edge = np.maximum(np.abs(block[0]), np.abs(block[-1])) / _UNIT
        drift = np.abs(norm[start:stop] - 1.0) > 1e-10
        leak = edge > leak_fail
        bad = np.flatnonzero(drift | leak)
        if len(bad):
            i = bad[0]
            t = t_grid[start + i]
            if drift[i]:
                raise ToleranceError(f"norm drifted to {norm[start + i]:.12f} at t = {t:g}")
            raise LeakageError(
                f"boundary amplitude {edge[i]:.2e} at t = {t:g} exceeds {leak_fail:.0e} "
                f"(window half_width {half} too small)"
            )
        boundary = max(boundary, edge.max())
    if boundary > leak_warn:
        warnings.warn(
            f"boundary amplitude reached {boundary:.2e} > {leak_warn:.0e}", stacklevel=2
        )

    x_ccr = x_exact = None
    if pot.kind == "harmonic":
        x_ccr = ccr_position_harmonic(x0, k0, pot.curvature, t_grid)
    elif pot.kind == "linear":
        x_exact = exact_position_linear(psi0, spec, hop, pot.force, t_grid)
        x_ccr = x_exact if hop.kind == "cosine" else ccr_position_linear(x0, k0, pot.force, t_grid)

    return TimeSeries(
        times=t_grid,
        x_mean=x_mean,
        k_mean=k_mean,
        s_abs=s_abs,
        norm=norm,
        x_ccr=x_ccr,
        x_exact_oracle=x_exact,
        boundary_max=boundary,
    )
