"""Wave-packet time evolution and closed-form trajectory oracles.

Propagation is spectral (expand in the precomputed eigenbasis, advance the
phases), so unitarity is exact to rounding and no integrator error enters
the comparisons between exact dynamics and the trajectories predicted by
assuming the canonical commutation relation.

Packets that share an eigenbasis propagate together: the quasi-momentum is
built once, each chunk of CHUNK times gets its exp(-i E t) block once, and
each packet in turn multiplies it by its coefficients, takes one GEMM and
reduces its block to the observables, so one packet's amplitudes are held at
a time. Every packet's observables, warnings and errors are bit for bit
those of run_timeseries on it alone, the packets taken in order.

The phases come from the time grid's structure. On a grid t_k = k dt (the
CLI's) of more than CHUNK times, e^{-iE(t_s + tau)} = e^{-iE t_s} e^{-iE tau}:
the block exp(-i E tau) at the first chunk's times is made once per run, and
each chunk takes only its column exp(-i E t_s), N exps instead of N * CHUNK;
exact_position_linear sums its bracket the same way, one GEMV per chunk. The
product differs from the direct exp(-i E t) by O(eps (1 + |E| t)), the direct
form's own bound. On any other grid, on one of at most CHUNK times and for
propagate's single time, the phases are the direct ones, bit for bit.
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


def _coefficients(states, sr: SpectrumResult) -> list:
    """_UNIT times each state's coefficients in the eigenbasis of sr."""
    back = sr.eigenvectors.conj().T
    coeffs = []
    for psi in states:
        if len(psi.amplitudes) != sr.dimension:
            raise ValueError("state dimension does not match the spectrum")
        coeff = back @ psi.amplitudes
        coeff *= _UNIT
        coeffs.append(coeff)
    return coeffs


def _factored(times: np.ndarray) -> bool:
    """Whether times is the grid k * dt of more than CHUNK points, on which each chunk's
    phases factor into the first chunk's block and one column per chunk."""
    return len(times) > CHUNK and np.array_equal(times, np.arange(len(times)) * times[1])


def _phases(sr: SpectrumResult, times: np.ndarray):
    """Yield (start, block, column) over chunks of at most CHUNK times, the chunk's
    exp(-i E t) being block * column[:, None]: row j for eigenvalue j, column i for
    times[start + i]. On a _factored grid block is exp(-i E tau) at the first chunk's
    times tau, made once and shared, and column is exp(-i E t_start); on any other grid
    block is the chunk's direct exp(-i E t) and column is None."""
    energies = sr.eigenvalues
    factored = _factored(times)
    for start in range(0, len(times), CHUNK):
        if not (start and factored):
            block = -1j * np.outer(energies, times[start : start + CHUNK])
            np.exp(block, out=block)
        column = np.exp(-1j * (energies * times[start])) if factored else None
        yield start, block[:, : len(times) - start], column


def _block(vecs: np.ndarray, phases: np.ndarray, column, coeff: np.ndarray, last: bool):
    """_UNIT psi at a chunk's times, from its _phases block and column and _coefficients:
    one GEMM V @ (block * (coeff * column)), a real one on the interleaved real and
    imaginary parts when the eigenvectors V are real. A shared block (with a column) is
    multiplied out of place; without one, with last, phases itself takes the product:
    the chunk's last packet needs no copy of it."""
    scale = coeff if column is None else coeff * column
    phased = np.multiply(phases, scale[:, None], out=phases if last and column is None else None)
    if np.iscomplexobj(vecs):
        return vecs @ phased
    return (vecs @ phased.view(np.float64)).view(complex)


def _observables(block: np.ndarray, x: np.ndarray, s_mat: np.ndarray, signs: np.ndarray):
    """<x>, <k>, |S|, the norm and the larger boundary amplitude at each time of a block
    of _UNIT psi, each sum scaled back; s_mat is S of the quasi-momentum k = i S."""
    parts = block.view(np.float64)
    u, v = parts[:, 0::2], np.ascontiguousarray(parts[:, 1::2])  # BLAS needs unit stride
    prob = u * u + v * v
    return (
        x @ prob / _UNIT**2,
        -2.0 * (u * (s_mat @ v)).sum(axis=0) / _UNIT**2,  # <k> = -2 u.(S v) for psi = u + i v
        np.abs((signs @ parts).view(complex)) / _UNIT,
        np.sqrt(prob.sum(axis=0)) / _UNIT,
        np.maximum(np.abs(block[0]), np.abs(block[-1])) / _UNIT,
    )


def propagate(psi0: StateVector, sr: SpectrumResult, t: float) -> StateVector:
    """Evolve a state to time t in the eigenbasis of its Hamiltonian."""
    (coeff,) = _coefficients([psi0], sr)
    ((_, phases, column),) = _phases(sr, np.array([t], dtype=float))
    block = _block(sr.eigenvectors, phases, column, coeff, last=True)
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
    if force and _factored(times):
        # The offset form: at t_s + tau the bracket's sum is the first chunk's block
        # e^{-i a n F tau} times the chunk's column weights * e^{-i a n F t_s}, minus the
        # weights' sum: one GEMV per chunk, each over all CHUNK rows (numpy sums a one-row
        # product by another kernel), so the series is that of the chunks' products whole.
        block = np.exp(-1j * a * force * np.outer(times[:CHUNK], n))
        total = weights.sum()
        for start in range(0, len(times), CHUNK):
            column = weights * np.exp(-1j * a * force * times[start] * n)
            sums = (block @ column)[: len(times) - start]
            series[start : start + CHUNK] = 2.0 * (sums - total).real
        return x0 - series / force
    # Otherwise the len(t) x R bracket is built in blocks of CHUNK rows, memory O(CHUNK * R).
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
    (run,) = _run_packets(spec, hop, pot, [packet], t_grid, sr, leak_warn, leak_fail)
    return run


def _run_packets(spec, hop, pot, packets, t_grid, sr, leak_warn, leak_fail, oracle=0) -> list:
    """run_timeseries of each packet in turn, as one propagation in the spectrum sr: one
    quasi-momentum build, each chunk's exp(-i E t) block made once and taken by every
    packet, and one packet's amplitudes held at a time. Only the packet at index oracle
    (None: none) gets x_ccr and x_exact_oracle.

    Warnings and errors come as from the packets run one by one: each packet's warnings
    in config order up to the first packet that fails, then that packet's error; a packet
    after it is not propagated further.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValueError("t_grid must be a non-empty 1-D array")
    if np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ValueError("t_grid must ascend from t >= 0")

    psis, failure = [], None  # failure: (index of the first packet that fails, its error)
    for i, packet in enumerate(packets):
        try:
            psis.append(make_gaussian(spec, packet))
        except ValueError as err:
            failure = i, err
            break
    x = spec.positions
    kop = build_quasi_momentum(spec).matrix
    if oracle is not None and oracle < len(psis):
        x0, k0 = expectation(psis[oracle], x).real, expectation(psis[oracle], kop).real
    s_mat = np.ascontiguousarray(kop.imag)  # kop = i S, S real antisymmetric
    del kop
    try:
        coeffs = _coefficients(psis, sr)
    except ValueError as err:  # every packet has the window's dimension: the first fails
        coeffs, failure = [], (0, err)

    series = np.empty((4, len(psis), len(t_grid)))  # x_mean, k_mean, s_abs and norm
    x_mean, k_mean, s_abs, norm = series
    boundary = [0.0] * len(psis)
    half = spec.half_width
    signs = (-1.0) ** np.abs(spec.sites)
    vecs, live = sr.eigenvectors, len(coeffs)  # packets live < first failure propagate on
    for start, phases, column in _phases(sr, t_grid) if live else ():
        for i in range(live):  # one packet's block at a time, freed as _observables returns
            last = i + 1 == live  # the chunk's last packet may phase the block in place
            *values, edge = _observables(
                _block(vecs, phases, column, coeffs[i], last), x, s_mat, signs
            )
            stop = start + len(edge)
            series[:, i, start:stop] = values
            drift = np.abs(norm[i, start:stop] - 1.0) > 1e-10
            leak = edge > leak_fail
            bad = np.flatnonzero(drift | leak)
            if len(bad):
                j = bad[0]
                t = t_grid[start + j]
                if drift[j]:
                    err = ToleranceError(f"norm drifted to {norm[i, start + j]:.12f} at t = {t:g}")
                else:
                    err = LeakageError(
                        f"boundary amplitude {edge[j]:.2e} at t = {t:g} exceeds "
                        f"{leak_fail:.0e} (window half_width {half} too small)"
                    )
                failure, live = (i, err), i
                break
            boundary[i] = max(boundary[i], edge.max())
        if not live:
            break

    runs = []
    for i, psi0 in enumerate(psis):
        edge = max(abs(psi0.amplitudes[0]), abs(psi0.amplitudes[-1]))
        if edge > leak_warn:
            warnings.warn(
                f"initial packet has boundary amplitude {edge:.2e} > {leak_warn:.0e}",
                stacklevel=3,
            )
        if failure and failure[0] == i:
            break
        if boundary[i] > leak_warn:
            warnings.warn(
                f"boundary amplitude reached {boundary[i]:.2e} > {leak_warn:.0e}", stacklevel=3
            )
        x_ccr = x_exact = None
        if i == oracle and pot.kind == "harmonic":
            x_ccr = ccr_position_harmonic(x0, k0, pot.curvature, t_grid)
        elif i == oracle and pot.kind == "linear":
            x_exact = exact_position_linear(psi0, spec, hop, pot.force, t_grid)
            cosine = hop.kind == "cosine"
            x_ccr = x_exact if cosine else ccr_position_linear(x0, k0, pot.force, t_grid)
        runs.append(
            TimeSeries(
                times=t_grid,
                x_mean=x_mean[i],
                k_mean=k_mean[i],
                s_abs=s_abs[i],
                norm=norm[i],
                x_ccr=x_ccr,
                x_exact_oracle=x_exact,
                boundary_max=boundary[i],
            )
        )
    if failure:
        raise failure[1]
    return runs
