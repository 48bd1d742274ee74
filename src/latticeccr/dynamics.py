"""Wave-packet time evolution and closed-form trajectory oracles.

Propagation is spectral (expand in the precomputed eigenbasis, advance the
phases), so unitarity is exact to rounding and no integrator error enters
the comparisons between exact dynamics and the trajectories predicted by
assuming the canonical commutation relation.

Packets that share an eigenbasis propagate one at a time, in order: each
packet's chunks of CHUNK times are phased, multiplied by its coefficients and
reduced to the observables, so one packet's amplitudes are held at a time, and
each packet warns and fails as it runs, as run_timeseries on [packet] alone.
Each packet then gets its own CCR model and Heisenberg oracle from its own
initial moments, so its record does not depend on the other packets or its
place among them.

Propagation works through the site reflection m -> -m. The quasi-momentum
k = i S is antisymmetric Toeplitz and maps reflection-even vectors to odd ones,
so <k> needs only the real c x (c + 1) block M that takes the even halves
psi[c:] + psi[c::-1] to the odd ones (c = half_width), built from the 1-D
kernel: one GEMM of half the rows and columns of S psi, for every run, and no
N x N quasi-momentum matrix. When eigensolve split the Hamiltonian by parity, its
SpectrumResult carries the blocks' vectors on half the window, and the amplitudes
are two half-size GEMMs, E of the even columns and L of the odd ones, filled in as
psi_{-i} = E_i + L_i and psi_{+i} = E_i - L_i; any other spectrum, a hand-built one
too, takes the full basis, and every other observable is the same reduction of the
full block. propagate keeps the full-basis product as the per-time reference.

The phases follow one rule on every time grid: in a chunk whose first time
is t_s (0 for the first chunk), e^{-iEt} is the block exp(-i E (t - t_s))
times the column exp(-i E t_s), so the first chunk's phases, and propagate's
single time, are the direct exp(-i E t). On a grid t_k = k dt (the CLI's)
every chunk's block equals the first chunk's, so each later chunk takes only its
column, N exps instead of N * CHUNK. That block, like the one block of a grid of at
most CHUNK times, is made once per call of run_timeseries and shared by its packets.
_phases is the one generator of these phases: run_timeseries and propagate evolve
eigenstates through it, and the Heisenberg oracle exact_position_linear its modes
e^{-i a n F t}, as _phases(a F n, t), one GEMV per chunk.
The product differs from the direct exp(-i E t) by O(eps (1 + |E| t)), the
direct form's own bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import LeakageError, ToleranceError
from .lattice import (
    Hopping,
    LatticeSpec,
    Potential,
    StateVector,
    _phase_kernel,
    expectation,
)
from .spectral import SpectrumResult

LEAK_WARN = 1e-10
LEAK_FAIL = 1e-6
CHUNK = 128  # grid times per evolution block: memory O(N * CHUNK), not O(N * len(grid))
# run_timeseries' blocks hold _UNIT psi. A power of two changes no rounding unless a value under-
# or overflows, so each observable is bit-identical to the plain one, while the Bessel tails
# of cosine hopping (below 2^-1022) stay normal floats off the slow subnormal path. Nothing
# overflows: at LatticeSpec's extremes |x| <= 2^512 * 2^30, ||S|| <= pi/a < 2^514, the
# reflection block |M| <= 2 ||S||, the halves |psi_i +- psi_-i| <= 2 |psi| and
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

    x_ccr holds the CCR prediction for the Hamiltonian from this packet's
    initial <x> and <k> (None unless the potential is harmonic or linear);
    x_exact_oracle holds this packet's closed-form Heisenberg solution, recorded
    for every linear potential. boundary_max records the largest boundary-site
    amplitude seen, the truncation-honesty figure of merit.
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


def _coefficients(psi: StateVector, sr: SpectrumResult) -> np.ndarray:
    """_UNIT times the state's coefficients in the eigenbasis of sr: for real eigenvectors V
    one real GEMM V^T [Re psi, Im psi], with no complex copy of V."""
    if len(psi.amplitudes) != sr.dimension:
        raise ValueError("state dimension does not match the spectrum")
    vecs = sr.eigenvectors
    if np.iscomplexobj(vecs):
        coeff = vecs.conj().T @ psi.amplitudes
    else:
        coeff = (vecs.T @ psi.amplitudes.view(np.float64).reshape(-1, 2)).view(complex)[:, 0]
    coeff *= _UNIT
    return coeff


def _one_block(times: np.ndarray) -> bool:
    """Whether every chunk of times takes the first chunk's _phases block: a grid k * dt,
    or one of at most CHUNK times."""
    return len(times) <= CHUNK or np.array_equal(times, np.arange(len(times)) * times[1])


def _phases(energies: np.ndarray, times: np.ndarray, block: np.ndarray | None = None):
    """Yield (start, block, column) over chunks of at most CHUNK times, the chunk's
    exp(-i E t) being block * column[:, None]: row j for energies[j], column i for
    times[start + i]. With t_s the chunk's first time (0 for the first chunk), block is
    exp(-i E (t - t_s)) and column exp(-i E t_s); where _one_block(times) every chunk's
    block is the first chunk's, made once and shared. A block given is the first chunk's,
    made by the caller."""
    shared = _one_block(times)
    for start in range(0, len(times), CHUNK):
        origin = times[start] if start else 0.0
        if block is None or (start and not shared):
            block = -1j * np.outer(energies, times[start : start + CHUNK] - origin)
            np.exp(block, out=block)
        yield start, block[:, : len(times) - start], np.exp(-1j * (energies * origin))


def _block(vecs: np.ndarray, phases: np.ndarray, column: np.ndarray, coeff: np.ndarray):
    """_UNIT psi at a chunk's times, from its _phases block and column and _coefficients:
    one GEMM V @ (block * (coeff * column)), a real one on the interleaved real and
    imaginary parts when the eigenvectors V are real. A shared block is kept: the product
    is made out of place."""
    phased = phases * (coeff * column)[:, None]
    if np.iscomplexobj(vecs):
        return vecs @ phased
    return (vecs @ phased.view(np.float64)).view(complex)


def _split_block(halves: tuple, phases: np.ndarray, column: np.ndarray, coeff: np.ndarray):
    """_block on a spectrum's parity halves (SpectrumResult._halves), with coeff and the
    phases' rows in their order: two half-size real GEMMs, E of the even columns' values at
    m = 0, -1, ..., -c and L of the odd columns' at m = -1, ..., -c, times their phased
    coefficients, fill the block as psi_{-i} = E_i + L_i and psi_{+i} = E_i - L_i
    (psi_0 = E_0), an even column taking equal values at +-m and an odd one opposite ones.
    E is made in the block's rows c.., so L is the one temporary."""
    (even, odd), phased = halves, (phases * (coeff * column)[:, None]).view(np.float64)
    c = len(odd)
    block = np.empty((2 * c + 1, phased.shape[1] // 2), dtype=complex)
    parts = block.view(np.float64)
    np.matmul(even, phased[: even.shape[1]], out=parts[c:])
    left = odd @ phased[even.shape[1] :]
    np.add(parts[c + 1 :], left, out=parts[c - 1 :: -1])
    parts[c + 1 :] -= left
    return block


def _reflection_block(spec: LatticeSpec) -> np.ndarray:
    """The real c x (c + 1) block M[i - 1, j] = s(i - j) + s(i + j), i = 1..c, j = 0..c,
    with column 0 s(i), of the quasi-momentum k = i S, S[m, n] = s(m - n) antisymmetric
    Toeplitz: (S e)_i = (M pe)_i / 2 for i > 0 and the even vector e of halves pe
    (_momentum). Two sliding windows of the kernel s, so no N x N or c x c index array."""
    c = spec.half_width
    s = (_phase_kernel(spec) / spec.spacing).imag  # s(d) at index d + 2c
    windows = np.lib.stride_tricks.sliding_window_view
    hankel = windows(s, c + 1)[2 * c + 1 :]  # row i - 1: s(i + j)
    block = windows(s[::-1], c + 1)[2 * c - 1 : c - 1 : -1] + hankel  # s(i - j) + s(i + j)
    block[:, 0] = hankel[:, 0]
    return block


def _momentum(block: np.ndarray, m: np.ndarray) -> np.ndarray:
    """<k> times the squared norm at each column of a block of amplitudes psi, through its
    reflection halves pe = psi[c:] + psi[c::-1] and po = psi[c + 1:] - psi[c - 1::-1]:
    <k> = -Im sum conj(po) (M pe), M the _reflection_block, since S maps even vectors to odd
    ones. One real GEMM of half the rows and columns of S psi."""
    c = len(m)
    even = (block[c:] + block[c::-1]).view(np.float64)
    odd = (block[c + 1 :] - block[c - 1 :: -1]).view(np.float64)
    mixed = m @ even
    return (odd[:, 1::2] * mixed[:, 0::2] - odd[:, 0::2] * mixed[:, 1::2]).sum(axis=0)


def _observables(block: np.ndarray, x: np.ndarray, m: np.ndarray, signs: np.ndarray):
    """<x>, <k>, |S|, the norm and the larger boundary amplitude at each time of a block
    of _UNIT psi, each sum scaled back; m is the _reflection_block of <k>."""
    parts = block.view(np.float64)
    u, v = parts[:, 0::2], parts[:, 1::2]
    prob = u * u + v * v
    return (
        x @ prob / _UNIT**2,
        _momentum(block, m) / _UNIT**2,
        np.abs((signs @ parts).view(complex)) / _UNIT,
        np.sqrt(prob.sum(axis=0)) / _UNIT,
        np.maximum(np.abs(block[0]), np.abs(block[-1])) / _UNIT,
    )


def propagate(psi0: StateVector, sr: SpectrumResult, t: float) -> StateVector:
    """Evolve a state to time t in the eigenbasis of its Hamiltonian."""
    coeff = _coefficients(psi0, sr)
    ((_, phases, column),) = _phases(sr.eigenvalues, np.array([t], dtype=float))
    block = _block(sr.eigenvectors, phases, column, coeff)
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
    Manifestly periodic with the Bloch period 2 pi/(a F). The bracket evolves its modes
    through _phases(a F n, t), as propagation does its eigenstates: one GEMV per chunk,
    the weights t_n <T_n> times the chunk's column e^{-i a n F t_s} against its block
    e^{-i a n F (t - t_s)}, less the weights' sum. At F = 0, where every mode is 1 and
    the bracket's 1/F is undefined, it takes its limit -i a n t, which is free motion.
    """
    a = spec.spacing
    _, amps = hop.terms(spec)
    amp = psi0.amplitudes
    n = np.arange(1, len(amps) + 1)
    t_exp = np.correlate(amp, amp, "full")[len(amp) - 1 - n]  # <T_n> = sum_m conj(psi_{m+n}) psi_m
    x0 = np.real(expectation(psi0, spec.positions))
    weights = amps * t_exp
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if force:
        total, series = weights.sum(), np.empty(len(times))
        for start, block, column in _phases(a * force * n, times):
            series[start : start + CHUNK] = 2.0 * ((weights * column) @ block - total).real
        out = x0 - series / force
    else:
        out = x0 - 2.0 * times * np.real(-1j * a * n * weights).sum()
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
    packets: list[GaussianPacket],
    t_grid,
    sr: SpectrumResult,
    leak_warn: float = LEAK_WARN,
    leak_fail: float = LEAK_FAIL,
) -> list[TimeSeries]:
    """Propagate Gaussian packets in the spectrum sr of the Hamiltonian (hop, pot) and
    record each one's observables at each grid time: one TimeSeries per packet, in order.

    The packets share one reflection block of the quasi-momentum, for a spectrum that
    eigensolve split by parity its two half-size eigenvector blocks, and on a grid whose
    chunks all take the first chunk's phase block that block (see the module docstring);
    then they propagate one at a time, so one packet's amplitudes are held at a time, and
    each TimeSeries is that of the packet run alone. Each packet's x_ccr is
    the CCR prediction for the Hamiltonian from the packet's own <x> and <k> at t = 0:
    ccr_position_harmonic for a harmonic potential; for a linear one x_exact_oracle, the
    packet's closed-form Heisenberg solution, with cosine hopping (whose CCR trajectory
    is exact) and ccr_position_linear with any other; None otherwise.
    A grid that is empty, not finite or not ascending from t >= 0 is a ValueError.

    Boundary amplitude above leak_warn, initially or during the run, issues a warning;
    above leak_fail the run aborts with LeakageError, and a norm drift above 1e-10 with
    ToleranceError. Each packet warns and fails in its turn, so warnings and errors come
    as from the packets run one by one: the first error ends the run, after the warnings
    of the packets before it, and no packet after it is propagated.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValueError("t_grid must be a non-empty 1-D array")
    if not np.isfinite(t_grid).all():
        raise ValueError(f"t_grid must be finite, got {t_grid[~np.isfinite(t_grid)][0]}")
    if np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ValueError("t_grid must ascend from t >= 0")

    x = spec.positions
    m = _reflection_block(spec)
    signs = (-1.0) ** np.abs(spec.sites)
    halves = sr._halves
    if halves is None:
        order, basis, product = slice(None), sr.eigenvectors, _block
    else:
        (order, basis), product = halves, _split_block
    energies = sr.eigenvalues[order]
    # one first chunk's block for all packets, only where every chunk takes it (_one_block):
    # elsewhere it would be held beside each later chunk's own block
    first = next(_phases(energies, t_grid))[1] if _one_block(t_grid) else None
    runs = []
    for packet in packets:
        psi0 = make_gaussian(spec, packet)
        edge = max(abs(psi0.amplitudes[0]), abs(psi0.amplitudes[-1]))
        if edge > leak_warn:
            warnings.warn(
                f"initial packet has boundary amplitude {edge:.2e} > {leak_warn:.0e}",
                stacklevel=2,
            )
        coeff = _coefficients(psi0, sr)[order]
        x_mean, k_mean, s_abs, norm = series = np.empty((4, len(t_grid)))
        boundary = 0.0
        for start, phases, column in _phases(energies, t_grid, first):
            # one chunk's amplitudes at a time, freed as _observables returns
            *values, edge = _observables(product(basis, phases, column, coeff), x, m, signs)
            stop = start + len(edge)
            series[:, start:stop] = values
            drift = np.abs(norm[start:stop] - 1.0) > 1e-10
            bad = np.flatnonzero(drift | (edge > leak_fail))
            if len(bad):
                j = bad[0]
                t = t_grid[start + j]
                if drift[j]:
                    raise ToleranceError(f"norm drifted to {norm[start + j]:.12f} at t = {t:g}")
                raise LeakageError(
                    f"boundary amplitude {edge[j]:.2e} at t = {t:g} exceeds "
                    f"{leak_fail:.0e} (window half_width {spec.half_width} too small)"
                )
            boundary = max(boundary, edge.max())
        del phases, column  # a chunk's own block is not held across the next packet's start
        if boundary > leak_warn:
            warnings.warn(
                f"boundary amplitude reached {boundary:.2e} > {leak_warn:.0e}", stacklevel=2
            )
        x_ccr = x_exact = None
        if pot.kind in ("harmonic", "linear"):  # the packet's <x> and <k>, as _observables'
            x0, k0 = expectation(psi0, x).real, _momentum(psi0.amplitudes[:, None], m)[0]
        if pot.kind == "harmonic":
            x_ccr = ccr_position_harmonic(x0, k0, pot.curvature, t_grid)
        elif pot.kind == "linear":
            x_exact = exact_position_linear(psi0, spec, hop, pot.force, t_grid)
            cosine = hop.kind == "cosine"
            x_ccr = x_exact if cosine else ccr_position_linear(x0, k0, pot.force, t_grid)
        runs.append(
            TimeSeries(
                times=t_grid,
                x_mean=x_mean,
                k_mean=k_mean,
                s_abs=s_abs,
                norm=norm,
                x_ccr=x_ccr,
                x_exact_oracle=x_exact,
                boundary_max=boundary,
            )
        )
    return runs
