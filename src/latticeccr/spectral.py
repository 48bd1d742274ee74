"""Dense eigensolves and spectral diagnostics for lattice Hamiltonians.

eigensolve wraps LAPACK's Hermitian decomposition behind a contract
(residual and orthonormality tolerances, deterministic eigenvector phases).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError
from .ccr import alternating_overlap
from .lattice import (
    Hopping,
    LatticeSpec,
    OperatorMatrix,
    Potential,
    StateVector,
    build_hamiltonian,
)

PARITY_TOL = 1e-8


@dataclass(frozen=True)
class SpectrumResult:
    """Full eigendecomposition: ascending eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norm: float

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)

    def state(self, index: int) -> StateVector:
        return StateVector(self.eigenvectors[:, index], normalized=True)


@dataclass(frozen=True)
class EigenstateDiagnostics:
    """Per-eigenstate parity, zone-edge overlap |S_n| and position center."""

    index: int
    parity: str  # "even" | "odd" | "none"
    overlap: float
    center: float


@dataclass(frozen=True)
class DegeneratePair:
    """Adjacent near-degenerate eigenvalues and the separation of the
    left/right localized combinations they hybridize."""

    lower: int
    upper: int
    gap: float
    center_separation: float


@dataclass(frozen=True)
class LadderReport:
    """Wannier-Stark ladder statistics over interior-localized states."""

    state_indices: np.ndarray
    centers: np.ndarray
    interior_spacings: np.ndarray
    mean_spacing: float
    max_spacing_deviation: float
    translation_residuals: np.ndarray
    interior_translation_residuals: np.ndarray


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real positive.

    Ties resolve to the first index, so output is deterministic."""
    idx = np.argmax(np.abs(vecs), axis=0)
    lead = vecs[idx, np.arange(vecs.shape[1])]
    if np.iscomplexobj(vecs):
        phases = lead / np.abs(lead)
        return vecs * phases.conj()[None, :]
    return vecs * np.sign(lead)[None, :]


def eigensolve(ham: OperatorMatrix, tol: float = 1e-10) -> SpectrumResult:
    """Full Hermitian eigendecomposition meeting the package contract.

    Eigenvalues ascending; each eigenvector's largest-magnitude component is
    made real positive so repeated runs and downstream diagnostics are
    reproducible. Raises ToleranceError if the residual or orthonormality
    check exceeds tol * max(1, |H|_max) * N.
    """
    mat = ham.matrix
    if ham.is_real:
        vals, vecs = np.linalg.eigh(mat.real if np.iscomplexobj(mat) else mat)
    else:
        vals, vecs = np.linalg.eigh(mat)
    vecs = _fix_phases(vecs)
    scale = max(1.0, float(np.abs(mat).max())) * ham.dimension
    residual = float(np.abs(mat @ vecs - vecs * vals[None, :]).max())
    orth = float(np.abs(vecs.conj().T @ vecs - np.eye(ham.dimension)).max())
    if residual > tol * scale:
        raise ToleranceError(f"eigensolve residual {residual:.3e} exceeds {tol * scale:.3e}")
    if orth > tol * scale:
        raise ToleranceError(
            f"eigenvector orthonormality defect {orth:.3e} exceeds {tol * scale:.3e}"
        )
    return SpectrumResult(eigenvalues=vals, eigenvectors=vecs, residual_norm=residual)


def diagnose_states(sr: SpectrumResult, spec: LatticeSpec) -> list[EigenstateDiagnostics]:
    """Parity, |S_n| and <x> for every eigenstate.

    When an adjacent pair lies within 1e-8 max(1, |E|_max) and both members
    fail the parity test (tolerance PARITY_TOL), the pair is re-projected
    onto its even/odd combinations before computing diagnostics
    (near-degenerate eigenvectors may come out arbitrarily mixed).
    """
    vals, vecs = sr.eigenvalues, sr.eigenvectors
    pair_gap = 1e-8 * max(1.0, float(np.abs(vals).max()))
    vecs = vecs.copy()
    reflected = vecs[::-1, :]
    even_err = np.linalg.norm(vecs - reflected, axis=0)
    odd_err = np.linalg.norm(vecs + reflected, axis=0)
    unclassified = (even_err >= PARITY_TOL) & (odd_err >= PARITY_TOL)
    j = 0
    while j < len(vals) - 1:
        if unclassified[j] and unclassified[j + 1] and vals[j + 1] - vals[j] < pair_gap:
            sym = vecs[:, j] + vecs[::-1, j]
            anti = vecs[:, j] - vecs[::-1, j]
            if np.linalg.norm(sym) < 1e-6 or np.linalg.norm(anti) < 1e-6:
                sym = vecs[:, j + 1] + vecs[::-1, j + 1]
                anti = vecs[:, j + 1] - vecs[::-1, j + 1]
            vecs[:, j] = sym / np.linalg.norm(sym)
            vecs[:, j + 1] = anti / np.linalg.norm(anti)
            even_err[j] = np.linalg.norm(vecs[:, j] - vecs[::-1, j])
            odd_err[j] = np.linalg.norm(vecs[:, j] + vecs[::-1, j])
            even_err[j + 1] = np.linalg.norm(vecs[:, j + 1] - vecs[::-1, j + 1])
            odd_err[j + 1] = np.linalg.norm(vecs[:, j + 1] + vecs[::-1, j + 1])
            j += 2
        else:
            j += 1
    x = spec.positions
    out = []
    for n in range(len(vals)):
        if even_err[n] < PARITY_TOL:
            parity = "even"
        elif odd_err[n] < PARITY_TOL:
            parity = "odd"
        else:
            parity = "none"
        state = StateVector(vecs[:, n])
        out.append(
            EigenstateDiagnostics(
                index=n,
                parity=parity,
                overlap=abs(alternating_overlap(state)),
                center=float(np.real(np.sum(x * np.abs(vecs[:, n]) ** 2))),
            )
        )
    return out


def threshold_estimate(spacing: float, curvature: float) -> float:
    """Largest quantum number with a continuum-like equidistant spectrum:
    3 / (spacing^2 sqrt(curvature))."""
    if not (spacing > 0 and curvature > 0):
        raise ValueError("spacing and curvature must be positive")
    return 3.0 / (spacing**2 * np.sqrt(curvature))


@dataclass(frozen=True)
class SweepResult:
    """Long-format table of normalized harmonic eigenvalues per lattice spacing."""

    ac_quarter: np.ndarray
    index: np.ndarray
    e_over_sqrt_c: np.ndarray
    reference: np.ndarray  # continuum-validity boundary 3/(a c^(1/4))^2


def harmonic_sweep(
    curvature: float,
    a_values,
    states_per_point: int = 20,
    half_width: int = 100,
    hopping: Hopping | None = None,
    tol: float = 1e-10,
) -> SweepResult:
    """Lowest normalized eigenvalues E_n/sqrt(c) across lattice spacings.

    Each spacing is an independent dense solve of the harmonic Hamiltonian;
    the reference column is the dashed boundary 3/(a c^(1/4))^2 below which
    the continuum ladder n + 1/2 is expected to survive.
    """
    if curvature <= 0:
        raise ValueError("curvature must be positive")
    hop = Hopping.quadratic() if hopping is None else hopping
    rows_x, rows_n, rows_e, rows_ref = [], [], [], []
    for a in a_values:
        spec = LatticeSpec(half_width, float(a))
        ham = build_hamiltonian(spec, hop, Potential.harmonic(curvature))
        vals = eigensolve(ham, tol=tol).eigenvalues[:states_per_point]
        x = float(a) * curvature**0.25
        rows_x.extend([x] * len(vals))
        rows_n.extend(range(len(vals)))
        rows_e.extend(vals / np.sqrt(curvature))
        rows_ref.extend([3.0 / x**2] * len(vals))
    return SweepResult(
        ac_quarter=np.array(rows_x),
        index=np.array(rows_n),
        e_over_sqrt_c=np.array(rows_e),
        reference=np.array(rows_ref),
    )


def degenerate_pairs(sr: SpectrumResult, spec: LatticeSpec, gap_tol: float) -> list[DegeneratePair]:
    """Adjacent eigenvalue pairs closer than gap_tol.

    Each pair is tagged with the distance between the centers of its
    left/right localized combinations (v_j +- v_{j+1})/sqrt(2)."""
    vals, vecs = sr.eigenvalues, sr.eigenvectors
    x = spec.positions
    out = []
    for j in range(len(vals) - 1):
        gap = float(vals[j + 1] - vals[j])
        if gap < gap_tol:
            plus = (vecs[:, j] + vecs[:, j + 1]) / np.sqrt(2.0)
            minus = (vecs[:, j] - vecs[:, j + 1]) / np.sqrt(2.0)
            c_plus = float(np.sum(x * np.abs(plus) ** 2))
            c_minus = float(np.sum(x * np.abs(minus) ** 2))
            out.append(DegeneratePair(j, j + 1, gap, abs(c_plus - c_minus)))
    return out


def wannier_stark_analysis(sr: SpectrumResult, spec: LatticeSpec, force: float) -> LadderReport:
    """Ladder statistics for the spectrum of kinetic - force * position.

    States whose position center lies within half_width/4 of the middle
    enter the statistics (boundary-distorted states are excluded);
    consecutive spacings of their eigenvalues are reported against the
    expected a * force. Translation residuals compare each selected state
    to the most central one shifted by the appropriate number of sites,
    minimized over a global phase, both over the full window and restricted
    to sites |m| <= half_width - half_width // 4, where the infinite-lattice
    translation covariance is actually testable.
    """
    if force == 0:
        raise ValueError("Wannier-Stark analysis needs a nonzero force")
    m = spec.sites
    w = spec.half_width // 4
    centers = np.real(np.sum(m[:, None] * np.abs(sr.eigenvectors) ** 2, axis=0))
    selected = np.where(np.abs(centers) <= 0.25 * spec.half_width)[0]
    if len(selected) < 3:
        raise ValueError(f"only {len(selected)} interior states; need at least 3")
    order = np.argsort(sr.eigenvalues[selected], kind="stable")
    selected = selected[order]
    energies = sr.eigenvalues[selected]
    cents = centers[selected]
    spacings = np.diff(energies)
    expected = abs(spec.spacing * force)
    inner = spec.interior_sites(w)
    n = spec.n_sites
    res_full, res_inner = [], []
    # neighboring ladder rungs: each state translated onto the next one up,
    # amplitudes shifted past the window edge dropped
    for pos in range(len(selected) - 1):
        shift = int(round(cents[pos + 1] - cents[pos]))
        vec = sr.eigenvectors[:, selected[pos]]
        translated = np.zeros_like(vec)
        translated[max(shift, 0) : n + min(shift, 0)] = vec[max(-shift, 0) : n - max(shift, 0)]
        target = sr.eigenvectors[:, selected[pos + 1]]
        overlap = np.vdot(target, translated)
        phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
        diff = translated - phase * target
        res_full.append(float(np.linalg.norm(diff)))
        res_inner.append(float(np.linalg.norm(diff[inner])))
    return LadderReport(
        state_indices=selected,
        centers=cents,
        interior_spacings=spacings,
        mean_spacing=float(spacings.mean()),
        max_spacing_deviation=float(np.abs(spacings - expected).max()),
        translation_residuals=np.array(res_full),
        interior_translation_residuals=np.array(res_inner),
    )
