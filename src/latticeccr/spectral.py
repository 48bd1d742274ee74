"""Dense eigensolves and spectral diagnostics for lattice Hamiltonians.

eigensolve wraps LAPACK's Hermitian decomposition behind a contract
(residual and orthonormality tolerances, deterministic eigenvector phases),
solving reflection-symmetric Hamiltonians as two parity blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError
from .lattice import (
    Hopping,
    LatticeSpec,
    OperatorMatrix,
    Potential,
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


def _check_contract(mat, vals, vecs, bound: float) -> float:
    """Residual max |H V - V diag(E)| of an eigendecomposition, after checking
    it and the orthonormality defect max |V^dagger V - I| against bound."""
    residual = float(np.abs(mat @ vecs - vecs * vals[None, :]).max())
    orth = float(np.abs(vecs.conj().T @ vecs - np.eye(len(vals))).max())
    if not residual <= bound:
        raise ToleranceError(f"eigensolve residual {residual:.3e} exceeds {bound:.3e}")
    if not orth <= bound:
        raise ToleranceError(f"eigenvector orthonormality defect {orth:.3e} exceeds {bound:.3e}")
    return residual


def _parity_blocks(mat: np.ndarray, bound: float):
    """Eigenvalues, eigenvectors and residual of a reflection-symmetric real
    matrix of odd size N, from its even and odd blocks, with the contract
    checked per block.

    With c = N // 2, A = mat[c:, c:] and B = mat[c:, c::-1], the even block in
    the basis e_c, (e_{c+j} + e_{c-j})/sqrt(2) is A + B with its first row and
    column scaled by 1/sqrt(2) (so its corner is H_cc); the odd block in the basis
    (e_{c+j} - e_{c-j})/sqrt(2) is (A - B)[1:, 1:].
    """
    n = mat.shape[0]
    c = n // 2
    a, b = mat[c:, c:], mat[c:, c::-1]
    even = a + b
    even[0, 1:] /= np.sqrt(2.0)
    even[1:, 0] /= np.sqrt(2.0)
    even[0, 0] = a[0, 0]  # 2 H_cc / sqrt(2)^2, without the rounding
    odd = (a - b)[1:, 1:]
    vals_e, vecs_e = np.linalg.eigh(even)
    vals_o, vecs_o = np.linalg.eigh(odd)
    residual = max(
        _check_contract(even, vals_e, vecs_e, bound), _check_contract(odd, vals_o, vecs_o, bound)
    )
    vals = np.concatenate([vals_e, vals_o])
    order = np.argsort(vals, kind="stable")
    slot = np.empty(n, dtype=int)
    slot[order] = np.arange(n)
    se, so = slot[: c + 1], slot[c + 1 :]
    vecs = np.zeros((n, n))
    vecs[c, se] = vecs_e[0]
    vecs[c + 1 :, se] = vecs_e[1:] / np.sqrt(2.0)
    vecs[c - 1 :: -1, se] = vecs[c + 1 :, se]
    vecs[c + 1 :, so] = vecs_o / np.sqrt(2.0)
    vecs[c - 1 :: -1, so] = -vecs[c + 1 :, so]
    return vals[order], vecs, residual


def eigensolve(ham: OperatorMatrix, tol: float = 1e-10) -> SpectrumResult:
    """Full Hermitian eigendecomposition meeting the package contract.

    Eigenvalues ascending; each eigenvector's largest-magnitude component is
    made real positive so repeated runs and downstream diagnostics are
    reproducible. Raises ToleranceError if the residual or orthonormality
    check exceeds tol * max(1, |H|_max) * N.

    A real Hamiltonian of odd size that equals its site reflection exactly
    (harmonic, constant and mirror-symmetric custom potentials) is solved as
    its even and odd parity blocks, each held to the same bound; the
    returned vectors then satisfy v == +-v[::-1] exactly, and where an even
    and an odd eigenvalue are exactly equal the even state comes first.
    Every other matrix is decomposed whole.
    """
    n = ham.dimension
    bound = tol * (max(1.0, float(np.abs(ham.matrix).max())) * n)
    real = ham.is_real
    mat = ham.matrix.real if real else ham.matrix
    if real and n % 2 == 1 and n > 1 and np.array_equal(mat, mat[::-1, ::-1]):
        vals, vecs, residual = _parity_blocks(mat, bound)
        vecs = _fix_phases(vecs)  # after the return, once the blocks are freed
    else:
        vals, vecs = np.linalg.eigh(mat)
        vecs = _fix_phases(vecs)
        residual = _check_contract(ham.matrix, vals, vecs, bound)
    return SpectrumResult(eigenvalues=vals, eigenvectors=vecs, residual_norm=residual)


def diagnose_states(sr: SpectrumResult, spec: LatticeSpec) -> list[EigenstateDiagnostics]:
    """Parity, |S_n| and <x> for every eigenstate.

    A state is even (odd) when ||v - Rv|| (||v + Rv||) is below PARITY_TOL,
    R the site reflection, and "none" otherwise. eigensolve returns exact
    parity states for reflection-symmetric Hamiltonians, so nothing is
    re-projected here and a state of an asymmetric potential keeps "none".
    """
    vecs = sr.eigenvectors
    reflected = vecs[::-1, :]
    even_err = np.linalg.norm(vecs - reflected, axis=0)
    odd_err = np.linalg.norm(vecs + reflected, axis=0)
    parity = np.where(even_err < PARITY_TOL, "even", np.where(odd_err < PARITY_TOL, "odd", "none"))
    signs = (-1.0) ** np.abs(spec.sites)
    overlap = np.abs(signs @ vecs)
    prob = np.abs(vecs)
    prob *= prob
    center = spec.positions @ prob
    return [
        EigenstateDiagnostics(index=n, parity=str(p), overlap=float(s), center=float(x))
        for n, (p, s, x) in enumerate(zip(parity, overlap, center))
    ]


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
