"""Dense eigensolves and spectral diagnostics for lattice Hamiltonians.

eigensolve wraps LAPACK's Hermitian decomposition behind a contract
(residual and orthonormality tolerances, deterministic eigenvector phases),
solving reflection-symmetric Hamiltonians as two parity blocks; eigenvalues
solves the same blocks for their eigenvalues alone, each held to the trace
and Frobenius identities. _even_states, for runs that read only even states
(fig2, fig3's harmonic potential), solves the even block under eigensolve's
contract and the odd block for its eigenvalues alone. All three are one
pipeline, _decompose: blocks, one LAPACK call and one check per block, merge.
The parity split is decided here alone: the parity blocks' vectors stay on
half the window, for run_timeseries (SpectrumResult._halves) and _even_states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ToleranceError
from .lattice import (
    HERMITICITY_BLOCK,
    Hopping,
    LatticeSpec,
    OperatorMatrix,
    Potential,
    build_hamiltonian,
)

PARITY_TOL = 1e-8


@dataclass(frozen=True)
class SpectrumResult:
    """Full eigendecomposition: ascending eigenvalues, orthonormal columns. _halves is
    (order, [even, odd]) when eigensolve split the Hamiltonian by parity, else None (as for
    a hand-built result): _decompose's halves, and order their columns' indices here."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norm: float
    _halves: tuple | None = field(default=None, repr=False)

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
    """Make the largest-magnitude component of each column real positive, in
    place, and return vecs.

    Ties resolve to the first index, so output is deterministic."""
    idx = np.argmax(np.abs(vecs), axis=0)
    lead = vecs[idx, np.arange(vecs.shape[1])]
    vecs *= (lead / np.abs(lead)).conj()[None, :]  # exactly +-1 for real vectors
    return vecs


def _check_contract(mat, vals, vecs, bound: float) -> float:
    """Residual max |H V - V diag(E)| of an eigendecomposition, after checking
    it and the orthonormality defect max |V^dagger V - I| against bound; both
    are formed in place, V diag(E) in the Gram matrix's buffer."""
    real = not np.iscomplexobj(vecs)
    work = vecs.conj().T @ vecs
    work.reshape(-1)[:: len(vals) + 1] -= 1.0  # V^dagger V - I
    orth = float(np.abs(work, out=work if real else None).max())
    resid = mat @ vecs
    resid -= np.multiply(vecs, vals[None, :], out=work)
    residual = float(np.abs(resid, out=resid if real else None).max())
    if not residual <= bound:
        raise ToleranceError(f"eigensolve residual {residual:.3e} exceeds {bound:.3e}")
    if not orth <= bound:
        raise ToleranceError(f"eigenvector orthonormality defect {orth:.3e} exceeds {bound:.3e}")
    return residual


def _blocks(ham: OperatorMatrix) -> list[np.ndarray]:
    """The matrices whose decompositions make up ham's: the even and odd parity
    blocks of a real matrix of odd size N > 1 that equals its site reflection
    exactly (harmonic, constant and mirror-symmetric custom potentials), and
    the whole matrix otherwise.

    With c = N // 2, A = mat[c:, c:] and B = mat[c:, c::-1], the even block in
    the basis e_c, (e_{c+j} + e_{c-j})/sqrt(2) is A + B with its first row and
    column scaled by 1/sqrt(2) (so its corner is H_cc); the odd block in the basis
    (e_{c+j} - e_{c-j})/sqrt(2) is (A - B)[1:, 1:].
    """
    n, real = ham.dimension, ham.is_real
    mat = ham.matrix.real if real else ham.matrix
    if not (real and n % 2 == 1 and n > 1 and np.array_equal(mat, mat[::-1, ::-1])):
        return [mat]
    c = n // 2
    a, b = mat[c:, c:], mat[c:, c::-1]
    even = a + b
    even[0, 1:] /= np.sqrt(2.0)
    even[1:, 0] /= np.sqrt(2.0)
    even[0, 0] = a[0, 0]  # 2 H_cc / sqrt(2)^2, without the rounding
    return [even, (a - b)[1:, 1:]]


def _merge(parts: list):
    """Ascending merge of the blocks' eigenvalue lists, an earlier block's value
    first on an exact tie: the merged list and, per block, the positions its
    values take in it."""
    vals = np.concatenate(parts)
    order = np.argsort(vals, kind="stable")
    slot = np.empty(len(vals), dtype=int)
    slot[order] = np.arange(len(vals))
    return vals[order], np.split(slot, np.cumsum([len(p) for p in parts])[:-1])


def _decompose(ham: OperatorMatrix, tol: float, vectors: int):
    """Solve each of _blocks(ham) once, against the bound tol * max(1, |H|_max) * N: the
    leading `vectors` blocks by eigh, held to _check_contract, and the others by eigvalsh,
    each held to the trace and Frobenius identities (_check_sums).

    Returns (vals, slots, vecs, residual, halves). vals are the blocks' eigenvalues merged
    ascending, the even value first on an exact tie, and slots[i] the positions block i's
    values take in vals. halves lists each solved parity block's vectors, column-major, at
    the sites m = 0, -1, ..., -c (even) or m = -1, ..., -c (odd), c = N // 2, each
    phase-fixed in the full vectors' site order, so that the first-index tie rule of
    _fix_phases picks the entry it picks on a full vector (empty if none). vecs are the
    phase-fixed site-basis eigenvectors of a solved whole matrix (eigh's own array) or of
    both parity blocks (embedded from the halves, columns following vals), else None.
    residual is the solved blocks' largest residual (0.0 when no block is solved).
    """
    blocks = _blocks(ham)
    bound = tol * (max(1.0, float(np.abs(ham.matrix).max())) * ham.dimension)
    solved = [np.linalg.eigh(block) for block in blocks[:vectors]]
    checked = (_check_contract(block, *pair, bound) for block, pair in zip(blocks, solved))
    residual = max(checked, default=0.0)
    parts = [vals for vals, _ in solved]
    for block in blocks[vectors:]:
        parts.append(np.linalg.eigvalsh(block))
        _check_sums(block, parts[-1], bound)
    vals, slots = _merge(parts)
    vecs = _fix_phases(solved[0][1]) if len(blocks) == 1 and solved else None
    halves = []  # in the bases of _blocks, e_c and (e_{c+j} +- e_{c-j})/sqrt(2)
    for (_, part), sign in zip(solved if len(blocks) == 2 else [], (1.0, -1.0)):
        half = np.empty(part.shape, order="F")  # as vecs[:, col]: GEMM bits follow layout
        np.divide(part, sign * np.sqrt(2.0), out=half)
        if sign > 0:
            half[0] = part[0]  # e_c's coefficient, unscaled
        _fix_phases(half[::-1])
        halves.append(half)
    if len(halves) == 2:
        vecs = np.zeros((ham.dimension,) * 2)
        for half, col, sign in zip(halves, slots, (1.0, -1.0)):
            vecs[len(half) - 1 :: -1, col], vecs[-len(half) :, col] = half, sign * half
    return vals, slots, vecs, residual, halves


def _even_states(ham: OperatorMatrix, tol: float = 1e-10):
    """The even-parity states of a Hamiltonian that _blocks splits, without the odd
    block's eigenvectors: their indices in eigensolve's ascending order, their eigenvalues
    and their phase-fixed halves as _decompose makes them, the rows m = 0, -1, ..., -c of
    eigensolve(ham, tol)'s columns at those indices. (The odd eigenvalues come from eigvalsh,
    not eigh: an index can differ from eigensolve's only where an even and an odd
    eigenvalue lie within rounding of each other.)

    The even block is held to eigensolve's residual and orthonormality
    contract; the odd block is solved for its eigenvalues alone and held to
    the trace and Frobenius identities, as in eigenvalues. Raises ValueError
    when ham has no parity split (after solving it whole).
    """
    vals, slots, *_, halves = _decompose(ham, tol, vectors=1)
    if len(slots) == 1:
        raise ValueError("no parity split: the matrix is not a real odd-size mirror-symmetric one")
    return slots[0], vals[slots[0]], halves[0]


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
    vals, slots, vecs, residual, halves = _decompose(ham, tol, vectors=2)
    split = (np.concatenate(slots), halves) if halves else None
    return SpectrumResult(vals, vecs, residual, split)


def eigenvalues(ham: OperatorMatrix, tol: float = 1e-10) -> np.ndarray:
    """Ascending eigenvalues alone, as eigensolve(ham, tol).eigenvalues would
    give them up to rounding, without computing a single eigenvector.

    The matrix is split into the same blocks as in eigensolve, and the lists
    of two parity blocks merge with the even value first on an exact tie. With
    no vectors there is no residual, so each block is held to the two exact
    identities sum(E) = tr H and sum(E^2) = ||H||_F^2: raises ToleranceError,
    naming the identity, if for a block |sum(E) - tr H| exceeds
    bound = tol * max(1, |H|_max) * N (H the whole matrix) or
    |sum(E^2) - ||H||_F^2| exceeds bound * max(1, max |E|).
    """
    return _decompose(ham, tol, vectors=0)[0]


def _check_sums(mat: np.ndarray, vals: np.ndarray, bound: float) -> None:
    """Check the trace and Frobenius identities of an eigenvalue list against
    bound (see eigenvalues). Both sides and the bounds are compared scaled by
    the power of two s <= 1 / max(1, |H|_max), which changes no digit but keeps
    the squares of entries near the float range finite."""
    s = math.ldexp(1.0, -math.frexp(max(1.0, float(np.abs(mat).max())))[1])
    scaled, svals = mat * s, vals * s
    trace = abs(float(np.sum(svals)) - float(np.trace(scaled).real))
    if not trace <= bound * s:
        raise ToleranceError(
            f"eigenvalue trace identity: |sum(E) - tr H| = {trace / s:.3e} exceeds {bound:.3e}"
        )
    frobenius = abs(float(svals @ svals) - float(np.vdot(scaled, scaled).real))
    top = max(1.0, float(np.abs(vals).max()))
    if not frobenius <= (bound * s) * (top * s):
        raise ToleranceError(
            f"eigenvalue Frobenius identity: |sum(E^2) - ||H||_F^2| = {frobenius / s / s:.3e} "
            f"exceeds {bound * top:.3e}"
        )


def _check_window(sr: SpectrumResult, spec: LatticeSpec) -> None:
    """Refuse a spectrum whose eigenvectors do not live on spec's window."""
    if len(sr.eigenvectors) != spec.n_sites:
        raise ValueError(f"spectrum of {len(sr.eigenvectors)} sites on a window of {spec.n_sites}")


def diagnose_states(sr: SpectrumResult, spec: LatticeSpec) -> list[EigenstateDiagnostics]:
    """Parity, |S_n| and <x> for every eigenstate.

    A state is even (odd) when ||v - Rv|| (||v + Rv||) is below PARITY_TOL,
    R the site reflection, and "none" otherwise. eigensolve returns exact
    parity states for reflection-symmetric Hamiltonians, so nothing is
    re-projected here and a state of an asymmetric potential keeps "none".
    """
    _check_window(sr, spec)
    vecs, b = sr.eigenvectors, HERMITICITY_BLOCK
    even_err, odd_err = np.empty((2, vecs.shape[1]))
    for j in range(0, vecs.shape[1], b):  # a tile of columns at a time: no N x N temporary
        tile, reflected = vecs[:, j : j + b], vecs[::-1, j : j + b]
        even_err[j : j + b] = np.linalg.norm(tile - reflected, axis=0)
        odd_err[j : j + b] = np.linalg.norm(tile + reflected, axis=0)
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

    Each spacing is an independent eigenvalues-only solve of the harmonic
    Hamiltonian, held to the trace and Frobenius identities (see eigenvalues);
    the reference column is the dashed boundary 3/(a c^(1/4))^2 below which
    the continuum ladder n + 1/2 is expected to survive.
    """
    if curvature <= 0:
        raise ValueError("curvature must be positive")
    if not isinstance(states_per_point, (int, np.integer)) or states_per_point < 1:
        raise ValueError(f"states_per_point must be an integer >= 1, got {states_per_point}")
    hop = Hopping.quadratic() if hopping is None else hopping
    rows_x, rows_n, rows_e, rows_ref = [], [], [], []
    for a in a_values:
        spec = LatticeSpec(half_width, float(a))
        ham = build_hamiltonian(spec, hop, Potential.harmonic(curvature))
        vals = eigenvalues(ham, tol=tol)[:states_per_point]
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
    _check_window(sr, spec)
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
    _check_window(sr, spec)
    m = spec.sites
    w = spec.half_width // 4
    centers = np.real(np.sum(m[:, None] * np.abs(sr.eigenvectors) ** 2, axis=0))
    selected = np.where(np.abs(centers) <= 0.25 * spec.half_width)[0]
    if len(selected) < 3:
        raise ValueError(f"only {len(selected)} interior states; need at least 3")
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
