"""Eigensolver contract, parity/overlap diagnostics, ladders and sweeps."""

import numpy as np
import pytest

from jacobi import jacobi_eigh
from latticeccr import (
    Hopping,
    LatticeSpec,
    OperatorMatrix,
    Potential,
    SpectrumResult,
    StateVector,
    ToleranceError,
    alternating_overlap,
    build_hamiltonian,
    build_k_squared,
    degenerate_pairs,
    diagnose_states,
    eigensolve,
    harmonic_sweep,
    threshold_estimate,
    wannier_stark_analysis,
)
from latticeccr.spectral import PARITY_TOL, _check_contract, _fix_phases


def harmonic_spectrum(half_width, a, c, hop=None):
    spec = LatticeSpec(half_width, a)
    ham = build_hamiltonian(spec, hop or Hopping.quadratic(), Potential.harmonic(c))
    return spec, eigensolve(ham)


def test_eigensolve_diagonal():
    sr = eigensolve(OperatorMatrix(np.diag([3.0, 1.0, 2.0])))
    assert np.allclose(sr.eigenvalues, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(sr.eigenvectors), np.eye(3)[:, [1, 2, 0]])


def test_eigensolve_two_by_two():
    sr = eigensolve(OperatorMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.allclose(sr.eigenvalues, [-1.0, 1.0])


def test_eigensolve_phase_convention():
    sr = eigensolve(OperatorMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    for j in range(2):
        v = sr.eigenvectors[:, j]
        lead = v[np.argmax(np.abs(v))]
        assert lead.real > 0 and abs(np.imag(lead)) == 0.0


def test_eigensolve_orthonormality_and_residual():
    spec, sr = harmonic_spectrum(60, 1.0, 0.05)
    n = spec.n_sites
    assert np.abs(sr.eigenvectors.T @ sr.eigenvectors - np.eye(n)).max() < 1e-12 * n
    assert sr.residual_norm < 1e-12 * n


def test_contract_rejects_nan_residual():
    # NaN compares false against any bound: it must fail the contract, not pass it
    with pytest.raises(ToleranceError, match="residual nan"):
        _check_contract(np.diag([1.0, 2.0]), np.array([1.0, np.nan]), np.eye(2), 1e-10)


def test_free_particle_band_range():
    # the window Hamiltonian is a compression of the infinite one, so its
    # spectrum must stay inside the dispersion band [0, pi^2/2]
    spec = LatticeSpec(100, 1.0)
    sr = eigensolve(OperatorMatrix(build_k_squared(spec).matrix / 2))
    assert sr.eigenvalues.min() > -1e-12
    assert sr.eigenvalues.max() < np.pi**2 / 2 + 1e-12


@pytest.fixture(scope="module", params=[288, 800], ids=["N577", "N1601"])
def parity_solve(request):
    spec = LatticeSpec(request.param, 1.0)
    ham = build_hamiltonian(spec, Hopping.quadratic(), Potential.harmonic(0.01))
    return ham, eigensolve(ham)


def test_parity_blocks_meet_full_matrix_contract(parity_solve):
    ham, sr = parity_solve
    mat, vals, vecs = ham.matrix, sr.eigenvalues, sr.eigenvectors
    n = ham.dimension
    bound = 1e-10 * max(1.0, np.abs(mat).max()) * n
    assert np.abs(mat @ vecs - vecs * vals[None, :]).max() <= bound
    assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= bound


def test_parity_blocks_match_eigvalsh(parity_solve):
    ham, sr = parity_solve
    ref = np.linalg.eigvalsh(ham.matrix)
    assert np.all(np.diff(sr.eigenvalues) >= 0)
    assert np.abs(sr.eigenvalues - ref).max() <= 1e-11 * np.abs(ref).max()


def test_parity_blocks_give_exact_parity(parity_solve):
    _, sr = parity_solve
    vecs = sr.eigenvectors
    even = np.all(vecs == vecs[::-1], axis=0)
    odd = np.all(vecs == -vecs[::-1], axis=0)
    assert np.all(even | odd)
    assert even.sum() == (vecs.shape[0] + 1) // 2


def test_parity_blocks_tie_puts_even_first():
    # diag(2, 5, 2): the even block holds 2 and 5, the odd block 2
    sr = eigensolve(OperatorMatrix(np.diag([2.0, 5.0, 2.0])))
    assert np.array_equal(sr.eigenvalues, [2.0, 2.0, 5.0])
    r = 1 / np.sqrt(2.0)
    assert np.array_equal(sr.eigenvectors, [[r, r, 0.0], [0.0, 0.0, 1.0], [r, -r, 0.0]])


def _mirror_symmetric_complex(spec):
    # harmonic H plus i(E - E^T), where E = e_0 e_1^T + e_-1 e_-2^T equals its reflection
    ham = build_hamiltonian(spec, Hopping.quadratic(), Potential.harmonic(0.05)).matrix
    skew = np.zeros_like(ham)
    skew[0, 1] = skew[-1, -2] = 0.1
    return ham + 1j * (skew - skew.T)


_SPEC = LatticeSpec(30, 1.0)


@pytest.mark.parametrize(
    "mat",
    [
        build_hamiltonian(_SPEC, Hopping.quadratic(), Potential.linear(0.4)).matrix,
        build_hamiltonian(
            _SPEC, Hopping.cosine(), Potential.custom(0.01 * np.arange(61.0) ** 2)
        ).matrix,
        build_k_squared(_SPEC).matrix[1:, 1:],
        _mirror_symmetric_complex(_SPEC),
    ],
    ids=["linear", "asymmetric-custom", "even-N", "complex"],
)
def test_other_matrices_keep_the_whole_solve(mat):
    # the even-N and complex matrices equal their reflection: only their size
    # or their complex entries keep them off the parity-block path
    assert np.array_equal(mat, mat[::-1, ::-1]) == (mat.shape[0] % 2 == 0 or np.iscomplexobj(mat))
    sr = eigensolve(OperatorMatrix(mat))
    vals, vecs = np.linalg.eigh(mat)
    assert np.array_equal(sr.eigenvalues, vals)
    assert np.array_equal(sr.eigenvectors, _fix_phases(vecs))


def test_jacobi_against_lapack():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mat = rng.normal(size=(6, 6))
        mat = mat + mat.T
        vals_j, vecs_j = jacobi_eigh(mat)
        vals_l = np.linalg.eigvalsh(mat)
        assert np.abs(vals_j - vals_l).max() < 1e-12
        assert np.abs(vecs_j.T @ vecs_j - np.eye(6)).max() < 1e-12
        assert np.abs(mat @ vecs_j - vecs_j * vals_j[None, :]).max() < 1e-12


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_diagnose_parity_ordering():
    spec, sr = harmonic_spectrum(40, 1.0, 1.0)
    diags = diagnose_states(sr, spec)
    assert [d.parity for d in diags[:6]] == ["even", "odd"] * 3
    assert all(d.parity != "none" for d in diags)


def test_diagnose_odd_states_have_zero_overlap():
    spec, sr = harmonic_spectrum(50, 1.0, 0.1)
    for d in diagnose_states(sr, spec):
        if d.parity == "odd":
            # bounded by the parity-classification tolerance times sqrt(N)
            assert d.overlap < 1e-7


def test_diagnose_centers_vanish_for_parity_states():
    spec, sr = harmonic_spectrum(40, 1.0, 0.5)
    for d in diagnose_states(sr, spec)[:20]:
        assert abs(d.center) < 1e-8


def test_diagnose_states_column_reductions_match_per_state_forms():
    spec, sr = harmonic_spectrum(40, 0.8, 0.3)
    x = spec.positions
    for d in diagnose_states(sr, spec):
        v = sr.eigenvectors[:, d.index]
        assert d.overlap == pytest.approx(abs(alternating_overlap(StateVector(v))), abs=1e-15)
        assert d.center == pytest.approx(float(np.sum(x * v**2)), abs=1e-13)


def test_diagnose_asymmetric_potential_labels_match_the_vectors():
    # a tilt of 1e-9 per site mixes the near-degenerate high pairs of a coarse
    # harmonic lattice, so those states have no parity and must say so
    spec = LatticeSpec(100, 3.0)
    values = Potential.harmonic(1.0).values(spec) + 1e-9 * spec.sites
    sr = eigensolve(build_hamiltonian(spec, Hopping.quadratic(), Potential.custom(values)))
    diags = diagnose_states(sr, spec)
    vecs = sr.eigenvectors
    even_err = np.linalg.norm(vecs - vecs[::-1], axis=0)
    odd_err = np.linalg.norm(vecs + vecs[::-1], axis=0)
    for d in diags:
        assert (d.parity == "even") == (even_err[d.index] < PARITY_TOL)
        assert (d.parity == "odd") == (even_err[d.index] >= PARITY_TOL > odd_err[d.index])
    assert sum(d.parity == "none" for d in diags) > 0


def test_threshold_estimate_values():
    assert threshold_estimate(1.0, 0.01) == pytest.approx(30.0)
    assert threshold_estimate(1.0, 1.0) == pytest.approx(3.0)
    base = threshold_estimate(1.0, 0.04)
    assert threshold_estimate(2.0, 0.04) == pytest.approx(base / 4)


def test_harmonic_sweep_continuum_region():
    sweep = harmonic_sweep(0.01, [0.5, 1.0], states_per_point=8, half_width=60)
    below = sweep.ac_quarter < 1.0
    ratios = sweep.e_over_sqrt_c[below] / (sweep.index[below] + 0.5)
    assert np.abs(ratios - 1.0).max() < 0.01
    assert np.all(sweep.e_over_sqrt_c >= 0.0)
    assert np.allclose(sweep.reference, 3.0 / sweep.ac_quarter**2)


def test_degenerate_pairs_high_lattice_regime():
    spec, sr = harmonic_spectrum(100, 3.0, 1.0)
    pairs = degenerate_pairs(sr, spec, gap_tol=0.1)
    interior = [p for p in pairs if p.center_separation < spec.half_width * spec.spacing]
    assert len(interior) >= 10
    gaps = np.array([p.gap for p in interior])
    assert np.all(np.diff(gaps) < 0)  # splitting falls with pair energy
    assert any(p.gap < 1e-3 for p in interior)
    # localized combinations sit symmetrically, two wells per pair
    seps = np.array([p.center_separation for p in interior])
    assert np.all(np.diff(seps) > 0)


def test_degenerate_pairs_absent_below_threshold():
    spec, sr = harmonic_spectrum(100, 1.0, 0.01)
    lowest = SpectrumResult(sr.eigenvalues[:20], sr.eigenvectors[:, :20], sr.residual_norm)
    assert degenerate_pairs(lowest, spec, gap_tol=0.1 * np.sqrt(0.01)) == []


def test_degenerate_pairs_empty_spectrum():
    spec = LatticeSpec(5, 1.0)
    empty = SpectrumResult(np.array([]), np.zeros((11, 0)), 0.0)
    assert degenerate_pairs(empty, spec, gap_tol=1.0) == []


@pytest.fixture(scope="module")
def stark_spectrum():
    spec = LatticeSpec(100, 1.0)
    ham = build_hamiltonian(spec, Hopping.quadratic(), Potential.linear(0.4))
    return spec, eigensolve(ham)


def test_wannier_stark_ladder_spacing(stark_spectrum):
    spec, sr = stark_spectrum
    report = wannier_stark_analysis(sr, spec, force=0.4)
    assert len(report.state_indices) >= 40
    assert report.mean_spacing == pytest.approx(0.4, abs=1e-9)
    assert report.max_spacing_deviation < 1e-8


def test_wannier_stark_interior_translation_covariance(stark_spectrum):
    # translation covariance holds on the interior window; the full-window
    # residual is dominated by the 1/d^3 tails of the long-range hopping
    spec, sr = stark_spectrum
    report = wannier_stark_analysis(sr, spec, force=0.4)
    assert report.interior_translation_residuals.max() < 1e-8
    assert 1e-7 < report.translation_residuals.max() < 1e-4


def test_wannier_stark_power_law_decay_envelope(stark_spectrum):
    spec, sr = stark_spectrum
    report = wannier_stark_analysis(sr, spec, force=0.4)
    m = spec.sites
    for idx, center in zip(report.state_indices, report.centers):
        amp = np.abs(sr.eigenvectors[:, idx])
        dist = np.abs(m - center)
        far = dist > 10
        # amplitude envelope of the long-range-hopping ladder states
        assert np.all(amp[far] <= 30.0 / (0.4 * dist[far] ** 3))


def test_wannier_stark_cosine_kinetic_exponential_localization():
    spec = LatticeSpec(100, 1.0)
    ham = build_hamiltonian(spec, Hopping.cosine(), Potential.linear(0.4))
    sr = eigensolve(ham)
    report = wannier_stark_analysis(sr, spec, force=0.4)
    assert report.max_spacing_deviation < 1e-10  # ladder is hopping-independent
    assert report.mean_spacing == pytest.approx(0.4, abs=1e-12)
    assert report.translation_residuals.max() < 1e-8
    m = spec.sites
    for idx, center in zip(report.state_indices, report.centers):
        amp = np.abs(sr.eigenvectors[:, idx])
        assert amp[np.abs(m - center) > 25].max() < 1e-8


def test_wannier_stark_needs_force_and_states():
    spec = LatticeSpec(10, 1.0)
    ham = build_hamiltonian(spec, Hopping.cosine(), Potential.linear(0.4))
    sr = eigensolve(ham)
    with pytest.raises(ValueError):
        wannier_stark_analysis(sr, spec, force=0.0)
    # two states at the window edges: none lies in the interior
    edges = np.zeros((spec.n_sites, 2))
    edges[0, 0] = edges[-1, 1] = 1.0
    two = SpectrumResult(np.array([-4.0, 4.0]), edges, 0.0)
    with pytest.raises(ValueError, match="need at least 3"):
        wannier_stark_analysis(two, spec, force=0.4)
