"""Operator construction: closed-form matrix elements and exact identities."""

import numpy as np
import pytest

from latticeccr import (
    Hopping,
    LatticeSpec,
    OperatorMatrix,
    Potential,
    StateVector,
    build_bloch_state,
    build_hamiltonian,
    build_k_squared,
    build_kinetic,
    build_phase_operator,
    build_position,
    build_quasi_momentum,
    build_translation,
    commutator,
    expectation,
    alternating_overlap,
    eigensolve,
    make_gaussian,
    GaussianPacket,
)
from latticeccr import lattice
from latticeccr.lattice import HERMITICITY_BLOCK, _hermiticity_defect


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(0, 1.0)
    with pytest.raises(ValueError):
        LatticeSpec(4, -0.5)
    spec = LatticeSpec(3, 0.5)
    assert spec.n_sites == 7
    assert spec.sites[0] == -3 and spec.sites[-1] == 3


def test_position_small_windows():
    assert np.array_equal(np.diag(build_position(LatticeSpec(1, 1.0)).matrix), [-1, 0, 1])
    assert np.allclose(
        np.diag(build_position(LatticeSpec(2, 0.5)).matrix), [-1.0, -0.5, 0.0, 0.5, 1.0]
    )


def test_position_trace_zero():
    for m in (1, 5, 17):
        assert abs(build_position(LatticeSpec(m, 0.7)).matrix.trace()) < 1e-12


def test_phase_operator_elements():
    spec = LatticeSpec(4, 1.0)
    theta = build_phase_operator(spec).matrix
    n = 4  # site index 0
    assert np.all(np.diag(theta) == 0)
    assert theta[n + 1, n] == 1j
    assert theta[n, n + 1] == -1j
    assert theta[n + 2, n] == -0.5j


def test_phase_operator_matches_entry_formula():
    spec = LatticeSpec(6, 2.0)
    theta = build_phase_operator(spec).matrix
    sites = spec.sites
    for i, m in enumerate(sites):
        for j, n in enumerate(sites):
            want = 0.0 if m == n else (-1.0) ** (m - n) / (1j * (m - n))
            assert theta[i, j] == want


def test_quasi_momentum_is_scaled_phase():
    spec = LatticeSpec(5, 0.25)
    assert np.array_equal(
        build_quasi_momentum(spec).matrix, build_phase_operator(spec).matrix / 0.25
    )


def test_k_squared_elements():
    a = 0.5
    spec = LatticeSpec(5, a)
    k2 = build_k_squared(spec).matrix
    assert np.allclose(np.diag(k2), np.pi**2 / (3 * a**2))
    assert k2[1, 2] == -2.0 / a**2
    assert k2[1, 3] == 0.5 / a**2
    assert np.abs(k2 - k2.T).max() == 0.0


def test_k_squared_positive_on_wide_gaussian():
    spec = LatticeSpec(40, 1.0)
    psi = make_gaussian(spec, GaussianPacket(0, 0.05))
    val = expectation(psi, build_k_squared(spec))
    assert abs(val.imag) < 1e-12
    assert val.real >= 0.0


def test_translation_basics():
    spec = LatticeSpec(3, 1.0)
    assert np.array_equal(build_translation(spec, 0), np.eye(7))
    t1 = build_translation(spec, 1)
    e0 = np.zeros(7)
    e0[3] = 1.0  # site 0
    assert np.array_equal(t1 @ e0, np.eye(7)[4])  # site 1
    assert np.array_equal(build_translation(spec, -1), t1.T)
    with pytest.raises(ValueError):
        build_translation(spec, 7)


def test_bloch_state_values():
    spec = LatticeSpec(4, 1.0)
    flat = build_bloch_state(spec, 0.0).amplitudes
    assert np.allclose(flat, np.sqrt(1 / (2 * np.pi)))
    edge = build_bloch_state(spec, np.pi).amplitudes
    assert np.allclose(edge, np.sqrt(1 / (2 * np.pi)) * (-1.0) ** np.abs(spec.sites))


def test_bloch_state_zone_edge_projection_is_alternating_overlap():
    spec = LatticeSpec(12, 0.5)
    edge = build_bloch_state(spec, spec.brillouin_edge)
    rng = np.random.default_rng(3)
    psi = StateVector(rng.normal(size=spec.n_sites) + 1j * rng.normal(size=spec.n_sites))
    lhs = np.vdot(edge.amplitudes, psi.amplitudes)
    rhs = np.sqrt(spec.spacing / (2 * np.pi)) * alternating_overlap(psi)
    assert abs(lhs - rhs) < 1e-12


def test_bloch_state_range():
    spec = LatticeSpec(4, 1.0)
    build_bloch_state(spec, np.pi)  # inclusive upper edge
    with pytest.raises(ValueError):
        build_bloch_state(spec, -np.pi)
    with pytest.raises(ValueError):
        build_bloch_state(spec, 1.5 * np.pi)


def test_kinetic_quadratic_is_half_k_squared():
    spec = LatticeSpec(7, 0.8)
    assert np.array_equal(
        build_kinetic(spec, Hopping.quadratic()).matrix, build_k_squared(spec).matrix / 2
    )
    assert np.isclose(build_kinetic(LatticeSpec(7, 1.0), Hopping.quadratic()).matrix[3, 3], np.pi**2 / 6)


def test_kinetic_cosine_structure():
    spec = LatticeSpec(4, 1.0)
    kin = build_kinetic(spec, Hopping.cosine()).matrix
    assert np.allclose(np.diag(kin), 1.0)
    assert np.allclose(np.diag(kin, 1), -0.5)
    assert np.abs(np.triu(kin, 2)).max() == 0.0


def test_kinetic_quadratic_equals_equivalent_custom():
    a = 1.3
    spec = LatticeSpec(6, a)
    n = np.arange(1, 13)
    custom = Hopping.custom(-np.pi**2 / (6 * a**2), (-1.0) ** (n + 1) / (a * n) ** 2)
    assert np.allclose(
        build_kinetic(spec, custom).matrix,
        build_kinetic(spec, Hopping.quadratic()).matrix,
        atol=1e-15,
    )


def test_custom_hopping_range_check():
    spec = LatticeSpec(3, 1.0)
    with pytest.raises(ValueError):
        build_kinetic(spec, Hopping.custom(0.0, np.ones(7)))


def test_hamiltonian_harmonic_diagonal():
    spec = LatticeSpec(10, 1.0)
    ham = build_hamiltonian(spec, Hopping.quadratic(), Potential.harmonic(0.01))
    want = np.pi**2 / 6 + 0.005 * spec.sites.astype(float) ** 2
    assert np.allclose(np.diag(ham.matrix), want, rtol=0, atol=1e-14)


def test_hamiltonian_constant_shift():
    spec = LatticeSpec(8, 1.0)
    base = eigensolve(build_hamiltonian(spec, Hopping.cosine(), Potential.constant(0.0)))
    shifted = eigensolve(build_hamiltonian(spec, Hopping.cosine(), Potential.constant(2.5)))
    assert np.allclose(shifted.eigenvalues, base.eigenvalues + 2.5, atol=1e-12)


def test_hamiltonian_linear_diagonal_steps():
    spec = LatticeSpec(6, 1.0)
    ham = build_hamiltonian(spec, Hopping.quadratic(), Potential.linear(0.4)).matrix
    d = np.diag(ham)
    assert np.allclose(d[:-1] - d[1:], 0.4)


def test_builders_are_hermitian():
    spec = LatticeSpec(9, 0.6)
    for op in (
        build_position(spec),
        build_phase_operator(spec),
        build_quasi_momentum(spec),
        build_k_squared(spec),
        build_kinetic(spec, Hopping.quadratic()),
        build_kinetic(spec, Hopping.cosine()),
        build_hamiltonian(spec, Hopping.quadratic(), Potential.harmonic(0.3)),
    ):
        mat = op.matrix
        assert np.abs(mat - mat.conj().T).max() <= 1e-12


def test_commutator_self_is_zero():
    spec = LatticeSpec(5, 1.0)
    k2 = build_k_squared(spec)
    assert np.abs(commutator(k2, k2)).max() == 0.0


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        commutator(np.eye(3), np.eye(4))


def test_position_translation_commutator_exact():
    spec = LatticeSpec(8, 0.5)
    x = build_position(spec)
    for n in (1, 2, 5, -3):
        t = build_translation(spec, n)
        assert np.abs(commutator(x, t) - spec.spacing * n * t).max() < 1e-13


def test_translation_hamiltonian_commutator_interior():
    # [T_1, H] = a F T_1 away from the window edges for linear potentials
    spec = LatticeSpec(20, 1.0)
    force = 0.4
    ham = build_hamiltonian(spec, Hopping.cosine(), Potential.linear(force))
    t1 = build_translation(spec, 1)
    lhs = commutator(t1, ham)
    rhs = spec.spacing * force * t1
    inner = slice(2, spec.n_sites - 2)
    assert np.abs(lhs[inner, inner] - rhs[inner, inner]).max() < 1e-13


def test_reflection_symmetry_even_potential():
    spec = LatticeSpec(15, 1.0)
    ham = build_hamiltonian(spec, Hopping.quadratic(), Potential.harmonic(0.2)).matrix
    refl = np.eye(spec.n_sites)[::-1]
    assert np.abs(commutator(ham, refl)).max() < 1e-12


def test_operator_matrix_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        OperatorMatrix(bad)


def test_blocked_hermiticity_check_sees_the_last_partial_block():
    n = 2 * HERMITICITY_BLOCK + 45  # three column blocks, the last one partial
    rng = np.random.default_rng(3)
    base = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    base = base + base.conj().T
    assert _hermiticity_defect(base) == np.abs(base - base.conj().T).max()
    for row, col in ((3, n - 2), (n - 2, 3), (n - 1, n - 2)):
        bad = base.copy()
        bad[row, col] += 2e-12
        assert _hermiticity_defect(bad) == np.abs(bad - bad.conj().T).max()
        with pytest.raises(ValueError, match="not Hermitian"):
            OperatorMatrix(bad)


def test_hamiltonian_checked_once(monkeypatch):
    calls = []

    def counting(mat):
        calls.append(mat.shape)
        return _hermiticity_defect(mat)

    monkeypatch.setattr(lattice, "_hermiticity_defect", counting)
    spec = LatticeSpec(12, 0.9)
    ham = build_hamiltonian(spec, Hopping.quadratic(), Potential.harmonic(0.2))
    assert len(calls) == 1
    want = build_kinetic(spec, Hopping.quadratic()).matrix.copy()
    want[np.diag_indices_from(want)] += Potential.harmonic(0.2).values(spec)
    assert np.array_equal(ham.matrix, want)


def test_state_vector_invariants():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]), normalized=True)
    psi = StateVector(np.array([3.0, 4.0])).normalize()
    assert np.isclose(psi.norm, 1.0)


def test_potential_values():
    spec = LatticeSpec(2, 2.0)
    lin = Potential.linear(0.25).values(spec)
    assert np.allclose(lin, [-0.25 * 2.0 * m for m in (-2, -1, 0, 1, 2)])
    with pytest.raises(ValueError):
        Potential.harmonic(-1.0)
    with pytest.raises(ValueError):
        Potential.custom([1.0, 2.0]).values(spec)
