"""Operator construction: closed-form matrix elements and exact identities."""

import numpy as np
import pytest

from latticeccr import (
    Hopping,
    LatticeSpec,
    OperatorMatrix,
    Potential,
    StateVector,
    build_hamiltonian,
    build_k_squared,
    build_phase_operator,
    build_position,
    build_quasi_momentum,
    build_translation,
    expectation,
    alternating_overlap,
    eigensolve,
    make_gaussian,
    GaussianPacket,
)
from latticeccr import lattice
from latticeccr.lattice import HERMITICITY_BLOCK, _hermiticity_defect, _kinetic_matrix
from reference import commutator


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(0, 1.0)
    with pytest.raises(ValueError):
        LatticeSpec(4, -0.5)
    for half_width in (2.5, 3.0, np.float64(3.0)):  # sites would be half-integers or floats
        with pytest.raises(ValueError, match="half_width must be an integer"):
            LatticeSpec(half_width)
    assert LatticeSpec(np.int64(3)).n_sites == 7
    for a in (1e-200, 1e-160, 1e200, np.inf):  # a^2 or 1/a^2 under- or overflows
        with pytest.raises(ValueError, match="spacing"):
            LatticeSpec(3, a)
    LatticeSpec(3, 1e-150)
    LatticeSpec(3, 1e150)
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


def test_bloch_state_zone_edge_projection_is_alternating_overlap():
    spec = LatticeSpec(12, 0.5)
    k = spec.brillouin_edge  # Bloch amplitudes sqrt(a/2pi) exp(i a k m) at the zone edge
    edge = np.sqrt(spec.spacing / (2 * np.pi)) * np.exp(1j * spec.spacing * k * spec.sites)
    rng = np.random.default_rng(3)
    psi = StateVector(rng.normal(size=spec.n_sites) + 1j * rng.normal(size=spec.n_sites))
    lhs = np.vdot(edge, psi.amplitudes)
    rhs = np.sqrt(spec.spacing / (2 * np.pi)) * alternating_overlap(psi)
    assert abs(lhs - rhs) < 1e-12


def test_kinetic_quadratic_is_half_k_squared():
    spec = LatticeSpec(7, 0.8)
    kin = _kinetic_matrix(spec, Hopping.quadratic())
    assert np.array_equal(kin, build_k_squared(spec).matrix / 2)
    assert np.array_equal(build_k_squared(spec).matrix, 2 * kin)
    assert np.isclose(_kinetic_matrix(LatticeSpec(7, 1.0), Hopping.quadratic())[3, 3], np.pi**2 / 6)


def _same_bits(x, y) -> bool:
    return x.dtype == y.dtype and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _banded_reference(spec, t0, amps):
    # -t0 I - sum_n t_n (T_n + T_n^dagger), assembled band by band
    n = spec.n_sites
    mat = -t0 * np.eye(n)
    for r, t in enumerate(amps, start=1):
        mat -= t * (np.eye(n, k=-r) + np.eye(n, k=r))
    return mat


@pytest.mark.parametrize("hop", [Hopping.cosine(), Hopping.custom(0.3, [0.5, -0.2, 0.0, 0.05])])
@pytest.mark.parametrize("a", [1.0, 0.7, 2.5])
def test_kinetic_matches_banded_reference(hop, a):
    spec = LatticeSpec(9, a)
    want = _banded_reference(spec, *hop.terms(spec))
    got = _kinetic_matrix(spec, hop)
    assert np.array_equal(got, want)  # for t0 > 0 the reference's -t0 * I is -0.0 off the band
    if hop.kind == "cosine":
        assert _same_bits(got, want)


def test_kinetic_quadratic_matches_entry_formula_bit_for_bit():
    a = 0.7
    spec = LatticeSpec(6, a)
    d = spec.sites[:, None] - spec.sites[None, :]
    want = np.empty(d.shape)
    for (i, j), dij in np.ndenumerate(d):
        want[i, j] = (np.pi**2 / 6) / a**2 if dij == 0 else (-1.0) ** dij / float(dij) ** 2 / a**2
    assert _same_bits(_kinetic_matrix(spec, Hopping.quadratic()), want)


def test_kinetic_full_range_custom_hopping():
    spec = LatticeSpec(100, 1.0)
    amps = np.linspace(0.5, 0.01, 2 * spec.half_width)  # R = 2M: every band of the window
    ham = build_hamiltonian(spec, Hopping.custom(-1.0, amps), Potential.constant())
    assert np.array_equal(ham.matrix, _banded_reference(spec, -1.0, amps))
    assert ham.matrix[-1, 0] == -amps[-1]


def test_kinetic_cosine_structure():
    spec = LatticeSpec(4, 1.0)
    kin = _kinetic_matrix(spec, Hopping.cosine())
    assert np.allclose(np.diag(kin), 1.0)
    assert np.allclose(np.diag(kin, 1), -0.5)
    assert np.abs(np.triu(kin, 2)).max() == 0.0


def test_kinetic_quadratic_equals_equivalent_custom():
    a = 1.3
    spec = LatticeSpec(6, a)
    n = np.arange(1, 13)
    custom = Hopping.custom(-np.pi**2 / (6 * a**2), (-1.0) ** (n + 1) / (a * n) ** 2)
    assert np.allclose(
        _kinetic_matrix(spec, custom),
        _kinetic_matrix(spec, Hopping.quadratic()),
        atol=1e-15,
    )


def test_custom_hopping_range_check():
    spec = LatticeSpec(3, 1.0)
    with pytest.raises(ValueError):
        build_hamiltonian(spec, Hopping.custom(0.0, np.ones(7)), Potential.constant())


def test_hamiltonian_refuses_entries_whose_sums_overflow():
    # N |H|_max bounds the eigensolve contract and, for N >= 3, the parity blocks' A + B
    spec = LatticeSpec(5, 1.0)
    for spec_, hop, pot in [
        (spec, Hopping.quadratic(), Potential.constant(1e308)),
        (spec, Hopping.custom(0.0, [1e308]), Potential.constant()),
        (LatticeSpec(5, 1e-154), Hopping.quadratic(), Potential.constant()),
    ]:
        with pytest.raises(ValueError, match="beyond the float range"):
            build_hamiltonian(spec_, hop, pot)
    for spec_, pot in [(spec, Potential.constant(1e307)), (LatticeSpec(5, 1e-153), Potential.constant())]:
        sr = eigensolve(build_hamiltonian(spec_, Hopping.quadratic(), pot))
        assert np.isfinite(sr.eigenvalues).all() and np.isfinite(sr.residual_norm)


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
        build_hamiltonian(spec, Hopping.quadratic(), Potential.constant()),
        build_hamiltonian(spec, Hopping.cosine(), Potential.constant()),
        build_hamiltonian(spec, Hopping.quadratic(), Potential.harmonic(0.3)),
    ):
        mat = op.matrix
        assert np.abs(mat - mat.conj().T).max() <= 1e-12


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


@pytest.mark.parametrize("a", [1.0, 0.37, 2.5])
def test_quadratic_hopping_velocity_is_the_quasi_momentum(a):
    # i[H, x]_mn = i H_mn (x_n - x_m) equals k_mn on the whole window for quadratic hopping
    # and any diagonal potential, within (eps / a) (1 + (|m| + |n|) / |m - n|), the rounding
    # of x_m = a m (0.37 of it, 84 eps = 1.9e-14, measured at a = 0.37); for cosine hopping
    # the two differ by 1 / (2 a)
    spec = LatticeSpec(50, a)
    x, k = spec.positions, build_quasi_momentum(spec).matrix
    m, n = spec.sites[:, None], spec.sites[None, :]
    bound = np.finfo(float).eps / a * (1 + (abs(m) + abs(n)) / np.maximum(abs(m - n), 1))
    custom = Potential.custom(3.0 * np.cos(spec.sites) + 0.01 * spec.sites**3)
    for pot in (Potential.harmonic(0.01), Potential.linear(0.4), custom):
        for hop, exact in ((Hopping.quadratic(), True), (Hopping.cosine(), False)):
            velocity = 1j * build_hamiltonian(spec, hop, pot).matrix * (x[None, :] - x[:, None])
            defect = np.abs(velocity - k)
            if exact:
                assert np.all(defect <= bound), (pot.kind, (defect / bound).max())
            else:
                assert defect.max() == pytest.approx(0.5 / a, rel=1e-12), pot.kind


def test_reflection_symmetry_even_potential():
    spec = LatticeSpec(15, 1.0)
    ham = build_hamiltonian(spec, Hopping.quadratic(), Potential.harmonic(0.2)).matrix
    refl = np.eye(spec.n_sites)[::-1]
    assert np.abs(commutator(ham, refl)).max() < 1e-12


def test_operator_matrix_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        OperatorMatrix(bad)


@pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf - inf
@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_operator_matrix_rejects_non_finite(entry):
    # NaN compares false against any tolerance: the check must not read it as a pass
    with pytest.raises(ValueError, match="non-finite"):
        OperatorMatrix(np.array([[1.0, entry], [entry, 1.0]]))


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


@pytest.mark.filterwarnings("ignore:invalid value encountered")  # NaN - NaN
@pytest.mark.parametrize("kind", [float, complex])
def test_tiled_hermiticity_check_is_the_whole_matrix_maximum(kind):
    # only the tiles on and above the diagonal are read; |A - A^dagger| takes bitwise-equal
    # values on mirrored entries, so the maximum is that of the whole matrix, NaN included
    b = HERMITICITY_BLOCK
    n = 2 * b + 45
    rng = np.random.default_rng(5)
    base = rng.normal(size=(n, n)).astype(kind)
    if kind is complex:
        base += 1j * rng.normal(size=(n, n))
    base = base + base.conj().T
    # below the diagonal of an off-diagonal tile, both ways round; in a diagonal tile;
    # in the last, partial tile column; a NaN
    for row, col, delta in ((5, b + 2, 3e-12), (b + 2, 5, -7e-12), (b + 9, b + 4, 1e-12),
                            (n - 1, 2, 5e-13), (b + 7, 2 * b + 3, np.nan)):
        bad = base.copy()
        bad[row, col] += delta
        want = np.abs(bad - bad.conj().T).max()  # base is Hermitian bit for bit: want > 0
        got = _hermiticity_defect(bad)
        assert got == want > 0 or np.isnan(got) and np.isnan(want), (row, col)


def test_hamiltonian_checked_once(monkeypatch):
    calls = []

    def counting(mat):
        calls.append(mat.shape)
        return _hermiticity_defect(mat)

    monkeypatch.setattr(lattice, "_hermiticity_defect", counting)
    spec = LatticeSpec(12, 0.9)
    ham = build_hamiltonian(spec, Hopping.quadratic(), Potential.harmonic(0.2))
    assert len(calls) == 1
    want = _kinetic_matrix(spec, Hopping.quadratic())
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
