"""Eigensolver contract, parity/overlap diagnostics, ladders and sweeps."""

import tracemalloc

import numpy as np
import pytest

from jacobi import jacobi_eigh
from reference import wannier_stark_state
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
from latticeccr.spectral import (
    PARITY_TOL,
    _check_contract,
    _even_states,
    _fix_phases,
    eigenvalues,
)


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


def test_fix_phases_works_in_place():
    vecs = np.array([[-2.0, 1.0], [1.0, 3.0]])
    assert _fix_phases(vecs) is vecs
    assert np.array_equal(vecs, [[2.0, 1.0], [-1.0, 3.0]])


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


@pytest.mark.parametrize(
    "pot",
    [
        Potential.harmonic(0.05),
        Potential.constant(0.3),
        Potential.custom(0.01 * np.abs(_SPEC.sites) ** 3 - 0.2 * np.cos(_SPEC.sites)),
    ],
    ids=["harmonic", "constant", "mirror-custom"],
)
def test_parity_halves_embed_into_the_eigenvectors(pot):
    # the split solve keeps its halves: the even columns' values at m = 0, -1, ..., -c and
    # the odd columns' at m = -1, ..., -c, column-major, each ascending in its parity, are
    # the eigenvectors' entries bit for bit on both sides of the centre
    sr = eigensolve(build_hamiltonian(_SPEC, Hopping.quadratic(), pot))
    order, (even, odd) = sr._halves
    vecs, c = sr.eigenvectors, _SPEC.half_width
    assert even.shape == (c + 1, c + 1) and odd.shape == (c, c)
    assert even.flags.f_contiguous and odd.flags.f_contiguous
    assert np.array_equal(np.sort(order), np.arange(_SPEC.n_sites))
    assert np.all(np.diff(order[: c + 1]) > 0) and np.all(np.diff(order[c + 1 :]) > 0)
    evens, odds = vecs[:, order[: c + 1]], vecs[:, order[c + 1 :]]
    assert np.array_equal(evens[c::-1], even) and np.array_equal(evens[c:], even)
    assert np.array_equal(odds[c - 1 :: -1], odd) and np.array_equal(odds[c + 1 :], -odd)
    assert not odds[c].any()


def test_parity_halves_keep_the_first_index_tie_rule():
    # sites -2 and -1 coupled, as 1 and 2: every vector but e_0 has |v| tied at m = -2 and
    # m = -1, with opposite signs in two of them. Fixed on the halves, each phase still makes
    # the first site's entry positive, as _fix_phases does on the full vectors
    ham = np.diag([1.0, 1.0, 5.0, 1.0, 1.0])
    ham[0, 1] = ham[1, 0] = ham[3, 4] = ham[4, 3] = 0.5
    sr = eigensolve(OperatorMatrix(ham))
    vecs = sr.eigenvectors
    assert sr._halves is not None and np.array_equal(abs(vecs[0, :4]), abs(vecs[1, :4]))
    want = [[1, 1, 1, 1, 0], [-1, -1, 1, 1, 0], [0, 0, 0, 0, 1], [-1, 1, 1, -1, 0], [1, -1, 1, -1, 0]]
    assert np.array_equal(np.sign(vecs), want)
    assert np.array_equal(_fix_phases(vecs.copy()), vecs)


def test_only_split_solves_carry_parity_halves():
    # a linear potential's solve, a mirror-symmetric complex matrix's and a result built by
    # hand (even from a split solve's own arrays) carry none: propagation takes the full basis
    ham = build_hamiltonian(_SPEC, Hopping.quadratic(), Potential.harmonic(0.05))
    split = eigensolve(ham)
    assert split._halves is not None
    linear = build_hamiltonian(_SPEC, Hopping.quadratic(), Potential.linear(0.4))
    assert eigensolve(linear)._halves is None
    assert eigensolve(OperatorMatrix(_mirror_symmetric_complex(_SPEC)))._halves is None
    by_hand = SpectrumResult(split.eigenvalues, split.eigenvectors, split.residual_norm)
    assert by_hand._halves is None


# the 25 spacings of the default sweep and fig1 grid (c = 0.01, x = 0.1 .. 3.0)
_SWEEP_SPACINGS = np.linspace(0.1, 3.0, 25) / 0.01**0.25


@pytest.mark.parametrize(
    "hop", [Hopping.quadratic(), Hopping.cosine()], ids=["quadratic", "cosine"]
)
def test_eigenvalues_match_eigensolve_at_sweep_spacings(hop):
    for a in _SWEEP_SPACINGS:
        ham = build_hamiltonian(LatticeSpec(100, float(a)), hop, Potential.harmonic(0.01))
        vals, ref = eigenvalues(ham), eigensolve(ham).eigenvalues
        assert np.all(np.diff(vals) >= 0)
        assert np.all(np.abs(vals - ref) <= 1e-12 * np.abs(ref))


def _record_eigvalsh(monkeypatch, shift=None):
    """Record the shape of every eigvalsh call; shift(vals) may alter its result."""
    shapes, original = [], np.linalg.eigvalsh

    def fake(mat):
        shapes.append(mat.shape)
        vals = original(mat)
        return vals if shift is None else shift(vals)

    monkeypatch.setattr(np.linalg, "eigvalsh", fake)
    return shapes


def test_eigenvalues_solve_the_parity_blocks(monkeypatch):
    shapes = _record_eigvalsh(monkeypatch)
    ham = build_hamiltonian(LatticeSpec(100, 1.0), Hopping.quadratic(), Potential.harmonic(0.01))
    eigenvalues(ham)
    assert shapes == [(101, 101), (100, 100)]


@pytest.mark.parametrize(
    "mat",
    [
        build_hamiltonian(_SPEC, Hopping.quadratic(), Potential.linear(0.4)).matrix,
        _mirror_symmetric_complex(_SPEC),
    ],
    ids=["linear", "complex"],
)
def test_eigenvalues_of_other_matrices_are_the_whole_solve(mat, monkeypatch):
    ref = np.linalg.eigvalsh(mat)
    shapes = _record_eigvalsh(monkeypatch)
    vals = eigenvalues(OperatorMatrix(mat))
    assert shapes == [mat.shape]
    assert np.array_equal(vals, ref)
    whole = eigensolve(OperatorMatrix(mat)).eigenvalues
    assert np.abs(vals - whole).max() <= 1e-12 * np.abs(ref).max()


def test_eigenvalues_tie_puts_even_first():
    # diag(2, 5, 2): the even block holds 2 and 5, the odd block 2
    assert np.array_equal(eigenvalues(OperatorMatrix(np.diag([2.0, 5.0, 2.0]))), [2.0, 2.0, 5.0])


def _shift_one(delta):
    def shift(vals):
        vals = vals.copy()
        vals[0] += delta
        return vals
    return shift


def _shift_pair(delta):
    # the sum stays, the sum of squares moves by 2 delta (vals[-1] - vals[0]) + 2 delta^2
    def shift(vals):
        vals = vals.copy()
        vals[0] -= delta
        vals[-1] += delta
        return vals
    return shift


# a wrong eigenvalue and the identity it fails
_WRONG_EIGENVALUE = pytest.mark.parametrize(
    "shift, identity",
    [
        (_shift_one(1e-4), "trace identity"),
        (_shift_one(np.nan), "trace identity"),
        (_shift_pair(1e-4), "Frobenius identity"),
    ],
    ids=["shifted", "nan", "trace-preserving"],
)


@_WRONG_EIGENVALUE
def test_eigenvalues_contract_rejects_a_wrong_block_eigenvalue(shift, identity, monkeypatch):
    # bound = 1e-10 * |H|_max * N, about 1.04e-6 here: a shift of 1e-4 is 96 times it
    ham = build_hamiltonian(LatticeSpec(100, 1.0), Hopping.quadratic(), Potential.harmonic(0.01))
    assert 1e-4 > 50 * 1e-10 * np.abs(ham.matrix).max() * ham.dimension
    eigenvalues(ham)
    _record_eigvalsh(monkeypatch, shift)
    with pytest.raises(ToleranceError, match=identity):
        eigenvalues(ham)


def test_eigenvalues_contract_rejects_opposite_errors_in_the_two_blocks(monkeypatch):
    # +1e-4 on the even block's lowest eigenvalue and -1e-4 on the odd block's keep the
    # whole matrix's trace and move its Frobenius sum by less than that identity's bound;
    # each block's own trace identity is off by 96 times the bound
    ham = build_hamiltonian(LatticeSpec(100, 1.0), Hopping.quadratic(), Potential.harmonic(0.01))

    def shift(vals):
        return _shift_one(1e-4 if len(vals) == 101 else -1e-4)(vals)

    shapes = _record_eigvalsh(monkeypatch, shift)
    with pytest.raises(ToleranceError, match="trace identity"):
        eigenvalues(ham)
    assert shapes[0] == (101, 101)


def test_eigenvalues_contract_near_the_float_range():
    # entries near 1e160 square past the float range; the scaled check must still pass
    ham = build_hamiltonian(LatticeSpec(100, 1.0), Hopping.quadratic(), Potential.harmonic(0.01))
    big = OperatorMatrix(ham.matrix * 2.0**530)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.sum(big.matrix**2))
    ref = eigenvalues(ham) * 2.0**530
    assert np.all(np.abs(eigenvalues(big) - ref) <= 1e-12 * ref)


def _assert_even_columns(ham, sr):
    # the even halves, rows m = 0, -1, ..., -c, are eigensolve's: its kept halves and the
    # upper half of its even columns reversed, bit for bit
    index, vals, half = _even_states(ham)
    even = np.flatnonzero(np.all(sr.eigenvectors == sr.eigenvectors[::-1], axis=0))
    assert np.array_equal(index, even)
    assert np.array_equal(vals, sr.eigenvalues[even])
    assert np.array_equal(half, sr.eigenvectors[ham.dimension // 2 :: -1, even])
    assert np.array_equal(half, sr._halves[1][0]) and half.flags.f_contiguous


_M100 = LatticeSpec(100, 1.0)


@pytest.mark.parametrize(
    "pot",
    [
        Potential.harmonic(1.0),
        Potential.harmonic(0.1),
        Potential.harmonic(0.01),
        Potential.custom(1e-6 * _M100.sites**4),
    ],
    ids=["fig2-c1", "fig2-c0.1", "fig2-c0.01-and-fig3", "mirror-custom"],
)
def test_even_states_are_eigensolves_even_columns(pot):
    # no even and odd eigenvalue lie within 4e-5 of each other here, far above the 5e-12
    # by which the odd block's eigvalsh and eigh values differ, so the indices agree
    ham = build_hamiltonian(_M100, Hopping.quadratic(), pot)
    _assert_even_columns(ham, eigensolve(ham))


def test_even_states_are_eigensolves_even_columns_wide(parity_solve):
    _assert_even_columns(*parity_solve)


def test_even_states_tie_puts_even_first():
    # diag(2, 5, 2): the even block holds 2 and 5, the odd block 2
    index, vals, half = _even_states(OperatorMatrix(np.diag([2.0, 5.0, 2.0])))
    assert np.array_equal(index, [0, 2]) and np.array_equal(vals, [2.0, 5.0])
    r = 1 / np.sqrt(2.0)
    assert np.array_equal(half, [[0.0, 1.0], [r, 0.0]])  # rows m = 0 and m = -1


def test_even_states_need_a_parity_split(monkeypatch):
    ham = build_hamiltonian(_M100, Hopping.quadratic(), Potential.linear(0.4))
    with pytest.raises(ValueError, match="no parity split"):
        _even_states(ham)

    # the refusal comes from the blocks alone, before any LAPACK call
    def refused(*args, **kwargs):
        raise AssertionError("a matrix with no parity split was solved")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    with pytest.raises(ValueError, match="no parity split"):
        _even_states(ham)


def test_even_states_hold_the_even_block_to_the_contract(monkeypatch):
    ham = build_hamiltonian(_M100, Hopping.quadratic(), Potential.harmonic(0.01))
    original = np.linalg.eigh

    def shifted(mat):
        vals, vecs = original(mat)
        return vals + 1e-4, vecs

    monkeypatch.setattr(np.linalg, "eigh", shifted)
    with pytest.raises(ToleranceError, match="eigensolve residual"):
        _even_states(ham)


@_WRONG_EIGENVALUE
def test_even_states_hold_the_odd_eigenvalues_to_the_identities(shift, identity, monkeypatch):
    # the odd block has no vectors, so a wrong odd eigenvalue must fail the identities
    ham = build_hamiltonian(_M100, Hopping.quadratic(), Potential.harmonic(0.01))
    _even_states(ham)
    shapes = _record_eigvalsh(monkeypatch, shift)
    with pytest.raises(ToleranceError, match=identity):
        _even_states(ham)
    assert shapes == [(100, 100)]


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


@pytest.mark.parametrize(
    "pot", [Potential.harmonic(0.01), Potential.linear(0.4)], ids=["parity", "whole"]
)
def test_diagnose_states_labels_parity_a_tile_at_a_time(pot):
    # the parity norms and the centers <x> = x @ |v|^2 reduce a tile of columns at a time, so
    # no N x N temporary is formed: at M = 400 the call traces within 0.6 times the
    # eigenvectors' bytes (0.48 measured, the tiles' temporaries and the diagnostics; 1.05
    # when |v|^2 was formed whole, 2.0 when v -+ Rv were too). With one BLAS thread each
    # tile's GEMV is the whole one's bit for bit (the spectrum digests hold it); a threaded
    # GEMV splits its sums otherwise, so here the centers are held to the GEMV's own bound
    # N eps |x| @ |v|^2 (6.4 eps |x| @ |v|^2 measured with two threads)
    spec = LatticeSpec(400, 1.0)
    sr = eigensolve(build_hamiltonian(spec, Hopping.quadratic(), pot))
    tracemalloc.start()
    try:
        diags = diagnose_states(sr, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * sr.eigenvectors.nbytes
    labels = {d.parity for d in diags}
    assert labels == ({"even", "odd"} if pot.kind == "harmonic" else {"none"})
    prob = np.abs(sr.eigenvectors) ** 2
    err = np.abs([d.center for d in diags] - spec.positions @ prob)
    assert np.all(err <= len(prob) * np.finfo(float).eps * (np.abs(spec.positions) @ prob))


def test_threshold_estimate_values():
    assert threshold_estimate(1.0, 0.01) == pytest.approx(30.0)
    assert threshold_estimate(1.0, 1.0) == pytest.approx(3.0)
    base = threshold_estimate(1.0, 0.04)
    assert threshold_estimate(2.0, 0.04) == pytest.approx(base / 4)


def test_harmonic_sweep_continuum_region():
    sweep = harmonic_sweep(0.01, [0.5, 1.0], states_per_point=np.int64(8), half_width=60)
    assert sweep.index.tolist() == [*range(8)] * 2  # a numpy integer counts the states
    below = sweep.ac_quarter < 1.0
    ratios = sweep.e_over_sqrt_c[below] / (sweep.index[below] + 0.5)
    assert np.abs(ratios - 1.0).max() < 0.01
    assert np.all(sweep.e_over_sqrt_c >= 0.0)
    assert np.allclose(sweep.reference, 3.0 / sweep.ac_quarter**2)


@pytest.mark.parametrize("states", [-1, 0, 2.5, 3.0, "3"])
def test_harmonic_sweep_refuses_states_per_point_below_one(states):
    # -1 would slice [:-1] and keep all but one state, 0 none and 2.5 fail in numpy
    with pytest.raises(ValueError, match="states_per_point must be an integer >= 1"):
        harmonic_sweep(0.01, [1.0], states_per_point=states, half_width=10)


def test_harmonic_sweep_reads_its_spacings_once():
    # an empty list gives an empty table, and a generator, read once, the list's table
    empty = harmonic_sweep(0.01, [], states_per_point=4, half_width=10)
    for column in (empty.ac_quarter, empty.index, empty.e_over_sqrt_c, empty.reference):
        assert column.shape == (0,)
    spacings = [0.5, 1.25, 2.0]
    listed = harmonic_sweep(0.01, spacings, states_per_point=30, half_width=10)
    generated = harmonic_sweep(0.01, (a for a in spacings), states_per_point=30, half_width=10)
    assert listed.index.tolist() == [*range(21)] * 3  # states_per_point capped at N = 21
    for got, want in zip(vars(generated).values(), vars(listed).values()):
        assert np.array_equal(got, want)


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


def _combination_separations(sr, spec, gap_tol):
    """The separations as degenerate_pairs once formed them: the centers of both
    combinations (v_j +- v_{j+1})/sqrt(2), each summed over the window."""
    vals, vecs, x = sr.eigenvalues, sr.eigenvectors, spec.positions
    out = []
    for j in np.flatnonzero(np.diff(vals) < gap_tol):
        plus = (vecs[:, j] + vecs[:, j + 1]) / np.sqrt(2.0)
        minus = (vecs[:, j] - vecs[:, j + 1]) / np.sqrt(2.0)
        c_plus, c_minus = (float(np.sum(x * np.abs(v) ** 2)) for v in (plus, minus))
        out.append(abs(c_plus - c_minus))
    return out


@pytest.mark.parametrize("c", [0.01, 1.0])
def test_degenerate_pairs_separation_is_the_transition_dipole(c):
    # |c_+ - c_-| = 2 |Re <v_j| x |v_{j+1}>| for real and for complex columns (each column
    # given a phase here); separations up to 600 (a = 3) agree to 1e-13 relative
    spec, sr = harmonic_spectrum(100, 3.0, c)
    phased = sr.eigenvectors * np.exp(0.7j * np.arange(spec.n_sites))
    for vecs in (sr.eigenvectors, phased):
        spectrum = SpectrumResult(sr.eigenvalues, vecs, sr.residual_norm)
        pairs = degenerate_pairs(spectrum, spec, gap_tol=0.1)
        assert len(pairs) == 100
        want = _combination_separations(spectrum, spec, gap_tol=0.1)
        assert [p.center_separation for p in pairs] == pytest.approx(want, rel=1e-13)


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


def test_wannier_stark_analysis_reduces_centers_a_tile_at_a_time():
    # the site centers <m> = m @ |v|^2 reduce a tile of columns at a time: at M = 400 the call
    # traces within 0.5 times the eigenvectors' bytes (0.34 measured, 2.01 when |v|^2 and
    # m |v|^2 were formed whole); the centers are held to the GEMV's own bound N eps |m| @ |v|^2
    spec = LatticeSpec(400, 1.0)
    sr = eigensolve(build_hamiltonian(spec, Hopping.quadratic(), Potential.linear(0.4)))
    tracemalloc.start()
    try:
        report = wannier_stark_analysis(sr, spec, force=0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * sr.eigenvectors.nbytes
    prob = np.abs(sr.eigenvectors[:, report.state_indices]) ** 2
    err = np.abs(report.centers - spec.sites @ prob)
    assert np.all(err <= len(prob) * np.finfo(float).eps * (np.abs(spec.sites) @ prob))


def _oracle_distances(hop, half_width, n, force=0.4):
    """max |psi - v| and |E - E_n| between the closed-form Wannier-Stark state centred on
    site n (a = 1) and the window eigenvector whose site center is nearest n, after removing
    a global phase."""
    spec = LatticeSpec(half_width, 1.0)
    sr = eigensolve(build_hamiltonian(spec, hop, Potential.linear(force)))
    j = int(np.argmin(np.abs(spec.sites @ np.abs(sr.eigenvectors) ** 2 - n)))
    psi, energy = wannier_stark_state(hop.kind, 1.0, force, n, spec.sites)
    v = sr.eigenvectors[:, j]
    overlap = np.vdot(psi, v)
    return np.abs(v - overlap / abs(overlap) * psi).max(), abs(sr.eigenvalues[j] - energy)


@pytest.mark.parametrize("n", [0, -30])
def test_wannier_stark_states_match_the_closed_form_for_cosine_hopping(n):
    # nearest-neighbour hopping: the window state is the infinite lattice's to rounding
    # (2.2e-15 in the state and 1.8e-15 in the energy at M = 100, F = 0.4)
    psi_err, energy_err = _oracle_distances(Hopping.cosine(), 100, n)
    assert psi_err <= 1e-13 and energy_err <= 1e-13


@pytest.mark.parametrize("n", [0, -30])
def test_wannier_stark_states_converge_to_the_closed_form_for_quadratic_hopping(n):
    # the window drops the 1/d^2 hopping tails, so the state and the ladder energy differ from
    # the infinite lattice's (F = 0.4: max |dpsi| 1.2e-7 and 2.7e-7, |dE| 4.2e-9 and 1.3e-8
    # at M = 100); doubling M shrinks them 17.6x and 27x, and 32x and 37x
    (psi_100, energy_100), (psi_200, energy_200) = (
        _oracle_distances(Hopping.quadratic(), half_width, n) for half_width in (100, 200)
    )
    assert psi_200 * 10 <= psi_100 and energy_200 * 20 <= energy_100


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


@pytest.mark.parametrize(
    "analyse",
    [
        diagnose_states,
        lambda sr, spec: degenerate_pairs(sr, spec, gap_tol=1.0),
        lambda sr, spec: wannier_stark_analysis(sr, spec, force=0.4),
    ],
    ids=["diagnose_states", "degenerate_pairs", "wannier_stark_analysis"],
)
def test_diagnostics_refuse_a_spectrum_of_another_window(analyse):
    hop, pot = Hopping.cosine(), Potential.linear(0.4)
    sr = eigensolve(build_hamiltonian(LatticeSpec(20, 1.0), hop, pot))
    for other in (LatticeSpec(10, 1.0), LatticeSpec(30, 1.0)):
        with pytest.raises(ValueError, match=f"41 sites on a window of {other.n_sites}"):
            analyse(sr, other)
