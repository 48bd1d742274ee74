"""Spectral propagation, Heisenberg oracles, and CCR trajectory models."""

import warnings

import numpy as np
import pytest

from latticeccr import (
    GaussianPacket,
    Hopping,
    LatticeSpec,
    LeakageError,
    Potential,
    SpectrumResult,
    StateVector,
    ToleranceError,
    alternating_overlap,
    build_hamiltonian,
    build_position,
    build_quasi_momentum,
    ccr_position_harmonic,
    ccr_position_linear,
    eigensolve,
    exact_position_linear,
    expectation,
    make_gaussian,
    propagate,
    run_timeseries,
)
from latticeccr import dynamics, lattice
from latticeccr.dynamics import CHUNK, LEAK_WARN, _phases
from reference import commutator


def moments(psi, spec):
    """Initial <x> and <k>, on which the CCR models close."""
    k = build_quasi_momentum(spec)
    return expectation(psi, spec.positions).real, expectation(psi, k).real


def test_packet_validation():
    with pytest.raises(ValueError):
        GaussianPacket(0, -0.1)
    spec = LatticeSpec(10, 1.0)
    with pytest.raises(ValueError):
        make_gaussian(spec, GaussianPacket(10, 0.2))


def test_packet_delta_limit():
    spec = LatticeSpec(20, 1.0)
    psi = make_gaussian(spec, GaussianPacket(3, 50.0))
    amp = np.abs(psi.amplitudes)
    assert amp[3 + 20] == pytest.approx(1.0, abs=1e-12)
    from latticeccr import alternating_overlap

    assert alternating_overlap(psi) == pytest.approx((-1.0) ** 3, abs=1e-12)


def test_packet_symmetric_expectations():
    spec = LatticeSpec(40, 1.0)
    psi = make_gaussian(spec, GaussianPacket(0, 0.2))
    assert abs(expectation(psi, spec.positions)) < 1e-12
    assert abs(expectation(psi, build_quasi_momentum(spec))) < 1e-12


def test_packet_leakage_warning():
    spec = LatticeSpec(12, 1.0)
    hop, pot = Hopping.quadratic(), Potential.constant(0.0)
    sr = eigensolve(build_hamiltonian(spec, hop, pot))
    with pytest.warns(UserWarning, match="initial packet has boundary amplitude"):
        run_timeseries(spec, hop, pot, [GaussianPacket(0, 0.01)], [0.0], sr=sr, leak_fail=1.0)
    # the check follows leak_warn, not the 1e-10 default
    packet = GaussianPacket(0, 0.1)
    edge = abs(make_gaussian(spec, packet).amplitudes[0])
    assert 1e-10 < edge < 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_timeseries(spec, hop, pot, [packet], [0.0], sr=sr, leak_warn=1e-3)


@pytest.fixture(scope="module")
def linear_system():
    spec = LatticeSpec(96, 1.0)
    hop = Hopping.quadratic()
    pot = Potential.linear(0.4)
    sr = eigensolve(build_hamiltonian(spec, hop, pot))
    return spec, hop, pot, sr


def test_propagate_identity_at_zero(linear_system):
    spec, hop, pot, sr = linear_system
    psi = make_gaussian(spec, GaussianPacket(0, 0.2))
    out = propagate(psi, sr, 0.0)
    assert np.abs(out.amplitudes - psi.amplitudes).max() < 1e-12


def test_propagate_eigenstate_is_stationary(linear_system):
    spec, hop, pot, sr = linear_system
    out = propagate(StateVector(sr.eigenvectors[:, 40], normalized=True), sr, 3.7)
    phase = np.exp(-1j * sr.eigenvalues[40] * 3.7)
    assert np.abs(out.amplitudes - phase * sr.eigenvectors[:, 40]).max() < 1e-12


def test_propagate_unitary_and_energy_conserving(linear_system):
    spec, hop, pot, sr = linear_system
    psi = make_gaussian(spec, GaussianPacket(0, 0.1))
    ham = build_hamiltonian(spec, hop, pot)
    e0 = expectation(psi, ham).real
    for t in (0.5, 4.0, 17.3):
        out = propagate(psi, sr, t)
        assert abs(out.norm - 1.0) < 1e-10
        assert abs(expectation(out, ham).real - e0) < 1e-10


def test_propagate_dimension_mismatch(linear_system):
    _, _, _, sr = linear_system
    bad = make_gaussian(LatticeSpec(10, 1.0), GaussianPacket(0, 0.5))
    with pytest.raises(ValueError):
        propagate(bad, sr, 1.0)


def test_exact_position_at_zero_and_period(linear_system):
    spec, hop, pot, sr = linear_system
    psi = make_gaussian(spec, GaussianPacket(2, 0.2))
    x0 = expectation(psi, spec.positions).real
    assert exact_position_linear(psi, spec, hop, 0.4, 0.0) == pytest.approx(x0, abs=1e-12)
    period = 2 * np.pi / 0.4
    assert exact_position_linear(psi, spec, hop, 0.4, period) == pytest.approx(x0, abs=1e-12)
    assert period == pytest.approx(15.70796, abs=1e-5)


def test_exact_position_matches_propagation(linear_system):
    spec, hop, pot, sr = linear_system
    psi = make_gaussian(spec, GaussianPacket(0, 0.2))
    for t in (1.0, 5.0, 12.0):
        out = propagate(psi, sr, t)
        xm = expectation(out, spec.positions).real
        assert exact_position_linear(psi, spec, hop, 0.4, t) == pytest.approx(xm, abs=1e-6)


@pytest.mark.parametrize("hop", [Hopping.cosine(), Hopping.quadratic()], ids=["R1", "R64"])
@pytest.mark.parametrize("steps", [1, 3, CHUNK + 1, CHUNK + CHUNK // 2 + 1, 5 * CHUNK + 2])
def test_exact_position_blocks_match_one_piece(hop, steps):
    # the bracket evolves through _phases chunk by chunk; the series is bit-identical to
    # the one rule's written out. These grids are k * dt: over CHUNK points every chunk
    # takes the first chunk's block. Centred at 0 the packet has x0 near 0, so the series
    # keeps the chunk sums' last bits
    spec, force = LatticeSpec(32, 0.7), -0.55
    ts = np.linspace(0.0, 30.0, steps)
    assert steps < 2 or np.array_equal(ts, np.arange(steps) * ts[1])
    for center in (3, 0):
        psi = make_gaussian(spec, GaussianPacket(center, 0.05, k0=0.4))
        want = one_rule_series(psi, spec, hop, force, ts)
        assert np.array_equal(exact_position_linear(psi, spec, hop, force, ts), want)


@pytest.mark.parametrize("hop", [Hopping.cosine(), Hopping.quadratic()], ids=["R1", "R64"])
@pytest.mark.parametrize("steps", [CHUNK + 1, CHUNK + CHUNK // 2 + 1, 5 * CHUNK + 2])
def test_exact_position_blocks_match_one_piece_off_the_step_grid(hop, steps):
    # a grid that is not k * dt: each chunk takes its own block from its first time, down
    # to a last chunk of one time, bit for bit
    spec, force = LatticeSpec(32, 0.7), -0.55
    psi = make_gaussian(spec, GaussianPacket(3, 0.05, k0=0.4))
    ts = np.linspace(0.0, 30.0, steps) ** 1.01
    assert not np.array_equal(ts, np.arange(steps) * ts[1])
    want = one_rule_series(psi, spec, hop, force, ts)
    assert np.array_equal(exact_position_linear(psi, spec, hop, force, ts), want)


def bracket_weights(psi, spec, hop):
    """The hopping ranges n and the weights t_n <T_n> of exact_position_linear's bracket."""
    _, amps = hop.terms(spec)
    n = np.arange(1, len(amps) + 1)
    amp = psi.amplitudes
    return n, amps * np.array([np.vdot(amp[r:], amp[:-r]) for r in n])


def one_rule_series(psi, spec, hop, force, ts):
    """exact_position_linear's series by the one phase rule, written out here: the modes
    r = (a F) n; in the chunk from t_s (0 for the first chunk) the block
    e^{-i r (t - t_s)}, on a k * dt grid over CHUNK times the first chunk's block for every
    chunk, and the column e^{-i r t_s}; each chunk's sums (weights * column) @ block, less
    the weights' sum."""
    n, weights = bracket_weights(psi, spec, hop)
    x0 = expectation(psi, spec.positions).real
    rates = spec.spacing * force * n
    step = len(ts) > CHUNK and np.array_equal(ts, np.arange(len(ts)) * ts[1])
    first = np.exp(-1j * np.outer(rates, ts[:CHUNK]))
    sums = []
    for start in range(0, len(ts), CHUNK):
        origin = ts[start] if start else 0.0
        offsets = ts[start : start + CHUNK] - origin
        block = first[:, : len(offsets)] if step else np.exp(-1j * np.outer(rates, offsets))
        sums.append((weights * np.exp(-1j * (rates * origin))) @ block)
    return x0 - 2.0 * (np.concatenate(sums) - weights.sum()).real / force


def direct_series(psi, spec, hop, force, ts):
    """exact_position_linear's series from the direct bracket (e^{-i a n F t} - 1) weights,
    built whole and summed by row."""
    n, weights = bracket_weights(psi, spec, hop)
    x0 = expectation(psi, spec.positions).real
    bracket = -1j * spec.spacing * force * np.outer(ts, n)
    np.exp(bracket, out=bracket)
    bracket -= 1.0
    bracket *= weights
    return x0 - 2.0 * np.real(bracket).sum(axis=1) / force


def assert_within_direct_bound(hop, times):
    """On the long-evolution Bloch window, the phases block * column stay within
    4 eps (1 + |E| t) of the direct exp(-i E t), and the oracle within 4 eps of |x| plus
    its bracket's weights times (1 + a n |F| t) of the direct bracket's series."""
    spec, force = LatticeSpec(288, 1.0), 0.5
    sr = eigensolve(build_hamiltonian(spec, hop, Potential.linear(force)))
    eps = np.finfo(float).eps
    for start, block, column in _phases(sr.eigenvalues, times):
        et = np.outer(sr.eigenvalues, times[start : start + CHUNK])
        err = np.abs(block * column[:, None] - np.exp(-1j * et))
        assert np.all(err <= 4 * eps * (1 + np.abs(et)))
    psi = make_gaussian(spec, GaussianPacket(10, 0.05, k0=0.3))
    want = direct_series(psi, spec, hop, force, times)
    n, weights = bracket_weights(psi, spec, hop)
    rates = spec.spacing * n * abs(force)
    spread = 2 * (np.abs(weights) * (1 + rates * times[:, None])).sum(axis=1)
    err = np.abs(exact_position_linear(psi, spec, hop, force, times) - want)
    assert np.all(err <= 4 * eps * (np.abs(want) + spread / abs(force)))
    assert err.max() > 0  # the oracle's sum is not the direct bracket's


@pytest.mark.parametrize("hop", [Hopping.cosine(), Hopping.quadratic()], ids=lambda h: h.kind)
def test_factored_forms_stay_within_the_direct_bound(hop):
    # the long-evolution Bloch grid, k * dt over CHUNK points with |E| t up to 5.5e3
    assert_within_direct_bound(hop, np.arange(3 * 400 + 1) * (2 * np.pi / 0.5 / 400))


@pytest.mark.parametrize("hop", [Hopping.cosine(), Hopping.quadratic()], ids=lambda h: h.kind)
def test_offset_forms_off_the_step_grid_stay_within_the_direct_bound(hop):
    # three chunks that are not k * dt, each offset from its own first time
    times = np.linspace(0.0, 40.0, 2 * CHUNK + 9) ** 1.01
    assert not np.array_equal(times, np.arange(len(times)) * times[1])
    assert_within_direct_bound(hop, times)


def test_phases_off_the_step_grid_are_the_direct_ones():
    # a grid that is not k * dt, a k * dt grid of CHUNK points and propagate's single time:
    # bit for bit, each chunk's block is the direct exp(-i E (t - t_s)) of its own times and
    # its column exp(-i E t_s), t_s its first time and 0 for the first chunk, whose block is
    # thus the direct exp(-i E t)
    spec = LatticeSpec(40, 1.0)
    sr = eigensolve(build_hamiltonian(spec, Hopping.quadratic(), Potential.linear(0.5)))
    for times in (np.linspace(0.0, 40.0, 2 * CHUNK + 9) ** 1.01, np.arange(CHUNK) * 0.1, [12.5]):
        times = np.asarray(times)
        starts = []
        for start, block, column in _phases(sr.eigenvalues, times):
            origin = times[start] if start else 0.0
            offsets = times[start : start + CHUNK] - origin
            assert np.array_equal(block, np.exp(-1j * np.outer(sr.eigenvalues, offsets)))
            assert np.array_equal(column, np.exp(-1j * (sr.eigenvalues * origin)))
            starts.append(start)
        assert starts == list(range(0, len(times), CHUNK))


def test_exact_position_free_limit():
    # at F = 0 the bracket (e^{-i a n F t} - 1)/F takes its limit -i a n t
    spec = LatticeSpec(64, 1.0)
    hop, pot = Hopping.cosine(), Potential.linear(0.0)
    sr = eigensolve(build_hamiltonian(spec, hop, pot))
    psi = make_gaussian(spec, GaussianPacket(0, 0.2, k0=0.3))
    ts = np.array([0.0, 1.0, 5.0, 12.0])
    free = exact_position_linear(psi, spec, hop, 0.0, ts)
    want = [expectation(propagate(psi, sr, t), spec.positions).real for t in ts]
    assert np.abs(free - want).max() < 1e-12
    assert free[-1] - free[0] > 1.0  # the kicked packet moves
    assert exact_position_linear(psi, spec, hop, 0.0, 5.0) == pytest.approx(free[2], abs=1e-15)


def test_exact_position_cosine_amplitude_bound():
    spec = LatticeSpec(64, 1.0)
    psi = make_gaussian(spec, GaussianPacket(0, 0.2))
    force = 0.4
    t1 = 0.5  # nearest-neighbour amplitude at a = 1
    ts = np.linspace(0.0, 4 * np.pi / force, 200)
    xs = exact_position_linear(psi, spec, Hopping.cosine(), force, ts)
    x0 = xs[0]
    assert np.abs(xs - x0).max() <= 4 * t1 / force + 1e-12


def test_ccr_linear_values(linear_system):
    spec, hop, pot, sr = linear_system
    x0, k0 = moments(make_gaussian(spec, GaussianPacket(0, 0.2)), spec)
    assert ccr_position_linear(x0, k0, 0.4, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert ccr_position_linear(x0, k0, 0.4, 1.0) == pytest.approx(0.2, abs=1e-10)
    # unbounded growth, unlike the periodic exact solution
    assert ccr_position_linear(x0, k0, 0.4, 100.0) > 100


def test_ccr_harmonic_values():
    spec = LatticeSpec(60, 1.0)
    x0, k0 = moments(make_gaussian(spec, GaussianPacket(-20, 0.2)), spec)
    c = 0.01
    assert ccr_position_harmonic(x0, k0, c, 0.0) == pytest.approx(-20.0, abs=1e-9)
    quarter = np.pi / (2 * np.sqrt(c))
    assert ccr_position_harmonic(x0, k0, c, quarter) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        ccr_position_harmonic(x0, k0, -1.0, 1.0)


def test_ccr_periodic_kinetic_period_and_slope():
    # the CCR trajectory of the cosine kinetic energy is its Heisenberg solution
    spec = LatticeSpec(64, 1.0)
    force, hop = 0.4, Hopping.cosine()
    psi = make_gaussian(spec, GaussianPacket(0, 0.2, k0=0.3))
    x0 = expectation(psi, spec.positions).real
    period = 2 * np.pi / force
    assert exact_position_linear(psi, spec, hop, force, period) == pytest.approx(x0, abs=1e-12)
    # short-time slope equals <sin(a k)>/a = Im<T_1>
    h = 1e-6
    slope = (exact_position_linear(psi, spec, hop, force, h) - x0) / h
    amp = psi.amplitudes
    want = -np.imag(np.vdot(amp[1:], amp[:-1]))  # <sin(a k)> = -Im<T_1>
    assert slope == pytest.approx(want, abs=1e-5)


def test_ccr_periodic_kinetic_equals_exact_cosine_solution():
    spec = LatticeSpec(64, 1.0)
    hop, pot = Hopping.cosine(), Potential.linear(0.4)
    sr = eigensolve(build_hamiltonian(spec, hop, pot))
    grid = np.linspace(0.0, 30.0, 121)
    (ts,) = run_timeseries(spec, hop, pot, [GaussianPacket(0, 0.05)], grid, sr)
    assert ts.x_ccr is ts.x_exact_oracle


def test_run_timeseries_grid_validation(linear_system):
    spec, hop, pot, sr = linear_system
    packet = GaussianPacket(0, 0.2)
    with pytest.raises(ValueError):
        run_timeseries(spec, hop, pot, [packet], [], sr=sr)
    with pytest.raises(ValueError):
        run_timeseries(spec, hop, pot, [packet], [0.0, 0.0, 1.0], sr=sr)
    assert run_timeseries(spec, hop, pot, [], [0.0, 1.0], sr) == []


@pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_run_timeseries_refuses_a_non_finite_time(linear_system, bad, where):
    # NaN compares false and +inf ascends, so the ascending check alone lets both through
    spec, hop, pot, sr = linear_system
    grid = [0.0, 1.0, 2.0]
    grid[where] = bad
    with pytest.raises(ValueError, match="t_grid must be finite"):
        run_timeseries(spec, hop, pot, [GaussianPacket(0, 0.2)], grid, sr)


@pytest.mark.parametrize("kind", ["harmonic", "linear"])
def test_ccr_models_take_each_packets_own_k0(kind, monkeypatch):
    # the k0 handed to the CCR model, -Im sum conj(po) (M pe) over the packet's reflection
    # halves, is <k> of the quasi-momentum matrix within 4 eps relative, for kicked
    # packets on two windows
    models = {"harmonic": "ccr_position_harmonic", "linear": "ccr_position_linear"}
    model = getattr(dynamics, models[kind])
    seen = []

    def recorded(x0, k0, *rest):
        seen.append(k0)
        return model(x0, k0, *rest)

    monkeypatch.setattr(dynamics, models[kind], recorded)
    pot = Potential.harmonic(0.01) if kind == "harmonic" else Potential.linear(0.4)
    hop, kicks = Hopping.quadratic(), ((-10, 0.2, 0.7), (15, 0.05, -1.9), (0, 0.02, 0.3))
    packets = [GaussianPacket(center, falloff, k0=k0) for center, falloff, k0 in kicks]
    for half_width in (96, 288):
        spec = LatticeSpec(half_width, 1.0)
        sr = eigensolve(build_hamiltonian(spec, hop, pot))
        seen.clear()
        run_timeseries(spec, hop, pot, packets, [0.0, 1.0], sr)
        assert len(seen) == len(packets)
        kop = build_quasi_momentum(spec)
        for packet, k0 in zip(packets, seen):
            want = expectation(make_gaussian(spec, packet), kop).real
            assert abs(k0 - want) <= 4 * np.finfo(float).eps * abs(want), (packet, k0, want)


def test_reflection_block_is_the_quasi_momentum_bit_for_bit():
    # M[i - 1, j] = S[c + i, c + j] + S[c + i, c - j] for j > 0 and S[c + i, c] in column 0:
    # the same kernel entries as the N x N matrix's, summed once
    spec = LatticeSpec(37, 0.7)
    c, s_mat = spec.half_width, build_quasi_momentum(spec).matrix.imag
    m = dynamics._reflection_block(spec)
    assert m.shape == (c, c + 1)
    assert np.array_equal(m[:, 1:], s_mat[c + 1 :, c + 1 :] + s_mat[c + 1 :, c - 1 :: -1])
    assert np.array_equal(m[:, 0], s_mat[c + 1 :, c])


def full_basis_block(spec, hop, pot, packet, times):
    """The spectrum, the packet's _coefficients, the first chunk's phase block and column,
    and that chunk's block V @ phased on the full basis."""
    sr = eigensolve(build_hamiltonian(spec, hop, pot))
    coeff = dynamics._coefficients(make_gaussian(spec, packet), sr)
    ((_, phases, column),) = _phases(sr.eigenvalues, times)
    return sr, coeff, phases, column, dynamics._block(sr.eigenvectors, phases, column, coeff)


@pytest.mark.parametrize(
    "hop, pot, packet",
    [
        (Hopping.quadratic(), Potential.linear(0.4), GaussianPacket(5, 0.05, k0=0.9)),
        (Hopping.quadratic(), Potential.harmonic(0.01), GaussianPacket(-20, 0.1, k0=0.4)),
    ],
    ids=["bloch", "harmonic"],
)
def test_momentum_from_reflection_halves_matches_the_full_product(hop, pot, packet):
    # <k> |psi|^2 = -Im sum conj(po) (M pe) against the full-basis -2 u.(S v) with the N x N
    # S, at a = 0.7: within 16 eps ||S|| |psi|^2, ||S|| <= pi / a (4.5 eps measured)
    spec = LatticeSpec(96, 0.7)
    times = np.arange(CHUNK) * 0.37
    *_, block = full_basis_block(spec, hop, pot, packet, times)
    u, v = block.real, block.imag
    want = -2.0 * (u * (build_quasi_momentum(spec).matrix.imag @ v)).sum(axis=0)
    got = dynamics._momentum(block, dynamics._reflection_block(spec))
    bound = 16 * np.finfo(float).eps * (np.pi / spec.spacing) * (u * u + v * v).sum(axis=0)
    assert np.all(np.abs(got - want) <= bound)
    assert np.abs(got).min() > 1e3 * bound.max()  # moving packets: the bound is relative


@pytest.mark.parametrize("hop", [Hopping.cosine(), Hopping.quadratic()], ids=lambda h: h.kind)
def test_parity_block_matches_the_full_product(hop):
    # psi_{-+i} = E_i +- L_i from the spectrum's parity halves, E of the even columns and L
    # of the odd ones, against the full V @ phased: within 16 eps |coefficients| at every
    # time (4 eps measured)
    spec = LatticeSpec(96, 0.7)
    times = np.arange(CHUNK) * 0.37
    pot, packet = Potential.harmonic(0.02), GaussianPacket(10, 0.1, k0=-0.4)
    sr, coeff, _, _, full = full_basis_block(spec, hop, pot, packet, times)
    order, halves = sr._halves
    assert sorted(order) == list(range(spec.n_sites))
    ((_, phases, column),) = _phases(sr.eigenvalues[order], times)
    split = dynamics._split_block(halves, phases, column, coeff[order])
    bound = 16 * np.finfo(float).eps * np.linalg.norm(coeff)
    assert np.abs(split - full).max() <= bound
    assert not np.array_equal(split, full)  # the sums do run in another order


def test_split_spectrum_of_another_window_fails_on_its_dimension():
    # the parity halves are read as they are, so a window mismatch is caught where the
    # packet's coefficients are taken, as for the full basis
    hop, pot = Hopping.quadratic(), Potential.harmonic(0.01)
    other = eigensolve(build_hamiltonian(LatticeSpec(20, 1.0), hop, pot))
    assert other._halves is not None
    grid = np.arange(5) * 0.1
    with pytest.raises(ValueError, match="^state dimension does not match the spectrum$"):
        run_timeseries(LatticeSpec(24, 1.0), hop, pot, [GaussianPacket(0, 0.2)], grid, other)


def test_run_timeseries_builds_no_quasi_momentum_matrix(monkeypatch):
    # <k> and each packet's k0 come from the c x (c + 1) reflection block alone
    def refused(*args):
        raise AssertionError("an N x N quasi-momentum or Toeplitz matrix was built")

    spec = LatticeSpec(48, 0.8)
    hop, packet = Hopping.quadratic(), GaussianPacket(5, 0.2, k0=0.3)
    solved = [
        (pot, eigensolve(build_hamiltonian(spec, hop, pot)))
        for pot in (Potential.harmonic(0.01), Potential.linear(0.4))
    ]
    for name in ("build_quasi_momentum", "build_phase_operator", "_toeplitz"):
        monkeypatch.setattr(lattice, name, refused)
        monkeypatch.setattr(dynamics, name, refused, raising=False)
    for pot, sr in solved:
        (ts,) = run_timeseries(spec, hop, pot, [packet], np.arange(CHUNK + 3) * 0.1, sr, 1.0, 1.0)
        assert ts.x_ccr is not None and np.all(np.isfinite(ts.k_mean))


def test_run_timeseries_linear_observables(linear_system):
    spec, hop, pot, sr = linear_system
    (ts,) = run_timeseries(
        spec, hop, pot, [GaussianPacket(0, 0.2)], np.arange(0.0, 16.0, 0.5), sr=sr, leak_fail=1e-5
    )
    assert np.abs(ts.norm - 1.0).max() < 1e-10
    assert np.abs(ts.x_mean - ts.x_exact_oracle).max() < 1e-6
    assert ts.x_ccr is not None
    # bounded Bloch excursion for the long-range kinetic energy
    assert np.abs(ts.x_mean - ts.x_mean[0]).max() <= (2 * np.pi**2 / 3) / 0.4 + 0.01


def test_run_timeseries_zone_edge_overlap_peaks():
    spec = LatticeSpec(128, 1.0)
    hop, pot = Hopping.quadratic(), Potential.linear(0.4)
    sr = eigensolve(build_hamiltonian(spec, hop, pot))
    grid = np.arange(0.0, 2 * np.pi / 0.4 + 1e-9, 0.125)
    peaks = {}
    for b in (0.2, 0.02):
        (ts,) = run_timeseries(spec, hop, pot, [GaussianPacket(0, b)], grid, sr=sr, leak_fail=1e-5)
        half = len(grid) // 2
        peaks[b] = (grid[np.argmax(ts.s_abs[:half])], ts.s_abs.max())
    turning = np.pi / 0.4
    for t_peak, _ in peaks.values():
        assert abs(t_peak - turning) / turning < 0.1
    # the wider packet has the narrower quasi-momentum distribution, hence
    # the taller zone-edge spike
    assert peaks[0.02][1] > peaks[0.2][1]


def zone_edge_weight_integral(sr, spec, psi, times):
    """int_0^t |S|^2 dt' in closed form: S(t) = sum_j a_j e^{-i E_j t} with a_j = c_j S_j,
    c_j the packet's coefficients and S_j = sum_m (-1)^m v_j(m), so the integral is
    sum_jk conj(a_j) a_k (e^{i (E_j - E_k) t} - 1)/(i (E_j - E_k)), |a_j|^2 t where
    E_j = E_k."""
    vecs = sr.eigenvectors
    amps = (vecs.T @ psi.amplitudes) * ((-1.0) ** np.abs(spec.sites) @ vecs)
    pairs = np.conj(amps)[:, None] * amps
    gaps = np.subtract.outer(sr.eigenvalues, sr.eigenvalues)
    apart = gaps != 0
    rates = 1j * np.where(apart, gaps, 1.0)
    return np.array(
        [np.sum(pairs * np.where(apart, np.expm1(rates * t) / rates, t)).real for t in times]
    )


def sum_rule_residuals(hop, half_width):
    """fig4's packet (n0 = 0, b = 0.02; F = 0.4, a = 1) over two Bloch periods: the largest
    residual of the CCR-defect sum rule <k>(t) - <k>(0) = F (t - int_0^t |S|^2 dt') over 11
    times, <k> from run_timeseries, and int over one Bloch period of |S|^2 less T_B."""
    spec, force = LatticeSpec(half_width, 1.0), 0.4
    pot, period = Potential.linear(force), 2 * np.pi / force
    sr = eigensolve(build_hamiltonian(spec, hop, pot))
    times = np.linspace(0.0, 2 * period, 11)
    (ts,) = run_timeseries(spec, hop, pot, [GaussianPacket(0, 0.02)], times, sr)
    psi = make_gaussian(spec, GaussianPacket(0, 0.02))
    weight = zone_edge_weight_integral(sr, spec, psi, [*times, period])
    residual = ts.k_mean - ts.k_mean[0] - force * (times - weight[:-1])
    return np.abs(residual).max(), weight[-1] - period


@pytest.mark.parametrize("half_width", [192, 288])
def test_ccr_defect_sum_rule_is_exact_for_cosine_hopping(half_width):
    # the CCR model's <k> = k0 + F t is off by exactly F int |S|^2: the window's [x, k]
    # falls short of i by the zone-edge term -i (-1)^(m - n), and cosine hopping's [T, k]
    # has entries only in the two edge rows and columns, where the packet has no weight.
    # Over a Bloch period the zone-edge weight integrates to T_B (1.9e-14 and 2.5e-14
    # measured at M = 288)
    residual, period_gap = sum_rule_residuals(Hopping.cosine(), half_width)
    assert residual <= 1e-12
    assert abs(period_gap) <= 1e-12


def test_ccr_defect_sum_rule_residual_is_the_windows_for_quadratic_hopping():
    # quadratic hopping's window [T, k] != 0 leaves a residual that falls with the window:
    # 6.5e-5 at M = 288 and 8.1e-6 at M = 576 measured, 8.0 times per doubling
    coarse, _ = sum_rule_residuals(Hopping.quadratic(), 288)
    fine, _ = sum_rule_residuals(Hopping.quadratic(), 576)
    assert 0 < fine <= coarse / 6


def test_run_timeseries_leakage_error():
    spec = LatticeSpec(24, 1.0)
    hop, pot = Hopping.quadratic(), Potential.linear(0.4)
    sr = eigensolve(build_hamiltonian(spec, hop, pot))
    with pytest.warns(UserWarning):
        with pytest.raises(LeakageError):
            run_timeseries(
                spec, hop, pot, [GaussianPacket(0, 0.005)], np.arange(0.0, 8.0, 0.5), sr=sr
            )


def test_run_timeseries_model_auto_selection():
    spec = LatticeSpec(48, 1.0)
    grid = np.arange(0.0, 5.0, 0.5)

    def run(hop, pot, packet):
        (ts,) = run_timeseries(
            spec, hop, pot, [packet], grid, sr=eigensolve(build_hamiltonian(spec, hop, pot))
        )
        return ts

    harm = run(Hopping.quadratic(), Potential.harmonic(0.01), GaussianPacket(5, 0.2))
    cos = run(Hopping.cosine(), Potential.linear(0.4), GaussianPacket(0, 0.2))
    free = run(Hopping.cosine(), Potential.constant(0.0), GaussianPacket(0, 0.2))
    x0, k0 = moments(make_gaussian(spec, GaussianPacket(5, 0.2)), spec)
    assert np.allclose(harm.x_ccr, ccr_position_harmonic(x0, k0, 0.01, grid))
    assert np.abs(cos.x_ccr - cos.x_mean).max() < 1e-10  # the cosine Heisenberg oracle
    assert free.x_ccr is None and free.x_exact_oracle is None


def test_run_timeseries_blocks_match_per_time_propagation(linear_system):
    # a grid over three blocks, the last one partial, with uneven steps
    spec, hop, pot, sr = linear_system
    packet = GaussianPacket(3, 0.1, k0=0.4)
    rng = np.random.default_rng(5)
    grid = np.cumsum(rng.uniform(0.01, 0.2, 2 * CHUNK + 5))
    (ts,) = run_timeseries(spec, hop, pot, [packet], grid, sr, leak_fail=1.0)
    psi0 = make_gaussian(spec, packet)
    kop = build_quasi_momentum(spec)
    states = [propagate(psi0, sr, t) for t in grid]
    want = {
        "x_mean": [expectation(s, spec.positions).real for s in states],
        "k_mean": [expectation(s, kop).real for s in states],
        "s_abs": [abs(alternating_overlap(s)) for s in states],
        "norm": [s.norm for s in states],
    }
    for name, values in want.items():
        assert np.abs(getattr(ts, name) - values).max() < 1e-12, name
    edges = [max(abs(s.amplitudes[0]), abs(s.amplitudes[-1])) for s in states]
    assert abs(ts.boundary_max - max(edges)) < 1e-12


@pytest.mark.filterwarnings("ignore:boundary amplitude")  # the tilted packet's far tails
@pytest.mark.parametrize("a", [1.0, 0.7])
@pytest.mark.parametrize(
    "pot", [Potential.harmonic(0.01), Potential.linear(0.4)], ids=["harmonic", "linear"]
)
def test_k_mean_is_the_velocity_of_the_propagated_state(pot, a):
    # for quadratic hopping i[H, x] = k on the window, so d<x>/dt = <k>: run_timeseries'
    # k_mean equals <psi(t)| i[H, x] |psi(t)>, with psi(t) from propagate and i[H, x] from
    # two dense GEMMs, within 4 eps (1 + |E|_max t), the bound of the direct phases
    # exp(-i E t) (1.25 of eps (1 + |E|_max t) measured, linear at a = 0.7). The grid is
    # k * dt over two CHUNKs, so later chunks take the factored phases
    spec, hop = LatticeSpec(80, a), Hopping.quadratic()
    ham = build_hamiltonian(spec, hop, pot)
    sr = eigensolve(ham)
    velocity = 1j * commutator(ham, build_position(spec))
    packet = GaussianPacket(0, 0.05, k0=0.3)
    grid = np.arange(2 * CHUNK + 17) * 0.25
    (ts,) = run_timeseries(spec, hop, pot, [packet], grid, sr, leak_fail=1.0)
    psi0 = make_gaussian(spec, packet)
    want = [expectation(propagate(psi0, sr, t), velocity).real for t in grid]
    bound = 4 * np.finfo(float).eps * (1 + np.abs(sr.eigenvalues).max() * grid)
    assert np.all(np.abs(ts.k_mean - want) <= bound)


def test_complex_eigenvectors_give_the_same_evolution(linear_system):
    # a unit phase on each eigenvector leaves the propagator unchanged
    spec, hop, pot, sr = linear_system
    phases = np.exp(1j * np.linspace(0.0, 3.0, sr.dimension))
    rotated = SpectrumResult(sr.eigenvalues, sr.eigenvectors * phases, sr.residual_norm)
    grid = np.linspace(0.0, 12.0, CHUNK + 7)
    ((real,), (cplx,)) = (
        run_timeseries(spec, hop, pot, [GaussianPacket(0, 0.2)], grid, s, leak_fail=1.0)
        for s in (sr, rotated)
    )
    for name in ("x_mean", "k_mean", "s_abs", "norm"):
        assert np.abs(getattr(real, name) - getattr(cplx, name)).max() < 1e-12, name
    psi = make_gaussian(spec, GaussianPacket(0, 0.2))
    diff = propagate(psi, sr, 5.0).amplitudes - propagate(psi, rotated, 5.0).amplitudes
    assert np.abs(diff).max() < 1e-12


@pytest.fixture(scope="module")
def leaky_system():
    spec = LatticeSpec(24, 1.0)
    hop, pot = Hopping.quadratic(), Potential.linear(0.4)
    return spec, hop, pot, eigensolve(build_hamiltonian(spec, hop, pot))


def test_leakage_error_names_first_time_in_a_later_block(leaky_system):
    spec, hop, pot, sr = leaky_system
    grid = np.arange(2 * CHUNK + 5) * 0.03
    assert CHUNK <= np.flatnonzero(np.isclose(grid, 5.61))[0] < 2 * CHUNK
    message = (
        "boundary amplitude 1.01e-03 at t = 5.61 exceeds 1e-03 (window half_width 24 too small)"
    )
    with pytest.warns(UserWarning):
        with pytest.raises(LeakageError) as err:
            run_timeseries(spec, hop, pot, [GaussianPacket(0, 0.02)], grid, sr, leak_fail=1e-3)
    assert str(err.value) == message


def test_tolerance_error_names_first_time(leaky_system):
    # eigenvectors scaled by 1.001 scale every amplitude by 1.001^2
    spec, hop, pot, sr = leaky_system
    bad = SpectrumResult(sr.eigenvalues, 1.001 * sr.eigenvectors, sr.residual_norm)
    grid = 0.15 + np.arange(2 * CHUNK + 5) * 0.05
    message = "norm drifted to 1.002001000000 at t = 0.15"
    with pytest.raises(ToleranceError) as err:
        run_timeseries(spec, hop, pot, [GaussianPacket(0, 0.2)], grid, bad)
    assert str(err.value) == message
    # a packet that also leaks from the first time on: the norm check wins the tie
    wide = GaussianPacket(0, 0.005)
    with pytest.warns(UserWarning, match="initial packet"):
        with pytest.raises(LeakageError, match="at t = 0.15 exceeds"):
            run_timeseries(spec, hop, pot, [wide], grid, sr)
        with pytest.raises(ToleranceError) as err:
            run_timeseries(spec, hop, pot, [wide], grid, bad)
    assert str(err.value) == message


def _recorded(call):
    """call()'s warnings as (category, text), in order, and the text of its error."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(Exception) as err:
            call()
    return [(w.category, str(w.message)) for w in seen], type(err.value), str(err.value)


@pytest.mark.parametrize(
    "third", [GaussianPacket(0, 0.005), GaussianPacket(30, 0.2)], ids=["leaks-first", "outside"]
)
def test_packets_together_warn_and_fail_as_one_by_one(leaky_system, third):
    # the second packet leaks in the second block; the third leaks at t = 0 or lies outside
    # the window. Run together, the packets warn and fail as run one by one in order: the
    # first packet's warnings, the second's initial warning and then its LeakageError
    spec, hop, pot, sr = leaky_system
    packets = [GaussianPacket(-8, 0.2), GaussianPacket(0, 0.02), third]
    grid = np.arange(2 * CHUNK + 5) * 0.03

    def one_by_one():
        for packet in packets:
            run_timeseries(spec, hop, pot, [packet], grid, sr, leak_fail=1e-3)

    alone = _recorded(one_by_one)
    together = _recorded(lambda: run_timeseries(spec, hop, pot, packets, grid, sr, LEAK_WARN, 1e-3))
    assert together == alone
    warned, error, text = together
    assert error is LeakageError and text.startswith("boundary amplitude 1.01e-03 at t = 5.61")
    assert [message.split(" ")[0] for _, message in warned] == ["boundary", "initial"]


def test_packets_in_another_window_fail_as_one_by_one(leaky_system):
    # the spectrum of a smaller window: the first packet warns of its initial boundary
    # amplitude and then fails on the dimension; the later ones, the last outside the
    # window, add nothing
    spec, hop, pot, _ = leaky_system
    other = eigensolve(build_hamiltonian(LatticeSpec(20, 1.0), hop, pot))
    packets = [GaussianPacket(0, 0.005), GaussianPacket(0, 0.2), GaussianPacket(30, 0.2)]
    grid = np.arange(CHUNK + 5) * 0.03

    def one_by_one():
        for packet in packets:
            run_timeseries(spec, hop, pot, [packet], grid, other)

    alone = _recorded(one_by_one)
    together = _recorded(lambda: run_timeseries(spec, hop, pot, packets, grid, other))
    assert together == alone
    warned, error, text = together
    assert error is ValueError and text == "state dimension does not match the spectrum"
    assert [message.split(" ")[0] for _, message in warned] == ["initial"]


def test_packets_together_match_alone_on_direct_phases(linear_system):
    # a grid of three chunks that is not k * dt takes each chunk's own phases, direct from
    # its first time; every packet's observables are bit for bit those of the packet alone
    spec, hop, pot, sr = linear_system
    grid = 0.15 + np.arange(2 * CHUNK + 5) * 0.05
    packets = [GaussianPacket(-10, 0.2), GaussianPacket(0, 0.05, k0=0.4), GaussianPacket(12, 0.1)]
    together = run_timeseries(spec, hop, pot, packets, grid, sr, 1.0, 1.0)
    for packet, ts in zip(packets, together, strict=True):
        (alone,) = run_timeseries(spec, hop, pot, [packet], grid, sr, 1.0, 1.0)
        for name in ("x_mean", "k_mean", "s_abs", "norm", "x_ccr", "x_exact_oracle"):
            assert np.array_equal(getattr(ts, name), getattr(alone, name)), name
        assert ts.boundary_max == alone.boundary_max


def plain_observables(spec, psi0, sr, times):
    """run_timeseries' observables from blocks of the plain amplitudes psi, not
    2^128 psi: the unscaled block loop on the phases of _phases, the reference for
    the scaled one. The coefficients are the real product V^T [Re psi, Im psi]. The
    block is V @ phased, or for exact parity vectors (v == +-v[::-1]) psi_{+-i} =
    E_i +- O_i from the even and the odd columns' right halves, the even columns'
    rows first. <k> is -Im sum conj(po) (M pe) over the reflection halves pe and po,
    M taken from the N x N S. Also returns the number of subnormal real components
    over the blocks."""
    vecs, c = sr.eigenvectors, spec.half_width
    assert not np.iscomplexobj(vecs)
    coeff = (vecs.T @ psi0.amplitudes.view(np.float64).reshape(-1, 2)).view(complex)[:, 0]
    s_mat = build_quasi_momentum(spec).matrix.imag
    m = s_mat[c + 1 :, c:] + s_mat[c + 1 :, c::-1]
    m[:, 0] = s_mat[c + 1 :, c]
    even = np.all(vecs[c:] == vecs[c::-1], axis=0)
    split = np.all(even | np.all(vecs[c:] == -vecs[c::-1], axis=0))
    order = np.concatenate([np.flatnonzero(even), np.flatnonzero(~even)])
    if not split:
        order = np.arange(len(coeff))
    signs = (-1.0) ** np.abs(spec.sites)
    out = {name: np.empty(len(times)) for name in ("x_mean", "k_mean", "s_abs", "norm")}
    boundary, subnormal = 0.0, 0
    for start, phases, column in _phases(sr.eigenvalues[order], times):
        phased = (phases * (coeff[order] * column)[:, None]).view(np.float64)
        if split:
            e = vecs[c:, even] @ phased[: np.count_nonzero(even)]
            o = vecs[c + 1 :, ~even] @ phased[np.count_nonzero(even) :]
            parts = np.concatenate([(e[1:] - o)[::-1], e[:1], e[1:] + o])
        else:
            parts = vecs @ phased
        block = parts.view(complex)
        stop = start + block.shape[1]
        subnormal += np.count_nonzero((parts != 0) & (np.abs(parts) < np.finfo(float).tiny))
        u, v = parts[:, 0::2], parts[:, 1::2]
        prob = u * u + v * v
        pe = (block[c:] + block[c::-1]).view(np.float64)
        po = (block[c + 1 :] - block[c - 1 :: -1]).view(np.float64)
        mpe = m @ pe
        out["x_mean"][start:stop] = spec.positions @ prob
        out["k_mean"][start:stop] = (po[:, 1::2] * mpe[:, 0::2] - po[:, 0::2] * mpe[:, 1::2]).sum(0)
        out["s_abs"][start:stop] = np.abs((signs @ parts).view(complex))
        out["norm"][start:stop] = np.sqrt(prob.sum(axis=0))
        boundary = max(boundary, np.maximum(np.abs(block[0]), np.abs(block[-1])).max())
    return out, boundary, subnormal


def assert_matches_plain_blocks(spec, hop, pot, packet, times):
    sr = eigensolve(build_hamiltonian(spec, hop, pot))
    with np.errstate(over="raise", invalid="raise"):
        (ts,) = run_timeseries(spec, hop, pot, [packet], times, sr, leak_warn=1.0, leak_fail=1.0)
        want, boundary, subnormal = plain_observables(spec, make_gaussian(spec, packet), sr, times)
    for name, values in want.items():
        assert np.array_equal(getattr(ts, name), values), name
    assert ts.boundary_max == boundary
    return subnormal, sr._halves is not None


def test_run_timeseries_matches_plain_blocks_on_subnormal_tails():
    # the nearest-neighbour Bloch packet whose Bessel tails fall below 2^-1022:
    # the blocks carry 2^128 psi, and every observable keeps its bits
    spec, force = LatticeSpec(288, 1.0), 0.5
    times = np.linspace(0.0, 3 * 2 * np.pi / force, 2 * CHUNK + 45)
    packet = GaussianPacket(0, 0.02, k0=0.3)
    pot = Potential.linear(force)
    subnormal, _ = assert_matches_plain_blocks(spec, Hopping.cosine(), pot, packet, times)
    assert subnormal > 10 * len(times)  # the reference does take the subnormal path


@pytest.mark.parametrize("hop", [Hopping.cosine(), Hopping.quadratic()], ids=lambda h: h.kind)
@pytest.mark.parametrize("a", [1e-150, 1.3e154])
def test_run_timeseries_matches_plain_blocks_at_extreme_spacings(hop, a):
    # |x| up to 2^517 at a = 1.3e154, ||S|| near 2^501 at a = 1e-150: the scaled sums
    # neither overflow nor round apart, on the full basis. At a = 1e-150 a linear -F a m
    # would be lost below the hopping's 1/a^2 and leave the Hamiltonian mirror-symmetric,
    # so the tilt there is m / (20 a^2)
    spec = LatticeSpec(40, a)
    pot = Potential.linear(0.5 / a) if a > 1 else Potential.custom(spec.sites / (20 * a * a))
    times = np.arange(CHUNK + 9) * 0.05 * min(a * a, 1.0)
    packet = GaussianPacket(2, 0.05, k0=0.3 / a)
    assert not assert_matches_plain_blocks(spec, hop, pot, packet, times)[1]


@pytest.mark.parametrize("hop", [Hopping.cosine(), Hopping.quadratic()], ids=lambda h: h.kind)
@pytest.mark.parametrize("a", [1e-150, 1.3e154])
def test_parity_halves_match_plain_blocks_at_extreme_spacings(hop, a):
    # the same on the parity halves of a constant potential, whose eigenvectors are exact
    # parity vectors: |M| <= 2 ||S|| and |psi_i +- psi_-i| <= 2 |psi| overflow nothing
    spec = LatticeSpec(40, a)
    times = np.arange(CHUNK + 9) * 0.05 * min(a * a, 1.0)
    packet = GaussianPacket(2, 0.05, k0=0.3 / a)
    pot = Potential.constant(0.0)
    assert assert_matches_plain_blocks(spec, hop, pot, packet, times)[1]


def test_propagate_differs_from_plain_product_only_at_the_subnormal_grain():
    # scaled back from 2^128 psi, a component whose plain product underflowed is
    # rounded once instead of term by term: 48 to 55 of the 1154 real components
    # move, by at most 5 units of 2^-1074, and none above 1.21 * 2^-1022. Both sides
    # take the coefficients from the real product V^T [Re psi, Im psi], as _coefficients
    spec, hop, pot = LatticeSpec(288, 1.0), Hopping.cosine(), Potential.linear(0.5)
    sr = eigensolve(build_hamiltonian(spec, hop, pot))
    psi = make_gaussian(spec, GaussianPacket(0, 0.02, k0=0.3))
    tiny = np.finfo(float).tiny
    for t in (0.0, 2.2 * np.pi, 20.0):  # at 2.2 pi, one of them is a normal float
        real = sr.eigenvectors.T @ psi.amplitudes.view(np.float64).reshape(-1, 2)
        coeff = np.exp(-1j * sr.eigenvalues * t) * real.view(complex)[:, 0]
        plain = (sr.eigenvectors @ coeff.view(np.float64).reshape(-1, 2)).ravel()
        got = propagate(psi, sr, t).amplitudes.view(np.float64)
        differ = got != plain
        assert 0 < np.count_nonzero(differ) < np.count_nonzero(np.abs(plain) < tiny)
        assert np.abs(plain[differ]).max() < 4 * tiny
        assert np.abs(got - plain).max() <= 8 * 2.0**-1074
