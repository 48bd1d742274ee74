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
from latticeccr.dynamics import CHUNK


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
        run_timeseries(spec, hop, pot, GaussianPacket(0, 0.01), [0.0], sr=sr, leak_fail=1.0)
    # the check follows leak_warn, not the 1e-10 default
    packet = GaussianPacket(0, 0.1)
    edge = abs(make_gaussian(spec, packet).amplitudes[0])
    assert 1e-10 < edge < 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_timeseries(spec, hop, pot, packet, [0.0], sr=sr, leak_warn=1e-3)


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
    # the bracket is built in blocks of rows; the series is bit-identical to
    # the bracket built whole (with one-row blocks it is not at this a and F)
    spec, force = LatticeSpec(32, 0.7), -0.55
    psi = make_gaussian(spec, GaussianPacket(3, 0.05, k0=0.4))
    ts = np.linspace(0.0, 30.0, steps)
    _, amps = hop.terms(spec)
    n = np.arange(1, len(amps) + 1)
    amp = psi.amplitudes
    t_exp = np.array([np.vdot(amp[r:], amp[:-r]) for r in n])
    bracket = -1j * spec.spacing * force * np.outer(ts, n)
    np.exp(bracket, out=bracket)
    bracket -= 1.0
    bracket *= amps * t_exp
    want = expectation(psi, spec.positions).real - 2.0 * np.real(bracket).sum(axis=1) / force
    assert np.array_equal(exact_position_linear(psi, spec, hop, force, ts), want)


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
    ts = run_timeseries(spec, hop, pot, GaussianPacket(0, 0.05), np.linspace(0.0, 30.0, 121), sr)
    assert ts.x_ccr is ts.x_exact_oracle


def test_run_timeseries_grid_validation(linear_system):
    spec, hop, pot, sr = linear_system
    packet = GaussianPacket(0, 0.2)
    with pytest.raises(ValueError):
        run_timeseries(spec, hop, pot, packet, [], sr=sr)
    with pytest.raises(ValueError):
        run_timeseries(spec, hop, pot, packet, [0.0, 0.0, 1.0], sr=sr)


def test_run_timeseries_linear_observables(linear_system):
    spec, hop, pot, sr = linear_system
    ts = run_timeseries(
        spec, hop, pot, GaussianPacket(0, 0.2), np.arange(0.0, 16.0, 0.5), sr=sr, leak_fail=1e-5
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
        ts = run_timeseries(spec, hop, pot, GaussianPacket(0, b), grid, sr=sr, leak_fail=1e-5)
        half = len(grid) // 2
        peaks[b] = (grid[np.argmax(ts.s_abs[:half])], ts.s_abs.max())
    turning = np.pi / 0.4
    for t_peak, _ in peaks.values():
        assert abs(t_peak - turning) / turning < 0.1
    # the wider packet has the narrower quasi-momentum distribution, hence
    # the taller zone-edge spike
    assert peaks[0.02][1] > peaks[0.2][1]


def test_run_timeseries_leakage_error():
    spec = LatticeSpec(24, 1.0)
    hop, pot = Hopping.quadratic(), Potential.linear(0.4)
    sr = eigensolve(build_hamiltonian(spec, hop, pot))
    with pytest.warns(UserWarning):
        with pytest.raises(LeakageError):
            run_timeseries(
                spec, hop, pot, GaussianPacket(0, 0.005), np.arange(0.0, 8.0, 0.5), sr=sr
            )


def test_run_timeseries_model_auto_selection():
    spec = LatticeSpec(48, 1.0)
    grid = np.arange(0.0, 5.0, 0.5)

    def run(hop, pot, packet):
        return run_timeseries(
            spec, hop, pot, packet, grid, sr=eigensolve(build_hamiltonian(spec, hop, pot))
        )

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
    ts = run_timeseries(spec, hop, pot, packet, grid, sr, leak_fail=1.0)
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


def test_complex_eigenvectors_give_the_same_evolution(linear_system):
    # a unit phase on each eigenvector leaves the propagator unchanged
    spec, hop, pot, sr = linear_system
    phases = np.exp(1j * np.linspace(0.0, 3.0, sr.dimension))
    rotated = SpectrumResult(sr.eigenvalues, sr.eigenvectors * phases, sr.residual_norm)
    grid = np.linspace(0.0, 12.0, CHUNK + 7)
    real, cplx = (
        run_timeseries(spec, hop, pot, GaussianPacket(0, 0.2), grid, s, leak_fail=1.0)
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
            run_timeseries(spec, hop, pot, GaussianPacket(0, 0.02), grid, sr, leak_fail=1e-3)
    assert str(err.value) == message


def test_tolerance_error_names_first_time(leaky_system):
    # eigenvectors scaled by 1.001 scale every amplitude by 1.001^2
    spec, hop, pot, sr = leaky_system
    bad = SpectrumResult(sr.eigenvalues, 1.001 * sr.eigenvectors, sr.residual_norm)
    grid = 0.15 + np.arange(2 * CHUNK + 5) * 0.05
    message = "norm drifted to 1.002001000000 at t = 0.15"
    with pytest.raises(ToleranceError) as err:
        run_timeseries(spec, hop, pot, GaussianPacket(0, 0.2), grid, bad)
    assert str(err.value) == message
    # a packet that also leaks from the first time on: the norm check wins the tie
    wide = GaussianPacket(0, 0.005)
    with pytest.warns(UserWarning, match="initial packet"):
        with pytest.raises(LeakageError, match="at t = 0.15 exceeds"):
            run_timeseries(spec, hop, pot, wide, grid, sr)
        with pytest.raises(ToleranceError) as err:
            run_timeseries(spec, hop, pot, wide, grid, bad)
    assert str(err.value) == message
