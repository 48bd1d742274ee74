"""Alternating overlap and the site-resolved commutation-relation defect."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticeccr import (
    GaussianPacket,
    LatticeSpec,
    StateVector,
    alternating_overlap,
    build_position,
    build_quasi_momentum,
    ccr_defect,
    make_gaussian,
)
from reference import commutator


def delta_state(spec, site):
    amp = np.zeros(spec.n_sites, dtype=complex)
    amp[site + spec.half_width] = 1.0
    return StateVector(amp, normalized=True)


def test_overlap_of_delta_state():
    spec = LatticeSpec(6, 1.0)
    assert alternating_overlap(delta_state(spec, 0)) == 1.0 + 0.0j
    assert alternating_overlap(delta_state(spec, 3)) == -1.0 + 0.0j


def test_overlap_two_site_cancellation():
    spec = LatticeSpec(6, 1.0)
    amp = np.zeros(spec.n_sites, dtype=complex)
    amp[6] = amp[7] = 1 / np.sqrt(2)
    assert abs(alternating_overlap(StateVector(amp, normalized=True))) < 1e-15


def test_overlap_gaussian_against_direct_sum():
    spec = LatticeSpec(60, 1.0)
    psi = make_gaussian(spec, GaussianPacket(0, 0.2))
    # independent brute-force evaluation, term by term
    total = 0.0 + 0.0j
    for idx, m in enumerate(range(-60, 61)):
        total += (-1.0) ** m * psi.amplitudes[idx]
    got = alternating_overlap(psi)
    assert abs(got - total) < 1e-14
    assert abs(got) < 1e-3  # smooth packet: tiny zone-edge weight


def test_overlap_narrower_packet_is_larger():
    spec = LatticeSpec(80, 1.0)
    wide = abs(alternating_overlap(make_gaussian(spec, GaussianPacket(0, 0.02))))
    narrow = abs(alternating_overlap(make_gaussian(spec, GaussianPacket(0, 0.2))))
    assert wide < narrow


def test_defect_profile_of_delta_state():
    spec = LatticeSpec(20, 1.0)
    result = ccr_defect(delta_state(spec, 0), spec, interior_margin=5)
    want = -1j * (-1.0) ** np.abs(result.sites)
    assert np.abs(result.profile - want).max() < 1e-14
    assert result.max_defect == pytest.approx(1.0, abs=1e-14)
    assert result.overlap == 1.0 + 0.0j


def test_defect_matches_dense_commutator():
    # ccr_defect scales k by x_m - x_n; the two-GEMM commutator is the reference
    for half, a in ((60, 1.0), (48, 0.7)):
        spec = LatticeSpec(half, a)
        psi = make_gaussian(spec, GaussianPacket(5, 0.05, k0=2.9 / a))
        dense = commutator(build_position(spec), build_quasi_momentum(spec)) - 1j * np.eye(spec.n_sites)
        want = (dense @ psi.amplitudes)[spec.interior_sites(half // 4)]
        assert np.abs(ccr_defect(psi, spec).profile - want).max() <= 1e-14


@pytest.mark.parametrize("a", [1.0, 0.37, 2.5])
def test_window_commutator_is_exact_on_every_pair_of_sites(a):
    # x is diagonal, so ([x, k] - i)_mn = (x_m - x_n) k_mn - i delta_mn, and it equals
    # -i (-1)^(m - n) for every pair of window sites, boundary rows included: the defect of
    # any state is -i (-1)^m S, whatever its support. Within eps (1 + (|m| + |n|) / |m - n|),
    # the rounding of x_m = a m (0.75 of it, 31.5 eps = 7e-15, measured at a = 0.37)
    spec = LatticeSpec(50, a)
    x, k = spec.positions, build_quasi_momentum(spec).matrix
    m, n = spec.sites[:, None], spec.sites[None, :]
    defect = (x[:, None] - x[None, :]) * k - 1j * np.eye(spec.n_sites)
    bound = np.finfo(float).eps * (1 + (abs(m) + abs(n)) / np.maximum(abs(m - n), 1))
    assert np.all(np.abs(defect + 1j * (-1.0) ** abs(m - n)) <= bound)


def test_defect_vanishes_on_cancelling_state():
    spec = LatticeSpec(20, 1.0)
    amp = np.zeros(spec.n_sites, dtype=complex)
    amp[20] = amp[21] = 1 / np.sqrt(2)
    result = ccr_defect(StateVector(amp, normalized=True), spec)
    assert result.max_defect < 1e-14
    assert result.tail < 1e-14


def test_defect_ratio_identity_uniform():
    spec = LatticeSpec(32, 1.0)
    rng = np.random.default_rng(11)
    amp = np.zeros(spec.n_sites, dtype=complex)
    inner = slice(10, spec.n_sites - 10)
    amp[inner] = rng.normal(size=spec.n_sites - 20) + 1j * rng.normal(size=spec.n_sites - 20)
    psi = StateVector(amp).normalize()
    result = ccr_defect(psi, spec, interior_margin=8)
    ratios = result.profile / (-1j * (-1.0) ** np.abs(result.sites))
    assert np.abs(ratios - alternating_overlap(psi)).max() < 1e-12


def test_defect_support_precondition():
    spec = LatticeSpec(16, 1.0)
    amp = np.ones(spec.n_sites, dtype=complex)
    with pytest.raises(ValueError):
        ccr_defect(StateVector(amp).normalize(), spec, interior_margin=4)
    with pytest.raises(ValueError):
        ccr_defect(delta_state(spec, 0), spec, interior_margin=0)


def test_defect_tail_rounding_level_for_random_states():
    spec = LatticeSpec(100, 1.0)
    rng = np.random.default_rng(2024)
    for _ in range(20):
        amp = np.zeros(spec.n_sites, dtype=complex)
        inner = slice(25, spec.n_sites - 25)
        size = spec.n_sites - 50
        amp[inner] = rng.normal(size=size) + 1j * rng.normal(size=size)
        psi = StateVector(amp).normalize()
        result = ccr_defect(psi, spec, interior_margin=25)
        assert result.tail < 1e-12
        assert result.max_defect == pytest.approx(abs(result.overlap), abs=1e-12)


def test_defect_tail_shrinks_when_window_doubles():
    packet = GaussianPacket(0, 0.1)
    tails = {}
    for half in (50, 100):
        spec = LatticeSpec(half, 1.0)
        psi = make_gaussian(spec, packet)
        tails[half] = ccr_defect(psi, spec, interior_margin=half // 4).tail
    # the identity is exact on the whole window, so both tails sit at rounding
    # level and doubling the window cannot make things worse
    assert tails[100] <= 0.5 * tails[50] + 1e-12


@given(st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=30, deadline=None)
def test_defect_two_point_states(site_a, site_b):
    spec = LatticeSpec(30, 1.0)
    amp = np.zeros(spec.n_sites, dtype=complex)
    amp[site_a + 30] += 1.0
    amp[site_b + 30] += 1.0j
    psi = StateVector(amp).normalize()
    result = ccr_defect(psi, spec, interior_margin=10)
    want = -1j * (-1.0) ** np.abs(result.sites) * alternating_overlap(psi)
    assert np.abs(result.profile - want).max() < 1e-13
