"""Acceptance suite: every numbered criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
Three sub-criteria are marked xfail(strict=True) with the measured numbers:
for the long-range (quadratic) kinetic energy the Wannier-Stark states carry
power-law 1/d^3 tails, so full-window translation residuals and in-window
amplitude decay cannot reach 1e-8 at half_width 100, and the parked harmonic
packet at n0 = 40 performs a local Bloch oscillation of amplitude ~12 sites.
A passing test beside each one pins the law behind the failure: the
residual falls with the window, the tail does not, and the excursion is
W/(c a n0) for the band width W.
"""

import numpy as np
import pytest

from jacobi import jacobi_eigh
from reference import commutator
from latticeccr import (
    GaussianPacket,
    Hopping,
    LatticeSpec,
    OperatorMatrix,
    Potential,
    build_hamiltonian,
    build_k_squared,
    build_phase_operator,
    build_position,
    build_quasi_momentum,
    build_translation,
    ccr_defect,
    degenerate_pairs,
    diagnose_states,
    discrete_derivative,
    eigensolve,
    exact_position_linear,
    make_gaussian,
    propagate,
    run_timeseries,
    threshold_estimate,
    wannier_stark_analysis,
    StateVector,
)


def report(criterion: str, detail: str, passed: bool = True) -> None:
    status = "PASS" if passed else "FAIL (documented)"
    print(f"[acceptance] criterion {criterion}: {status} — {detail}")


# -- shared heavy solves ----------------------------------------------------

@pytest.fixture(scope="module")
def harmonic_c001():
    spec = LatticeSpec(100, 1.0)
    sr = eigensolve(build_hamiltonian(spec, Hopping.quadratic(), Potential.harmonic(0.01)))
    return spec, sr


@pytest.fixture(scope="module")
def stark_quadratic():
    spec = LatticeSpec(100, 1.0)
    sr = eigensolve(build_hamiltonian(spec, Hopping.quadratic(), Potential.linear(0.4)))
    return spec, sr


@pytest.fixture(scope="module")
def stark_windows():
    """Full-window translation residual and largest amplitude more than 40
    sites from a ladder state's center, for the stark_quadratic set-up on
    windows M = 100, 200, 400."""
    out = {}
    for half in (100, 200, 400):
        spec = LatticeSpec(half, 1.0)
        sr = eigensolve(build_hamiltonian(spec, Hopping.quadratic(), Potential.linear(0.4)))
        ladder = wannier_stark_analysis(sr, spec, force=0.4)
        far = [
            np.abs(sr.eigenvectors[np.abs(spec.sites - center) > 40, idx]).max()
            for idx, center in zip(ladder.state_indices, ladder.centers)
        ]
        out[half] = (ladder.translation_residuals.max(), max(far))
    return out


@pytest.fixture(scope="module")
def bloch_run():
    spec = LatticeSpec(288, 1.0)
    hop, pot = Hopping.quadratic(), Potential.linear(0.4)
    sr = eigensolve(build_hamiltonian(spec, hop, pot))
    period = 2 * np.pi / 0.4
    grid = np.arange(0.0, 2 * period + 1e-9, 0.125)
    (ts,) = run_timeseries(spec, hop, pot, [GaussianPacket(0, 0.02)], grid, sr=sr)
    return spec, hop, pot, sr, period, ts


@pytest.fixture(scope="module")
def harmonic_motion():
    spec = LatticeSpec(192, 1.0)
    pot = Potential.harmonic(0.01)
    sr = eigensolve(build_hamiltonian(spec, Hopping.quadratic(), pot))
    grid = np.arange(0.0, 250.0 + 1e-9, 1.0)
    runs = {
        n0: run_timeseries(
            spec, Hopping.quadratic(), pot, [GaussianPacket(-n0, 0.2)], grid, sr=sr
        )[0]
        for n0 in (20, 30, 40)
    }
    return grid, runs


# -- criterion 1: matrix-element exactness ----------------------------------

def test_criterion_1_matrix_elements():
    spec = LatticeSpec(30, 0.7)
    k2 = build_k_squared(spec).matrix
    theta = build_phase_operator(spec).matrix
    a = spec.spacing
    worst_rel = 0.0
    for i, m in enumerate(spec.sites):
        for j, n in enumerate(spec.sites):
            if m == n:
                want_k2 = np.pi**2 / (3 * a**2)
                want_th = 0.0
            else:
                want_k2 = 2.0 * (-1.0) ** (m - n) / (a * (m - n)) ** 2
                want_th = (-1.0) ** (m - n) / (1j * (m - n))
            worst_rel = max(worst_rel, abs(k2[i, j] - want_k2) / abs(want_k2))
            assert theta[i, j] == want_th
    assert worst_rel <= 1e-14
    report("1 (matrix elements)", f"k^2 worst relative error {worst_rel:.1e}; phase operator exact")


# -- criterion 2: commutator identities --------------------------------------

def test_criterion_2_position_translation():
    spec = LatticeSpec(200, 1.0)
    x = build_position(spec)
    worst = 0.0
    for n in (1, 2, 7, -4):
        t = build_translation(spec, n)
        worst = max(worst, np.abs(commutator(x, t) - spec.spacing * n * t).max())
    assert worst < 1e-13
    report("2a ([x,T_n] = a n T_n)", f"max deviation {worst:.1e}")


def _commutator_column_tail(half_width: int, margin: int) -> float:
    spec = LatticeSpec(half_width, 1.0)
    comm = commutator(build_position(spec), build_quasi_momentum(spec))
    d = spec.sites[:, None] - spec.sites[None, :]
    closed = np.where(d == 0, 0.0, -1j * (-1.0) ** np.abs(d))
    cols = np.abs(spec.sites) <= half_width - margin
    return float(np.abs(comm[:, cols] - closed[:, cols]).max())


def test_criterion_2_commutator_columns():
    tail_400 = _commutator_column_tail(400, 100)
    tail_800 = _commutator_column_tail(800, 200)
    assert tail_400 < 5e-3
    assert tail_800 <= 0.5 * tail_400 + 1e-12
    report(
        "2b ([x,k] columns)",
        f"tail {tail_400:.1e} at M=400 (< 5e-3), {tail_800:.1e} at M=800 (halving holds)",
    )


# -- criterion 3: defect/overlap identity ------------------------------------

def test_criterion_3_defect_overlap_identity():
    spec = LatticeSpec(100, 1.0)
    rng = np.random.default_rng(42)
    worst_tail = 0.0
    for _ in range(20):
        amp = np.zeros(spec.n_sites, dtype=complex)
        inner = slice(25, spec.n_sites - 25)
        size = spec.n_sites - 50
        amp[inner] = rng.normal(size=size) + 1j * rng.normal(size=size)
        psi = StateVector(amp).normalize()
        result = ccr_defect(psi, spec, interior_margin=25)
        worst_tail = max(worst_tail, result.tail)
    assert worst_tail <= 1e-10
    report("3 (defect = -i(-1)^m S)", f"20 random states, worst tail {worst_tail:.1e}")


# -- criterion 4: discrete derivative ----------------------------------------

def test_criterion_4_accelerated_derivative():
    spec = LatticeSpec(80, 0.1)
    psi = StateVector(np.exp(-spec.positions**2 / 2).astype(complex))
    got = discrete_derivative(psi, spec, site=5, j_max=30, accelerate=True)
    err = abs(got - (-0.5 * np.exp(-0.125)))
    assert err < 1e-6
    assert abs(got - (-0.4412485)) < 1e-6
    report("4 (derivative via acceleration)", f"30 terms, error {err:.1e}")


# -- criteria 5-7: harmonic spectra ------------------------------------------

def test_criterion_5_harmonic_spectrum(harmonic_c001):
    spec, sr = harmonic_c001
    ratios = sr.eigenvalues[:11] / (0.1 * (np.arange(11) + 0.5))
    assert np.all(ratios > 0.99) and np.all(ratios < 1.01)
    thr = threshold_estimate(1.0, 0.01)
    assert thr == pytest.approx(30.0, rel=1e-12)
    report(
        "5 (continuum ladder)",
        f"E_n/sqrt(c)/(n+1/2) in [{ratios.min():.6f}, {ratios.max():.6f}], threshold {thr:g}",
    )


def test_criterion_6_near_degeneracy():
    spec = LatticeSpec(100, 3.0)
    sr = eigensolve(build_hamiltonian(spec, Hopping.quadratic(), Potential.harmonic(1.0)))
    pairs = degenerate_pairs(sr, spec, gap_tol=0.1)
    interior = [p for p in pairs if p.center_separation < spec.half_width * spec.spacing]
    dashed = 3.0 / (3.0 * 1.0**0.25) ** 2
    tight = [p for p in interior if p.gap < 1e-3]
    assert tight and all(
        (sr.eigenvalues[p.lower] + sr.eigenvalues[p.upper]) / 2 > dashed for p in tight
    )
    gaps = np.array([p.gap for p in interior])
    live = gaps[gaps > 1e-12]  # monotone until the rounding floor
    assert np.all(np.diff(live) < 0)
    report(
        "6 (near-degenerate pairs)",
        f"{len(interior)} pairs, smallest gap {gaps.min():.1e}, monotone decrease",
    )


def test_criterion_7_overlap_threshold(harmonic_c001):
    spec, sr = harmonic_c001
    diags = diagnose_states(sr, spec)
    even = [d for d in diags if d.parity == "even"]
    low = max(d.overlap for d in even if d.index <= 20)
    high = max(d.overlap for d in even if 40 <= d.index <= 60)
    assert low < 1e-6
    assert high > 0.05
    report("7 (overlap threshold)", f"max S_n: {low:.1e} for n<=20, {high:.2f} for 40<=n<=60")


# -- criterion 8: Wannier-Stark ladder ---------------------------------------

def test_criterion_8_ladder_spacings(stark_quadratic):
    spec, sr = stark_quadratic
    ladder = wannier_stark_analysis(sr, spec, force=0.4)
    assert ladder.max_spacing_deviation < 1e-8
    report(
        "8a (ladder spacing 0.4)",
        f"{len(ladder.state_indices)} interior states, max deviation {ladder.max_spacing_deviation:.1e}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="long-range hopping gives the ladder states 1/d^3 tails; the "
    "full-window translation residual is 7.6e-6 at half_width 100, a window "
    "truncation effect that falls about 9x per doubling of the window "
    "(test_criterion_8_translation_residual_falls_with_window; the "
    "interior-window residual and the nearest-neighbour kinetic both meet "
    "1e-8, see tests/test_spectral.py)",
)
def test_criterion_8_translation_residuals(stark_quadratic):
    spec, sr = stark_quadratic
    ladder = wannier_stark_analysis(sr, spec, force=0.4)
    worst = ladder.translation_residuals.max()
    report("8b (translation residuals)", f"full-window max {worst:.1e} vs 1e-8", passed=False)
    assert worst < 1e-8


@pytest.mark.xfail(
    strict=True,
    reason="amplitudes of the long-range-hopping ladder states follow "
    "~1/(F d^3) and stay above 1e-8 everywhere inside a half_width-100 "
    "window: the 7.8e-5 beyond 40 sites is intrinsic and the same on every "
    "window (test_criterion_8_far_amplitude_is_window_independent; "
    "nearest-neighbour kinetic decays below 1e-8 by d=25, see "
    "tests/test_spectral.py)",
)
def test_criterion_8_amplitude_decay(stark_quadratic):
    spec, sr = stark_quadratic
    ladder = wannier_stark_analysis(sr, spec, force=0.4)
    worst = 0.0
    for idx, center in zip(ladder.state_indices, ladder.centers):
        amp = np.abs(sr.eigenvectors[:, idx])
        far = np.abs(spec.sites - center) > 40
        worst = max(worst, amp[far].max())
    report("8c (amplitude decay)", f"max amplitude beyond 40 sites {worst:.1e} vs 1e-8", passed=False)
    assert worst < 1e-8


def test_criterion_8_translation_residual_falls_with_window(stark_windows):
    # 8b fails by truncation: measured 7.6e-6, 8.4e-7, 9.8e-8 (9.1x, then 8.5x)
    res = [stark_windows[half][0] for half in (100, 200, 400)]
    assert res[0] / res[1] >= 6.0 and res[1] / res[2] >= 6.0
    steps = " -> ".join(f"{r:.1e}" for r in res)
    report("8b (law)", f"full-window residual {steps} at M = 100, 200, 400")


def test_criterion_8_far_amplitude_is_window_independent(stark_windows):
    # 8c fails by physics: the 1/(F d^3) tail beyond 40 sites is 7.78e-5 on every window
    far = [stark_windows[half][1] for half in (100, 200, 400)]
    assert max(far) - min(far) <= 1e-3 * max(far)
    values = ", ".join(f"{f:.4e}" for f in far)
    report("8c (law)", f"amplitude beyond 40 sites {values} at M = 100, 200, 400")


# -- criterion 9: Bloch oscillations ------------------------------------------

def test_criterion_9_bloch_oscillations(bloch_run):
    spec, hop, pot, sr, period, ts = bloch_run
    oracle_err = np.abs(ts.x_mean - ts.x_exact_oracle).max()
    assert oracle_err < 1e-6

    psi0 = make_gaussian(spec, GaussianPacket(0, 0.02))
    at_period = propagate(psi0, sr, period)
    x_tb = np.real(np.vdot(at_period.amplitudes, spec.positions * at_period.amplitudes))
    x_0 = ts.x_mean[0]
    assert abs(x_tb - x_0) < 1e-5
    assert period == pytest.approx(15.70796, abs=1e-5)

    early = (ts.times > 0) & (ts.times < 0.5 * np.pi / 0.4)
    ccr_dev = np.abs(ts.x_mean - ts.x_ccr)[early]
    swing = np.abs(ts.x_mean - x_0)[early]
    assert np.all(ccr_dev <= 0.02 * np.maximum(swing, 1e-6))

    amplitude = ts.x_mean.max() - ts.x_mean.min()
    idx_tb = int(np.argmin(np.abs(ts.times - period)))
    late_dev = abs(ts.x_mean[idx_tb] - ts.x_ccr[idx_tb])
    assert late_dev > 0.5 * amplitude

    first_period = ts.times <= period
    t_peak = ts.times[first_period][np.argmax(ts.s_abs[first_period])]
    turning = np.pi / 0.4
    assert abs(t_peak - turning) / turning < 0.1
    report(
        "9 (Bloch oscillations)",
        f"oracle error {oracle_err:.1e}; |x(T_B)-x(0)| = {abs(x_tb - x_0):.1e}; "
        f"CCR deviation at T_B = {late_dev:.1f} > half-amplitude {0.5 * amplitude:.1f}; "
        f"|S| peak at t = {t_peak:g} vs pi/aF = {turning:.3f}",
    )


# -- criterion 10: accidental CCR exactness -----------------------------------

def test_criterion_10_periodic_kinetic_exactness():
    spec = LatticeSpec(128, 1.0)
    hop, pot = Hopping.cosine(), Potential.linear(0.4)
    sr = eigensolve(build_hamiltonian(spec, hop, pot))
    grid = np.arange(0.0, 2 * 2 * np.pi / 0.4 + 1e-9, 0.125)
    (ts,) = run_timeseries(spec, hop, pot, [GaussianPacket(0, 0.02)], grid, sr=sr)
    worst = np.abs(ts.x_mean - ts.x_ccr).max()
    assert worst < 1e-6
    report("10 (accidental CCR exactness)", f"max |propagated - CCR| = {worst:.1e}")


# -- criterion 11: harmonic dynamics ------------------------------------------

def test_criterion_11_harmonic_small_center(harmonic_motion):
    grid, runs = harmonic_motion
    one_period = grid <= 2 * np.pi / 0.1
    cosine = -20.0 * np.cos(0.1 * grid)
    dev = np.abs(runs[20].x_mean - cosine)[one_period].max()
    assert dev <= 0.05 * 20.0
    report("11a (n0=20 harmonic motion)", f"max deviation {dev:.2e} <= 1.0 over one period")


def test_criterion_11_intermediate_center_breaks(harmonic_motion):
    grid, runs = harmonic_motion
    one_period = grid <= 2 * np.pi / 0.1
    cosine = -30.0 * np.cos(0.1 * grid)
    rel = np.abs(runs[30].x_mean - cosine)[one_period] / 30.0
    assert rel.max() > 0.20
    report("11b (n0=30 deviates)", f"relative deviation reaches {rel.max():.2f} > 0.20")


@pytest.mark.xfail(
    strict=True,
    reason="the packet parked at n0=40 rides the local potential slope "
    "c*a*n0 = 0.4 and performs a local Bloch oscillation whose amplitude "
    "measures 12.15 sites (converged in window size and time step), the "
    "band width over the slope W/(c a n0) = 12.34 to 1.5% "
    "(test_criterion_11_parked_drift_is_local_bloch_excursion), above the "
    "10-site bound",
)
def test_criterion_11_far_center_parked(harmonic_motion):
    grid, runs = harmonic_motion
    drift = np.abs(runs[40].x_mean - runs[40].x_mean[0]).max()
    report("11c (n0=40 parked)", f"max |x(t)-x(0)| = {drift:.2f} vs 10", passed=False)
    assert drift < 10.0


def test_criterion_11_parked_drift_is_local_bloch_excursion(harmonic_motion):
    # 11c fails by physics: a packet at rest on the local slope F = c a n0 swings
    # across the quadratic band of width W = pi^2 / (2 a^2), a distance W / F
    _, runs = harmonic_motion
    drift = np.abs(runs[40].x_mean - runs[40].x_mean[0]).max()
    excursion = (np.pi**2 / 2) / (0.01 * 1.0 * 40)
    assert abs(drift / excursion - 1.0) <= 0.03
    report("11c (law)", f"drift {drift:.2f} vs W/(c a n0) = {excursion:.2f}")


# -- criterion 12: eigensolver oracle ------------------------------------------

def test_criterion_12_eigensolver_oracle():
    rng = np.random.default_rng(123)
    worst_val, worst_vec = 0.0, 0.0
    for _ in range(50):
        mat = rng.normal(size=(6, 6))
        mat = mat + mat.T
        vals_j, vecs_j = jacobi_eigh(mat)
        sr = eigensolve(OperatorMatrix(mat))
        worst_val = max(worst_val, np.abs(vals_j - sr.eigenvalues).max())
        overlaps = np.abs(np.sum(vecs_j.conj() * sr.eigenvectors, axis=0))
        worst_vec = max(worst_vec, np.abs(overlaps - 1.0).max())
    assert worst_val <= 1e-10
    assert worst_vec <= 1e-10
    report(
        "12 (independent eigensolver)",
        f"50 matrices: eigenvalue dev {worst_val:.1e}, eigenvector overlap dev {worst_vec:.1e}",
    )
