"""Where the canonical commutation relation lives on a lattice.

Builds the position and quasi-momentum operators from their closed-form
matrix elements and shows, site by site, that [x, k] - i acts as the
alternating rank-one defect: it vanishes exactly on states whose
alternating overlap S = sum (-1)^m psi_m is zero, and nowhere else.
"""

import numpy as np

from latticeccr import (
    GaussianPacket,
    Hopping,
    LatticeSpec,
    StateVector,
    alternating_overlap,
    build_k_squared,
    build_phase_operator,
    build_position,
    build_translation,
    ccr_defect,
    discrete_derivative,
    dispersion,
    make_gaussian,
)

spec = LatticeSpec(half_width=60, spacing=1.0)

print("== closed-form matrix elements ==")
theta = build_phase_operator(spec).matrix
k2 = build_k_squared(spec).matrix
mid = spec.half_width
print(
    "phase operator nearest neighbours: "
    f"{theta[mid + 1, mid].imag:+.0f}i, {theta[mid, mid + 1].imag:+.0f}i"
)
print(f"k^2 diagonal = {k2[mid, mid]:.7f} (pi^2/3 = {np.pi**2 / 3:.7f})")

print()
print("== translation covariance, exact on the window ==")
x = build_position(spec).matrix
t3 = build_translation(spec, 3)
dev = np.abs(x @ t3 - t3 @ x - 3.0 * t3).max()
print(f"max |[x, T_3] - 3 T_3| = {dev:.1e}")

print()
print("== the commutator defect is the alternating overlap ==")
for falloff, label in ((0.2, "smooth Gaussian (b = 0.2)"), (50.0, "single site")):
    psi = make_gaussian(spec, GaussianPacket(0, falloff))
    result = ccr_defect(psi, spec)
    print(
        f"{label:28s}: |S| = {abs(result.overlap):.2e}, "
        f"max interior |([x,k] - i) psi| = {result.max_defect:.2e}, "
        f"identity residue {result.tail:.1e}"
    )

two_site = np.zeros(spec.n_sites, dtype=complex)
two_site[mid] = two_site[mid + 1] = 1 / np.sqrt(2)
result = ccr_defect(StateVector(two_site, normalized=True), spec)
print(f"{'two equal sites (S = 0)':28s}: |S| = {abs(result.overlap):.2e}, max defect = {result.max_defect:.2e}")

print()
print("== quasi-momentum as a derivative on smooth samples ==")
fine = LatticeSpec(80, 0.1)
gauss = StateVector(np.exp(-fine.positions**2 / 2).astype(complex))
got = discrete_derivative(gauss, fine, site=5, j_max=30)
print(f"d/dx exp(-x^2/2) at x = 0.5: series gives {got.real:+.7f}, exact {-0.5 * np.exp(-0.125):+.7f}")

print()
print("== dispersion of the long-range hopping: the free parabola ==")
for frac in (0.0, 0.25, 0.5):
    k = frac * np.pi
    val = dispersion(Hopping.quadratic(), k, spec, n_max=40)
    print(f"eps(k = {frac:4.2f} pi) = {val:.8f}   k^2/2 = {k**2 / 2:.8f}")
