"""Harmonic motion on the lattice depends on where the packet starts.

A Gaussian packet released at -n0 in the potential c x^2 / 2 follows the
textbook cosine while its energy stays below the lattice threshold
3/(a^2 sqrt(c)); released further out it dephases, and far above threshold
it simply parks near its starting point, wiggling with the local Bloch
amplitude instead of swinging across the well.
"""

import numpy as np

from latticeccr import (
    GaussianPacket,
    Hopping,
    LatticeSpec,
    Potential,
    build_hamiltonian,
    eigensolve,
    run_timeseries,
    threshold_estimate,
)

spec = LatticeSpec(192, 1.0)
curvature = 0.01
root = np.sqrt(curvature)
pot = Potential.harmonic(curvature)
sr = eigensolve(build_hamiltonian(spec, Hopping.quadratic(), pot))
grid = np.arange(0.0, 25.0 / root + 1e-9, 2.5 / root)

print(f"threshold quantum number: {threshold_estimate(1.0, curvature):g}")
print(f"packet at -n0 overlaps states around n ~ c n0^2 / (2 sqrt(c))")
print()

runs = {}
for n0 in (20, 30, 40):
    (runs[n0],) = run_timeseries(
        spec, Hopping.quadratic(), pot, [GaussianPacket(-n0, 0.2)], grid, sr=sr
    )

header = "  sqrt(c) t " + "".join(f"   x(n0={n0:2d})  CCR(n0={n0:2d})" for n0 in runs)
print(header)
for i, t in enumerate(grid):
    cells = "".join(f"   {runs[n0].x_mean[i]:8.2f}  {runs[n0].x_ccr[i]:10.2f}" for n0 in runs)
    print(f"   {root * t:7.2f} {cells}")

print()
for n0 in runs:
    dev = np.abs(runs[n0].x_mean - runs[n0].x_ccr).max()
    print(f"n0 = {n0}: max |exact - cosine| over the run = {dev:6.2f}")
