"""Bloch oscillations versus the free-acceleration picture.

A wave packet in a tilted lattice does not accelerate forever: the exact
Heisenberg solution is periodic with period 2 pi/(a F). Assuming the
canonical commutation relation instead produces the continuum parabola,
which tracks the exact motion beautifully until the packet reaches the
Brillouin-zone edge (where the alternating overlap |S| spikes) and is
qualitatively wrong afterwards. The CCR model's <k> = k0 + F t is off from
the exact <k> by F times the integral of |S|^2 over time. For the
nearest-neighbour kinetic energy the CCR answer happens to be exact at all times.
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
)

spec = LatticeSpec(288, 1.0)
force = 0.4
period = 2 * np.pi / force
grid = np.arange(0.0, 2 * period + 1e-9, period / 16)


def evolve(hop):
    """x_ccr follows from the Hamiltonian: the parabola for the long-range
    kinetic energy, the exact Heisenberg curve for nearest-neighbour hopping."""
    pot = Potential.linear(force)
    sr = eigensolve(build_hamiltonian(spec, hop, pot))
    (ts,) = run_timeseries(spec, hop, pot, [GaussianPacket(0, 0.02)], grid, sr)
    return ts


ts = evolve(Hopping.quadratic())

print(f"Bloch period T_B = {period:.5f}; zone edge reached at T_B/2 = {period / 2:.5f}")
print()
print("   t/T_B     <x>_exact    <x>_CCR      |S(t)|     oracle diff")
for i, t in enumerate(grid):
    print(
        f"   {t / period:5.3f}   {ts.x_mean[i]:10.5f}  {ts.x_ccr[i]:10.5f}   "
        f"{ts.s_abs[i]:9.5f}   {abs(ts.x_mean[i] - ts.x_exact_oracle[i]):.1e}"
    )

print()
print("same tilt, nearest-neighbour hopping: the CCR curve is the exact one")
ts_nn = evolve(Hopping.cosine())
print(f"max |<x> - x_CCR| = {np.abs(ts_nn.x_mean - ts_nn.x_ccr).max():.1e}")
