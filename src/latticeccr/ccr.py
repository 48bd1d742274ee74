"""Canonical-commutator diagnostics.

On the lattice, position and quasi-momentum satisfy [x, k] = i only on
states whose alternating overlap S = sum_m (-1)^m psi_m vanishes; the
defect is concentrated entirely on the Brillouin-zone-edge Bloch state.
These routines measure the overlap and the site-resolved defect profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSpec, StateVector, build_quasi_momentum

SUPPORT_TOL = 1e-12


def alternating_overlap(psi: StateVector) -> complex:
    """S = sum_m (-1)^m psi_m, the state's weight on the zone-edge Bloch state.

    Assumes the amplitudes are ordered over a symmetric window, so the
    alternating sign is +1 at the central site.
    """
    amp = psi.amplitudes
    half = (len(amp) - 1) // 2
    signs = (-1.0) ** np.abs(np.arange(-half, len(amp) - half))
    return complex(np.sum(signs * amp))


@dataclass(frozen=True)
class CcrDefect:
    """Interior profile of ([x, k] - i)|psi> and its summary numbers.

    tail is the measured residue of the profile against the closed form
    -i (-1)^m S_psi; on interior-supported states it sits at rounding level
    because the commutator with the diagonal position operator involves no
    truncated intermediate sums.
    """

    sites: np.ndarray
    profile: np.ndarray
    max_defect: float
    overlap: complex
    tail: float


def _interior(psi: StateVector, spec: LatticeSpec, interior_margin: int | None) -> np.ndarray:
    """Mask of the sites |m| <= half_width - margin (default half_width // 4); a ValueError
    unless the margin lies in 1..half_width and psi stays within SUPPORT_TOL outside them."""
    m = spec.half_width
    w = m // 4 if interior_margin is None else int(interior_margin)
    if not 0 < w <= m:
        raise ValueError(f"interior margin {w} outside 1..{m}")
    if len(psi.amplitudes) != spec.n_sites:
        raise ValueError("state and lattice window sizes differ")
    interior = spec.interior_sites(w)
    if np.abs(psi.amplitudes[~interior]).max(initial=0.0) > SUPPORT_TOL:
        raise ValueError(
            f"state has support outside |m| <= {m - w}; "
            "the defect would be dominated by the truncation boundary"
        )
    return interior


def ccr_defect(
    psi: StateVector, spec: LatticeSpec, interior_margin: int | None = None
) -> CcrDefect:
    """Site-resolved commutator defect <m|([x,k] - i)|psi> on interior sites.

    The state must be supported (|amplitude| > 1e-12) only on sites
    |m| <= half_width - interior_margin, otherwise the profile would be
    dominated by window truncation. Default margin is half_width/4.
    """
    interior = _interior(psi, spec, interior_margin)
    # x is diagonal, so [x, k]_mn = (x_m - x_n) k_mn: no matrix product needed
    x = spec.positions
    defect_op = build_quasi_momentum(spec).matrix
    defect_op *= x[:, None] - x[None, :]
    defect_op[np.diag_indices_from(defect_op)] -= 1j
    profile = (defect_op @ psi.amplitudes)[interior]
    sites = spec.sites[interior]
    overlap = alternating_overlap(psi)
    closed_form = -1j * (-1.0) ** np.abs(sites) * overlap
    tail = float(np.abs(profile - closed_form).max())
    return CcrDefect(
        sites=sites,
        profile=profile,
        max_defect=float(np.abs(profile).max()),
        overlap=overlap,
        tail=tail,
    )
