"""Canonical-commutator diagnostics.

On the lattice, position and quasi-momentum satisfy [x, k] = i only on
states whose alternating overlap S = sum_m (-1)^m psi_m vanishes; the
defect is concentrated entirely on the Brillouin-zone-edge Bloch state.
These routines measure the overlap and the site-resolved defect profile: x is
diagonal and k Toeplitz, so [x, k] - i is Toeplitz too, and the profile is one
convolution of its kernel with the state, with no N x N matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSpec, StateVector, _phase_kernel, _site_differences


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
    """Profile of ([x, k] - i)|psi> on the sites |m| <= half_width - margin, and its
    summary numbers.

    tail is the measured residue of the profile against the closed form
    -i (-1)^m S_psi. It sits at rounding level for every state, whatever its
    support: x is diagonal, so ([x, k] - i)_mn = -i (-1)^(m - n) holds for
    every pair of window sites, boundary rows included.
    """

    sites: np.ndarray
    profile: np.ndarray
    max_defect: float
    overlap: complex
    tail: float


def _margin(half_width: int, interior_margin: int | None) -> int:
    """The margin W of the reported sites |m| <= half_width - W: interior_margin, by default
    half_width // 4; a ValueError unless it lies in 1..half_width."""
    w = half_width // 4 if interior_margin is None else int(interior_margin)
    if not 0 < w <= half_width:
        raise ValueError(f"interior margin {w} outside 1..{half_width}")
    return w


def ccr_defect(
    psi: StateVector, spec: LatticeSpec, interior_margin: int | None = None
) -> CcrDefect:
    """Site-resolved commutator defect <m|([x,k] - i)|psi> on the sites
    |m| <= half_width - interior_margin (default half_width // 4), for a state of any
    support.

    [x, k]_mn = (x_m - x_n) k_mn, so [x, k] - i is Toeplitz with the kernel
    a d k(d) - i delta_d0 over the site differences d = -2M..2M: the profile is the part
    of that kernel which covers the reported rows, convolved with psi. k(d) is the
    package's quasi-momentum kernel, not its closed form, so the tail measures the operators.
    """
    w = _margin(spec.half_width, interior_margin)
    if len(psi.amplitudes) != spec.n_sites:
        raise ValueError("state and lattice window sizes differ")
    a, d = spec.spacing, _site_differences(spec)
    kernel = (a * d) * (_phase_kernel(spec) / a)
    kernel[2 * spec.half_width] -= 1j
    profile = np.convolve(kernel[w : len(kernel) - w], psi.amplitudes, "valid")
    sites = spec.sites[w : spec.n_sites - w]
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
