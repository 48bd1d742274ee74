"""Series evaluation: Euler acceleration, lattice derivative, dispersion.

The quasi-momentum operator applied to a smoothly sampled function acts like
d/dx through an alternating series over symmetric site differences; that
series converges slowly term by term but extremely fast under the Euler
transformation, implemented here as the iterated mean of partial sums.
"""

from __future__ import annotations

import numpy as np

from .lattice import Hopping, LatticeSpec, StateVector


def euler_accelerate(terms) -> complex | float:
    """Euler-transformed value of a series given its signed terms.

    Forms the partial sums and repeatedly replaces them by adjacent means
    until a single value remains (averaging depth = number of terms). For an
    alternating series with smoothly varying magnitudes the result converges
    far beyond the raw partial sums; a single term is returned unchanged.
    """
    t = np.asarray(terms)
    if t.size == 0:
        raise ValueError("euler_accelerate needs at least one term")
    s = np.cumsum(t.astype(complex))
    while s.size > 1:
        s = 0.5 * (s[:-1] + s[1:])
    return complex(s[0]) if np.iscomplexobj(t) else float(s[0].real)


def discrete_derivative(
    psi: StateVector,
    spec: LatticeSpec,
    site: int,
    j_max: int,
    accelerate: bool = True,
) -> complex:
    """Estimate <site| i k |psi> from symmetric differences of amplitudes.

    Sums (-1)^(j+1)/(j a) * (psi_{site+j} - psi_{site-j}) for j = 1..j_max,
    optionally Euler-accelerated. For psi sampled from a differentiable f
    this reproduces f'(a*site).
    """
    m = spec.half_width
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    if abs(site) + j_max > m:
        raise ValueError(
            f"stencil site {site} +- {j_max} overruns the window |m| <= {m}"
        )
    amp = psi.amplitudes
    center = site + m
    j = np.arange(1, j_max + 1)
    terms = (-1.0) ** (j + 1) / (j * spec.spacing) * (amp[center + j] - amp[center - j])
    if accelerate:
        return complex(euler_accelerate(terms))
    return complex(terms.sum())


def dispersion(
    hop: Hopping,
    k: float,
    spec: LatticeSpec,
    n_max: int | None = None,
    accelerate: bool = True,
) -> float:
    """Kinetic-energy eigenvalue at quasi-momentum k from the hopping series.

    Evaluates -t0 - 2 sum_{n=1..n_max} t_n cos(a k n). The cosine and custom
    kinds have finitely many terms, so n_max is optional there; the quadratic
    kind is an infinite series converging to k^2/2 and requires an explicit
    n_max (Euler acceleration is effective away from the zone edge, where the
    alternating structure of the terms survives).
    """
    edge = spec.brillouin_edge
    if not (-edge < k <= edge):
        raise ValueError(f"k = {k} outside the first Brillouin zone (-pi/a, pi/a]")
    if hop.kind == "quadratic" and n_max is None:
        raise ValueError("quadratic dispersion is an infinite series; supply n_max")
    t0, amps = hop.terms(spec, n_max)
    n = np.arange(1, len(amps) + 1)
    terms = -2.0 * amps * np.cos(spec.spacing * k * n)
    if accelerate and hop.kind == "quadratic":
        return float(-t0 + np.real(euler_accelerate(terms)))
    return float(-t0 + terms.sum())
