"""Dense and closed-form references the tests compare the package's results against."""

import numpy as np


def commutator(a, b) -> np.ndarray:
    """Matrix commutator AB - BA by two dense products; accepts OperatorMatrix or ndarray."""
    am, bm = (np.asarray(getattr(op, "matrix", op)) for op in (a, b))
    return am @ bm - bm @ am


def wannier_stark_state(hopping: str, a: float, force: float, n: int, sites: np.ndarray):
    """The infinite lattice's Wannier-Stark state centred on site n, at the given sites,
    and its energy, in closed form.

    H = eps(k) - F x with x = i d/dk gives psi_n(m) = (a/2pi) int e^{ika(m-n)} e^{-i Phi(k)/F} dk
    over the zone and E_n = mean(eps) - a F n, Phi the antiderivative of eps - mean(eps):
    k^3/6 - pi^2 k/(6a^2) for quadratic hopping (eps = k^2/2), -sin(ak)/a^3 for cosine hopping
    (eps = (1 - cos(ak))/a^2). One inverse FFT on 2^16 zone points k_j = (-pi + 2pi j/K)/a
    gives every m: psi_n(m) = (-1)^(m-n) ifft(e^{-i Phi(k_j)/F})[(m - n) mod K].
    """
    points = 2**16
    k = (-np.pi + 2 * np.pi * np.arange(points) / points) / a
    if hopping == "quadratic":
        mean, phi = np.pi**2 / (6 * a**2), k**3 / 6 - np.pi**2 * k / (6 * a**2)
    else:
        mean, phi = 1.0 / a**2, -np.sin(a * k) / a**3
    d = np.asarray(sites) - n
    psi = (-1.0) ** np.abs(d) * np.fft.ifft(np.exp(-1j * phi / force))[d % points]
    return psi, mean - a * force * n
