"""Dense and closed-form references the tests compare the package's results against."""

import numpy as np

from latticeccr import StateVector


def commutator(a, b) -> np.ndarray:
    """Matrix commutator AB - BA by two dense products; accepts OperatorMatrix or ndarray."""
    am, bm = (np.asarray(getattr(op, "matrix", op)) for op in (a, b))
    return am @ bm - bm @ am


def parity_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a real mirror-symmetric matrix of odd size N, by eigvalsh of
    its two parity blocks. With c = N // 2, A = mat[c:, c:] and B = mat[c:, c::-1], the even
    block in the basis e_c, (e_{c+j} + e_{c-j})/sqrt(2) is A + B with its first row and
    column scaled by 1/sqrt(2) and its corner H_cc; the odd block is (A - B)[1:, 1:].

    A reference for eigenvalues near zero of a matrix with large entries: the lowest
    cosine-hopping level at c = 0.01, M = 100, a = 9.49 is 0.0109739734674939 by Sturm
    bisection in 40 digits; eigvalsh of the blocks gives it to double precision, eigvalsh
    of the whole matrix 3.3e-10 relative off.
    """
    c = len(mat) // 2
    a, b = mat[c:, c:], mat[c:, c::-1]
    even = a + b
    even[0, 1:] /= np.sqrt(2.0)
    even[1:, 0] /= np.sqrt(2.0)
    even[0, 0] = a[0, 0]
    return np.sort(np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh((a - b)[1:, 1:])]))


def evolved(psi, sr, t: float) -> StateVector:
    """psi(t) = V (e^{-iEt} * V^dagger psi) by two dense products, for the eigenvalues E and
    eigenvector columns V of a spectrum."""
    vecs = sr.eigenvectors
    coeff = np.exp(-1j * sr.eigenvalues * t) * (vecs.conj().T @ psi.amplitudes)
    return StateVector(vecs @ coeff)


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
