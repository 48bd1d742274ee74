"""Cyclic-Jacobi eigensolver, the tests' independent oracle for eigensolve.

It shares no code with the LAPACK route except the phase convention
(largest-magnitude component real positive), so eigenvectors compare
column by column.
"""

import numpy as np

from latticeccr import ToleranceError
from latticeccr.spectral import _fix_phases


def jacobi_eigh(matrix: np.ndarray, sweep_tol: float = 1e-14, max_sweeps: int = 100):
    """Cyclic Jacobi diagonalization of a real symmetric matrix.

    Deliberately independent of eigensolve: used as the brute-force oracle
    for small matrices. Returns (eigenvalues ascending, eigenvector columns).
    """
    a = np.array(matrix, dtype=float, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("jacobi_eigh needs a square matrix")
    if np.abs(a - a.T).max() > 1e-12 * max(1.0, np.abs(a).max()):
        raise ValueError("jacobi_eigh needs a symmetric matrix")
    n = a.shape[0]
    v = np.eye(n)
    scale = max(1.0, np.abs(a).max())
    for _ in range(max_sweeps):
        off = np.abs(a - np.diag(np.diag(a))).max()
        if off <= sweep_tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= sweep_tol * scale / n:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p, rot_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * rot_p - s * rot_q
                a[:, q] = s * rot_p + c * rot_q
                rot_p, rot_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rot_p - s * rot_q
                a[q, :] = s * rot_p + c * rot_q
                rot_p, rot_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * rot_p - s * rot_q
                v[:, q] = s * rot_p + c * rot_q
    else:
        off = np.abs(a - np.diag(np.diag(a))).max()
        if off > sweep_tol * scale:
            raise ToleranceError(f"jacobi_eigh did not converge in {max_sweeps} sweeps")
    vals = np.diag(a).copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], _fix_phases(v[:, order])
