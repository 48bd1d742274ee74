"""Site-basis operators on a finite symmetric lattice window.

The infinite lattice is truncated to sites m = -half_width..half_width with
hard (open) boundaries: operator tails are simply dropped, never wrapped,
because the phase-operator and kinetic matrix elements decay only like
1/|m-n| and 1/(m-n)^2 and periodic images would corrupt the commutator
identities this package is built to check.

All builders return dense matrices validated to be Hermitian to an absolute
entrywise tolerance (default 1e-12); the closed forms are exact, so only
floating-point rounding enters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-12
HERMITICITY_BLOCK = 128  # rows and columns per tile of the Hermiticity check


@dataclass(frozen=True)
class LatticeSpec:
    """Finite symmetric site window m = -half_width..half_width with spacing a.

    The window stands in for the infinite lattice; the symmetric index set is
    required so that parity (site reflection) is well defined.
    """

    half_width: int
    spacing: float = 1.0

    def __post_init__(self):
        if not isinstance(self.half_width, (int, np.integer)) or self.half_width < 1:
            raise ValueError(f"half_width must be an integer >= 1, got {self.half_width}")
        if not (self.spacing > 0):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        square = float(self.spacing) * float(self.spacing)  # a float's ** 2 raises on overflow
        if not (0 < square < np.inf and 0 < 1 / square < np.inf):
            raise ValueError(
                f"spacing {self.spacing} is out of range: a^2 and 1/a^2 must be finite and nonzero"
            )

    @property
    def n_sites(self) -> int:
        return 2 * self.half_width + 1

    @property
    def sites(self) -> np.ndarray:
        """Integer site labels -half_width..half_width."""
        return np.arange(-self.half_width, self.half_width + 1)

    @property
    def positions(self) -> np.ndarray:
        """Physical positions spacing * m."""
        return self.spacing * self.sites

    @property
    def brillouin_edge(self) -> float:
        """Largest quasi-momentum pi/spacing of the first Brillouin zone."""
        return np.pi / self.spacing

    def interior_sites(self, margin: int) -> np.ndarray:
        """Boolean mask of sites at least `margin` away from the boundary."""
        return np.abs(self.sites) <= self.half_width - margin


def _hermiticity_defect(mat: np.ndarray) -> float:
    """max |A[I, J] - A[J, I]^dagger| over the square tiles I <= J of HERMITICITY_BLOCK
    rows and columns, the diagonal tiles whole, so no N x N temporary is made. Mirrored
    entries of A - A^dagger have bitwise-equal magnitudes (x - conj(y) = -conj(y - conj(x))
    exactly), so this is the whole-matrix maximum, NaN included, from half the entries."""
    b = HERMITICITY_BLOCK
    starts = range(0, mat.shape[0], b)
    return np.max([
        np.abs(mat[i : i + b, j : j + b] - mat[j : j + b, i : i + b].conj().T).max()
        for i in starts
        for j in starts[i // b :]
    ])


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense Hermitian operator in the site basis.

    Construction verifies ||A - A^dagger||_max <= HERMITICITY_TOL; matrices
    are treated as immutable afterwards and safe to share between threads.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be square, got shape {mat.shape}")
        object.__setattr__(self, "matrix", mat)
        defect = _hermiticity_defect(mat)
        if np.isnan(defect):  # only a non-finite entry makes A - A^dagger NaN
            raise ValueError("operator matrix has non-finite entries")
        if not defect <= HERMITICITY_TOL:
            raise ValueError(
                f"matrix is not Hermitian: max |A - A^dagger| = {defect:.3e} "
                f"exceeds {HERMITICITY_TOL:.1e}"
            )

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.matrix) or np.abs(self.matrix.imag).max() == 0.0


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the site window, ordered m = -M..M."""

    amplitudes: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amp)
        if amp.ndim != 1:
            raise ValueError("amplitudes must be a 1-D array")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes must all be finite")
        if self.normalized and abs(self.norm**2 - 1.0) > NORM_TOL:
            raise ValueError(
                f"state flagged normalized but |norm^2 - 1| = {abs(self.norm ** 2 - 1):.3e}"
            )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "StateVector":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return StateVector(self.amplitudes / n, normalized=True)


@dataclass(frozen=True)
class Hopping:
    """Kinetic-energy choice for the hopping Hamiltonian.

    kind "quadratic"  : long-range hopping whose matrix equals half the
                        squared quasi-momentum operator; onsite -pi^2/(6a^2),
                        range-n amplitude (-1)^(n+1)/(a n)^2.
    kind "cosine"     : nearest-neighbour form (1 - cos(a k))/a^2, i.e.
                        onsite -1/a^2 and t_1 = 1/(2 a^2).
    kind "custom"     : explicit onsite t0 and amplitudes (t_1, t_2, ...).

    The Hamiltonian assembled from amplitudes is
    -t0 * I - sum_{n>=1} t_n (T_n + T_n^dagger) so that energy eigenvalues
    follow the dispersion -t0 - 2 sum t_n cos(a k n).
    """

    kind: str
    t0: float = 0.0
    amplitudes: tuple = ()

    _KINDS = ("quadratic", "cosine", "custom")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown hopping kind {self.kind!r}; expected one of {self._KINDS}")

    @classmethod
    def quadratic(cls) -> "Hopping":
        return cls("quadratic")

    @classmethod
    def cosine(cls) -> "Hopping":
        return cls("cosine")

    @classmethod
    def custom(cls, t0: float, amplitudes: Sequence[float]) -> "Hopping":
        return cls("custom", float(t0), tuple(float(t) for t in amplitudes))

    def terms(self, spec: LatticeSpec, n_max: int | None = None):
        """Return (t0, t_n array for n=1..R) on the given window.

        The quadratic kind's series is infinite: it returns n_max amplitudes,
        by default one per hop that fits on the window (range <= 2*half_width,
        the full dense band). The other kinds return all their amplitudes.
        """
        a = spec.spacing
        full = 2 * spec.half_width
        if self.kind == "quadratic":
            n = np.arange(1, (full if n_max is None else n_max) + 1)
            return -(np.pi**2 / 6) / a**2, (-1.0) ** (n + 1) / n.astype(float) ** 2 / a**2
        if self.kind == "cosine":
            return -1.0 / a**2, np.array([1.0 / (2 * a**2)])
        t = np.asarray(self.amplitudes, dtype=float)
        if len(t) > full:
            raise ValueError(
                f"custom hopping range {len(t)} exceeds window diameter {full}"
            )
        return self.t0, t


@dataclass(frozen=True)
class Potential:
    """On-site potential V_m on the window.

    kind "constant" : V_m = v0
    kind "linear"   : V_m = -force * a * m  (ladder spacing a*force)
    kind "harmonic" : V_m = curvature * (a m)^2 / 2
    kind "custom"   : explicit values, one per site
    """

    kind: str
    v0: float = 0.0
    force: float = 0.0
    curvature: float = 0.0
    custom_values: tuple = ()

    _KINDS = ("constant", "linear", "harmonic", "custom")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}; expected one of {self._KINDS}")

    @classmethod
    def constant(cls, v0: float = 0.0) -> "Potential":
        return cls("constant", v0=float(v0))

    @classmethod
    def linear(cls, force: float) -> "Potential":
        return cls("linear", force=float(force))

    @classmethod
    def harmonic(cls, curvature: float) -> "Potential":
        if not curvature > 0:
            raise ValueError(f"harmonic curvature must be positive, got {curvature}")
        return cls("harmonic", curvature=float(curvature))

    @classmethod
    def custom(cls, values: Sequence[float]) -> "Potential":
        vals = tuple(float(v) for v in values)
        if not all(np.isfinite(vals)):
            raise ValueError("custom potential values must be finite")
        return cls("custom", custom_values=vals)

    def values(self, spec: LatticeSpec) -> np.ndarray:
        x = spec.positions
        if self.kind == "constant":
            return np.full(spec.n_sites, self.v0)
        if self.kind == "linear":
            return -self.force * x
        if self.kind == "harmonic":
            return self.curvature * x**2 / 2
        vals = np.asarray(self.custom_values, dtype=float)
        if len(vals) != spec.n_sites:
            raise ValueError(
                f"custom potential has {len(vals)} values for {spec.n_sites} sites"
            )
        return vals


def _site_differences(spec: LatticeSpec) -> np.ndarray:
    """Every site difference d = m - n on the window, ascending: the index of a
    Toeplitz kernel, whose N x N matrix _toeplitz builds."""
    return np.arange(-2 * spec.half_width, 2 * spec.half_width + 1)


def _toeplitz(kernel: np.ndarray) -> np.ndarray:
    """N x N matrix with elements kernel[m - n + N - 1], from a kernel of length 2N - 1."""
    n = (len(kernel) + 1) // 2
    return np.lib.stride_tricks.sliding_window_view(kernel[::-1], n)[::-1].copy()


def build_position(spec: LatticeSpec) -> OperatorMatrix:
    """Position operator: diagonal matrix with entries spacing * m."""
    return OperatorMatrix(np.diag(spec.positions.astype(float)))


def _phase_kernel(spec: LatticeSpec) -> np.ndarray:
    """(-1)^d / (i d) over the site differences d, zero at d = 0."""
    d = _site_differences(spec)
    safe = np.where(d == 0, 1, d)
    kernel = (-1.0) ** np.abs(d) / (1j * safe)
    kernel[d == 0] = 0.0
    return kernel


def build_phase_operator(spec: LatticeSpec) -> OperatorMatrix:
    """Phase operator with elements (-1)^(m-n) / (i (m-n)), zero on the diagonal.

    This is the infinite-lattice version of the Garrison-Wong/Galindo phase
    operator, truncated to the window; the quasi-momentum operator is this
    matrix divided by the lattice spacing.
    """
    return OperatorMatrix(_toeplitz(_phase_kernel(spec)))


def build_quasi_momentum(spec: LatticeSpec) -> OperatorMatrix:
    """Quasi-momentum operator: phase operator divided by the spacing."""
    return OperatorMatrix(_toeplitz(_phase_kernel(spec) / spec.spacing))


def _kinetic_matrix(spec: LatticeSpec, hop: Hopping) -> np.ndarray:
    """Kinetic matrix -t0 * I - sum_n t_n (T_n + T_n^dagger), unchecked: one Toeplitz
    kernel over the site differences d = m - n, -t0 at d = 0, -t_|d| up to the
    hopping range and 0 beyond it."""
    t0, amps = hop.terms(spec)
    half = np.zeros(2 * spec.half_width + 1)
    half[0] = -t0
    half[1 : len(amps) + 1] = -amps
    return _toeplitz(np.concatenate([half[:0:-1], half]))


def build_k_squared(spec: LatticeSpec) -> OperatorMatrix:
    """Squared quasi-momentum: a^2 <m|k^2|n> = pi^2/3 on the diagonal and
    2 (-1)^(m-n)/(m-n)^2 off it, exactly twice the quadratic kinetic matrix.
    Real symmetric."""
    k2 = _kinetic_matrix(spec, Hopping.quadratic())
    k2 *= 2
    return OperatorMatrix(k2)


def build_translation(spec: LatticeSpec, shift: int) -> np.ndarray:
    """Translation by `shift` sites: <m+shift|T|m> = 1, boundary rows dropped.

    Returned as a raw ndarray: translations are not Hermitian for shift != 0,
    so they cannot carry the OperatorMatrix invariant. T_{-n} equals the
    transpose of T_n on the truncated window.
    """
    n = spec.n_sites
    if abs(shift) > 2 * spec.half_width:
        raise ValueError(f"translation by {shift} empties the {n}-site window")
    return np.eye(n, k=-shift)


def _hamiltonian_diagonal(spec: LatticeSpec, hop: Hopping, pot: Potential) -> np.ndarray:
    """The Hamiltonian's diagonal V_m - t0, refused unless N |H|_max is finite, |H|_max
    being the largest of its entries and the hopping amplitudes: the eigensolve contract's
    bound, and with N >= 3 also 2 |H|_max, the parity blocks' sums of two entries."""
    t0, amps = hop.terms(spec)
    with np.errstate(over="ignore"):  # an infinite entry is refused below
        diag = pot.values(spec) - t0
    top = float(max(np.abs(diag).max(), np.abs(amps).max(initial=0.0)))
    if not np.isfinite(spec.n_sites * top):
        raise ValueError(
            f"the Hamiltonian's largest entry {top:.3g} times the {spec.n_sites} sites is "
            f"beyond the float range (window edge a M = {spec.spacing * spec.half_width:.3g})"
        )
    return diag


def build_hamiltonian(spec: LatticeSpec, hop: Hopping, pot: Potential) -> OperatorMatrix:
    """Hamiltonian: kinetic term plus diagonal potential, its diagonal held to
    _hamiltonian_diagonal's range rule and the sum checked once."""
    h = _kinetic_matrix(spec, hop)
    h[np.diag_indices_from(h)] = _hamiltonian_diagonal(spec, hop, pot)
    return OperatorMatrix(h)


def expectation(psi: StateVector, op) -> complex:
    """<psi|A|psi> for a (not necessarily normalized) state."""
    mat = op.matrix if isinstance(op, OperatorMatrix) else np.asarray(op)
    amp = psi.amplitudes
    if mat.ndim == 1:
        return complex(np.vdot(amp, mat * amp))
    return complex(np.vdot(amp, mat @ amp))
