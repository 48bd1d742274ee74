"""Quantum mechanics on a finite symmetric window of a 1-D lattice.

Site-basis operators (position, phase / quasi-momentum, translations,
kinetic energies) are built from closed-form matrix elements, spectra and
wave-packet dynamics are solved by dense diagonalization, and the package
quantifies where the canonical commutation relation (CCR) between position
and quasi-momentum holds and where it breaks down.
"""

__version__ = "0.1.0"

from .errors import ConfigError, LeakageError, ToleranceError
from .lattice import (
    LatticeSpec,
    OperatorMatrix,
    StateVector,
    Hopping,
    Potential,
    build_position,
    build_phase_operator,
    build_quasi_momentum,
    build_k_squared,
    build_translation,
    build_hamiltonian,
    expectation,
)
from .series import euler_accelerate, discrete_derivative, dispersion
from .ccr import CcrDefect, alternating_overlap, ccr_defect
from .spectral import (
    SpectrumResult,
    EigenstateDiagnostics,
    DegeneratePair,
    LadderReport,
    eigensolve,
    diagnose_states,
    harmonic_sweep,
    threshold_estimate,
    degenerate_pairs,
    wannier_stark_analysis,
)
from .dynamics import (
    GaussianPacket,
    TimeSeries,
    make_gaussian,
    propagate,
    exact_position_linear,
    ccr_position_linear,
    ccr_position_harmonic,
    run_timeseries,
)
from .experiments import (
    ExperimentConfig,
    RunManifest,
    parse_config,
    run_experiment,
    emit_dataset,
)

__all__ = [
    "ConfigError",
    "LeakageError",
    "ToleranceError",
    "LatticeSpec",
    "OperatorMatrix",
    "StateVector",
    "Hopping",
    "Potential",
    "build_position",
    "build_phase_operator",
    "build_quasi_momentum",
    "build_k_squared",
    "build_translation",
    "build_hamiltonian",
    "expectation",
    "euler_accelerate",
    "discrete_derivative",
    "dispersion",
    "CcrDefect",
    "alternating_overlap",
    "ccr_defect",
    "SpectrumResult",
    "EigenstateDiagnostics",
    "DegeneratePair",
    "LadderReport",
    "eigensolve",
    "diagnose_states",
    "harmonic_sweep",
    "threshold_estimate",
    "degenerate_pairs",
    "wannier_stark_analysis",
    "GaussianPacket",
    "TimeSeries",
    "make_gaussian",
    "propagate",
    "exact_position_linear",
    "ccr_position_linear",
    "ccr_position_harmonic",
    "run_timeseries",
    "ExperimentConfig",
    "RunManifest",
    "parse_config",
    "run_experiment",
    "emit_dataset",
]
