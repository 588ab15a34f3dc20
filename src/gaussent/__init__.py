"""Entanglement dynamics of two damped oscillator modes in a common thermal bath.

The package propagates two-mode Gaussian covariance matrices in closed form,
solves for the asymptotic state, evaluates the Simon separability function and
the logarithmic negativity along trajectories, and classifies how
entanglement is generated, lost, or revived across environment parameters.
"""

from .core import (
    ENTRY_NAMES,
    CovarianceMatrix,
    DiffusionCheck,
    DiffusionReport,
    EnvironmentSpec,
    StateReport,
    check_physical_state,
    covariance_from_entries,
    diffusion_matrix,
    drift_matrix,
    independent_entries,
    temperature_from_thermal_c,
    thermal_c_from_temperature,
    thermal_environment,
    validate_diffusion,
)
from .dynamics import (
    Trajectory,
    evolve,
    ode_residual,
    propagator,
    sample_trajectory,
    steady_covariance,
)
from .entanglement import (
    AsymptoticEntanglement,
    EntanglementMetrics,
    PtSpectrum,
    ThresholdResult,
    asymptotic_entanglement,
    asymptotic_log_negativity,
    asymptotic_simon,
    asymptotic_threshold,
    log_negativity,
    metrics,
    simon_function,
    symplectic_spectrum_pt,
)
from .experiments import (
    LABELS,
    PhaseClassification,
    PhaseDiagram,
    SweepResult,
    SweepSpec,
    asymptotic_phase_diagram,
    classify_phase,
    sweep,
)
from . import presets

__version__ = "0.1.0"

__all__ = [
    "ENTRY_NAMES",
    "CovarianceMatrix",
    "DiffusionCheck",
    "DiffusionReport",
    "EnvironmentSpec",
    "StateReport",
    "check_physical_state",
    "covariance_from_entries",
    "diffusion_matrix",
    "drift_matrix",
    "independent_entries",
    "temperature_from_thermal_c",
    "thermal_c_from_temperature",
    "thermal_environment",
    "validate_diffusion",
    "Trajectory",
    "evolve",
    "ode_residual",
    "propagator",
    "sample_trajectory",
    "steady_covariance",
    "AsymptoticEntanglement",
    "EntanglementMetrics",
    "PtSpectrum",
    "ThresholdResult",
    "asymptotic_entanglement",
    "asymptotic_log_negativity",
    "asymptotic_simon",
    "asymptotic_threshold",
    "log_negativity",
    "metrics",
    "simon_function",
    "symplectic_spectrum_pt",
    "LABELS",
    "PhaseClassification",
    "PhaseDiagram",
    "SweepResult",
    "SweepSpec",
    "asymptotic_phase_diagram",
    "classify_phase",
    "sweep",
    "presets",
    "__version__",
]
