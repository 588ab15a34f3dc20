"""Entanglement dynamics of two damped oscillator modes in a common thermal bath.

The package propagates two-mode Gaussian covariance matrices in closed form,
solves for the asymptotic state, evaluates the Simon separability function and
the logarithmic negativity along trajectories, and classifies how
entanglement is generated, lost, or revived across environment parameters.
Names beyond ``__all__`` live in the submodules core, dynamics, entanglement,
experiments, presets and cli.
"""

from .core import CovarianceMatrix, thermal_environment
from .dynamics import evolve
from .entanglement import asymptotic_log_negativity, asymptotic_threshold, metrics
from .experiments import SweepSpec, asymptotic_phase_diagram, classify_phase, sweep
from . import presets

__version__ = "0.1.0"

__all__ = [
    "CovarianceMatrix",
    "thermal_environment",
    "evolve",
    "asymptotic_log_negativity",
    "asymptotic_threshold",
    "metrics",
    "SweepSpec",
    "asymptotic_phase_diagram",
    "classify_phase",
    "sweep",
    "presets",
    "__version__",
]
