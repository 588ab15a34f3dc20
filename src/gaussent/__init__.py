"""Entanglement dynamics of two damped oscillator modes in a common thermal bath.

The package propagates two-mode Gaussian covariance matrices in closed form,
solves for the asymptotic state, evaluates the Simon separability function and
the logarithmic negativity along trajectories, and classifies how
entanglement is generated, lost, or revived across environment parameters.
Names beyond ``__all__`` live in the submodules core, dynamics, entanglement,
experiments, presets and cli.  experiments is imported, with numpy, when one
of its names is first read from the package.  Elsewhere numpy loads only to
build a ``CovarianceMatrix`` from a matrix, to read ``.entries`` or
``np.asarray(state)``, for an unphysical state's ``min_eigenvalue``, in
``propagator`` and in the cli functions that write experiments' grids.
"""

from .core import CovarianceMatrix, thermal_environment
from .dynamics import evolve
from .entanglement import asymptotic_threshold, metrics
from . import presets

_EXPERIMENTS = ("SweepSpec", "asymptotic_phase_diagram", "classify_phase", "sweep")


def __getattr__(name: str):
    # looked up on every read, never stored here: a name patched or wrapped in
    # experiments is what the package gives
    if name in _EXPERIMENTS:
        from . import experiments

        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPERIMENTS})


__version__ = "0.1.0"

__all__ = [
    "CovarianceMatrix", "thermal_environment", "evolve", "asymptotic_threshold", "metrics",
    *_EXPERIMENTS, "presets", "__version__",
]
