"""Named benchmark initial states and the reference bath parameters.

The four ``fig*`` presets are the canonical surface-study scenarios: two
separable single-mode preparations (a squeezed state and a mixed state) and
their entangled counterparts with x-y / p_x-p_y cross correlations added.
Both modes are prepared identically (A = B).  The entangled presets sit on or
over the physicality boundary on purpose; they are accepted leniently and
flagged by the physicality checks rather than rejected.
"""

from __future__ import annotations

from .core import CovarianceMatrix, EnvironmentSpec, covariance_from_entries, thermal_environment

_SQUEEZED = {"sigma_xx": 0.75, "sigma_pxpx": 1.0 / 3.0, "sigma_yy": 0.75, "sigma_pypy": 1.0 / 3.0}
_MIXED = {"sigma_xx": 1.0, "sigma_pxpx": 0.5, "sigma_yy": 1.0, "sigma_pypy": 0.5}
_CROSS = {"sigma_xy": 0.5, "sigma_pxpy": -0.5}

_INITIAL_ENTRIES: dict[str, dict[str, float]] = {
    "vacuum": {"sigma_xx": 0.5, "sigma_pxpx": 0.5, "sigma_yy": 0.5, "sigma_pypy": 0.5},
    "fig1": dict(_SQUEEZED),
    "fig2": dict(_MIXED),
    "fig3": {**_SQUEEZED, **_CROSS},
    "fig4": {**_MIXED, **_CROSS},
}

PRESET_NAMES: tuple[str, ...] = tuple(_INITIAL_ENTRIES)

#: One state per preset, built once: a ``CovarianceMatrix`` is its ten floats,
#: and each ``entries`` read builds a new array, so lookups share it.
_STATES = {name: covariance_from_entries(entries) for name, entries in _INITIAL_ENTRIES.items()}


def initial_state(name: str) -> CovarianceMatrix:
    """Look up a named initial covariance matrix (lenient construction); every
    lookup of a name returns the same shared, immutable state."""
    try:
        return _STATES[name]
    except KeyError:
        raise ValueError(
            f"unknown initial-state preset {name!r}; valid names: {', '.join(PRESET_NAMES)}"
        ) from None


def benchmark_environment() -> EnvironmentSpec:
    """The reference bath used by the surface studies: thermal at C = 1,
    lam = 0.1, d_xy = 0, d_xpy = 0.049 and m = omega = 1."""
    return thermal_environment(0.1, 1.0, 0.0, 0.049)
