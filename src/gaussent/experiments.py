"""Parameter sweeps and classification of entanglement time patterns.

A trajectory's pattern is summarized by the sign history of the Simon
function: where it starts, how often it crosses zero, and where it ends up
asymptotically.  Crossings are detected between grid samples of unequal sign,
so a grid too coarse for two nearby crossings misses both; each one detected
is refined by bisection on the exact flow, to a time independent of the grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CovarianceMatrix, EnvironmentSpec, thermal_environment
from .dynamics import _column_entries, evolve, steady_covariance
from .entanglement import (
    _column_negativity,
    _simon,
    asymptotic_threshold,
    simon_function,
    symplectic_spectrum_pt,
)

#: Bisection window below which a crossing instant is considered resolved.
EVENT_TIME_TOL = 1e-8

#: Crossings closer than this are treated as one grazing contact and merged.
EVENT_MERGE_TOL = 1e-6

#: Label by initial sign class (separable False, entangled True) and number of
#: sign changes of S; counts past the end of a row take its last label.
_LABELS = {
    False: (
        "remains_separable",
        "generation_persistent",
        "generation_transient",
        "collapse_revival",
    ),
    True: ("remains_entangled", "sudden_death", "collapse_revival"),
}
LABELS = tuple(dict.fromkeys(label for row in _LABELS.values() for label in row))


@dataclass(frozen=True)
class PhaseClassification:
    """Label of an entanglement trajectory plus the refined crossing instants.

    The label is a pure function of the initial sign class of the Simon
    function and the number of sign changes:

    - no crossings: ``remains_separable`` / ``remains_entangled``
    - separable start: 1 crossing -> ``generation_persistent``,
      2 crossings -> ``generation_transient``, more -> ``collapse_revival``
    - entangled start: 1 crossing -> ``sudden_death``,
      more -> ``collapse_revival``

    Signs are -1/0/+1; the S = 0 boundary counts as separable.
    """

    label: str
    event_times: tuple[float, ...]
    s_initial_sign: int
    s_infinity_sign: int


def _sign(value: float) -> int:
    return (value > 0) - (value < 0)


def _refine_crossing(
    initial: CovarianceMatrix,
    env: EnvironmentSpec,
    fixed: CovarianceMatrix,
    t_lo: float,
    t_hi: float,
    lo_entangled: bool,
) -> float:
    """Bisect on the sign class of S over [t_lo, t_hi] down to EVENT_TIME_TOL."""
    while t_hi - t_lo > EVENT_TIME_TOL:
        mid = 0.5 * (t_lo + t_hi)
        mid_entangled = simon_function(evolve(initial, env, mid, steady=fixed)) < 0.0
        if mid_entangled == lo_entangled:
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


def _merge_events(times: list[float]) -> list[float]:
    """Collapse crossings closer than EVENT_MERGE_TOL.

    Each crossing flips the sign class, so a cluster changes the class iff it
    holds an odd number of crossings: an odd cluster becomes one event at the
    midpoint of its first and last times, an even one (a grazing contact) is
    dropped.
    """
    merged: list[float] = []
    i = 0
    while i < len(times):
        j = i
        while j + 1 < len(times) and times[j + 1] - times[j] < EVENT_MERGE_TOL:
            j += 1
        if (j - i) % 2 == 0:
            merged.append(0.5 * (times[i] + times[j]))
        i = j + 1
    return merged


def classify_phase(
    initial: CovarianceMatrix,
    env: EnvironmentSpec,
    t_max: float,
    n_t: int,
) -> PhaseClassification:
    """Classify the entanglement time pattern of one trajectory.

    S(t) is sampled on ``n_t`` uniform instants over [0, t_max]; every sign
    change between consecutive samples is refined by bisection on the exact
    flow, and the asymptotic sign is that of S at the solved steady state.
    For a reliable asymptotic sign the horizon should cover several
    dissipation times (t_max >= 5/lam) with n_t >= 100; shorter grids are
    accepted with a warning.
    """
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if n_t < 2:
        raise ValueError(f"n_t must be at least 2, got {n_t}")
    if t_max * env.lam < 5.0 or n_t < 100:
        warnings.warn(
            "classification grid is below the recommended resolution "
            f"(t_max >= {5.0 / env.lam:.3g} and n_t >= 100); the result may "
            "miss crossings",
            stacklevel=2,
        )
    fixed = steady_covariance(env)
    times = np.linspace(0.0, t_max, n_t).tolist()
    entries = _column_entries(initial, env, times, fixed)
    s_values = np.array([simon_function(CovarianceMatrix._of(v)) for v in zip(*entries.tolist())])
    classes = s_values < 0.0

    events = _merge_events(
        [
            _refine_crossing(initial, env, fixed, times[k], times[k + 1], bool(classes[k]))
            for k in np.nonzero(classes[:-1] != classes[1:])[0]
        ]
    )

    s_infinity = _simon(fixed._values)
    if bool(classes[-1]) != (s_infinity < 0.0):
        warnings.warn(
            "final sampled Simon sign disagrees with the asymptotic sign; "
            "the sampling horizon is probably too short",
            stacklevel=2,
        )
    labels = _LABELS[bool(classes[0])]
    return PhaseClassification(
        label=labels[min(len(events), len(labels) - 1)],
        event_times=tuple(events),
        s_initial_sign=_sign(float(s_values[0])),
        s_infinity_sign=_sign(s_infinity),
    )


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for a (time, thermal parameter) surface.

    The environment's thermal parameter is overridden at each grid column, so
    ``env_base`` must be thermal; its dissipation and cross-diffusion
    coefficients are reused as-is.  The time grid has ``n_t`` samples
    including t = 0; the thermal grid has ``n_c`` columns.
    """

    env_base: EnvironmentSpec
    initial: CovarianceMatrix
    t_max: float = 50.0
    n_t: int = 500
    c_min: float = 1.0
    c_max: float = 1.5
    n_c: int = 20

    def __post_init__(self) -> None:
        if not self.env_base.is_thermal():
            raise ValueError("sweeps override thermal_c and need a thermal env_base")
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if self.n_t < 2:
            raise ValueError(f"n_t must be at least 2, got {self.n_t}")
        if self.n_c < 1:
            raise ValueError(f"n_c must be at least 1, got {self.n_c}")
        if not self.c_min >= 1.0:
            raise ValueError(f"c_min must be >= 1, got {self.c_min}")
        if not self.c_min <= self.c_max < math.inf:
            raise ValueError(f"c_max must be finite and >= c_min, got {self.c_max}")

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_t)

    def thermal_cs(self) -> np.ndarray:
        return np.linspace(self.c_min, self.c_max, self.n_c)

    def environment_at(self, thermal_c: float) -> EnvironmentSpec:
        base = self.env_base
        return thermal_environment(
            base.lam, thermal_c, base.d_xy, base.d_xpy, base.m, base.omega
        )


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Simon and logarithmic-negativity surfaces over a (t, c) grid.

    ``log_neg`` holds NaN where the degree is undefined, and ``defined`` is
    the mask of the other cells, so undefined points are propagated, never
    dropped.
    """

    spec: SweepSpec
    times: np.ndarray
    thermal_cs: np.ndarray
    simon: np.ndarray
    log_neg: np.ndarray
    defined: np.ndarray
    classifications: tuple[PhaseClassification, ...]


def sweep(spec: SweepSpec) -> SweepResult:
    """Fill the (t, c) grid with S and L and classify each thermal column."""
    times = spec.times()
    instants = times.tolist()
    cs = spec.thermal_cs()
    simon = np.empty((spec.n_t, spec.n_c))
    log_neg = np.empty((spec.n_t, spec.n_c))
    classifications = []
    for j, c in enumerate(cs):
        env_c = spec.environment_at(float(c))
        entries = _column_entries(spec.initial, env_c, instants, steady_covariance(env_c))
        states = [CovarianceMatrix._of(v) for v in zip(*entries.tolist())]
        try:
            log_neg[:, j] = _column_negativity(entries)  # an undefined L (None) is stored as NaN
        except OverflowError:
            for state in states:  # raise what S or the spectrum raises first, cell by cell
                simon_function(state)
                symplectic_spectrum_pt(state)
            raise
        simon[:, j] = [simon_function(state) for state in states]
        classifications.append(classify_phase(spec.initial, env_c, spec.t_max, spec.n_t))
    return SweepResult(
        spec=spec,
        times=times,
        thermal_cs=cs,
        simon=simon,
        log_neg=log_neg,
        defined=~np.isnan(log_neg),
        classifications=tuple(classifications),
    )


@dataclass(frozen=True, eq=False)
class PhaseDiagram:
    """Entangled-at-infinity map over a (d_xpy, thermal_c) grid, d_xy = 0.

    Cells violating the diffusion constraint (lam/2) thermal_c >= |d_xpy| are
    marked unphysical and excluded from the entangled set.  A physical cell is
    entangled iff thermal_c < C* = 1 + 2|d_xpy| / sqrt(lam^2 + omega^2), the
    row's :func:`~gaussent.entanglement.asymptotic_threshold`.
    """

    d_xpy_values: np.ndarray
    thermal_cs: np.ndarray
    entangled: np.ndarray
    unphysical: np.ndarray

    def statuses(self) -> list[list[str]]:
        """Each cell's status, row by row: unphysical, else entangled or separable."""
        names = ("separable", "entangled", "unphysical")
        codes = np.where(self.unphysical, 2, self.entangled).tolist()
        return [[names[k] for k in row] for row in codes]


def asymptotic_phase_diagram(
    lam: float,
    omega: float,
    d_xpy_grid: Sequence[float],
    c_grid: Sequence[float],
    m: float = 1.0,
) -> PhaseDiagram:
    """Mark each (d_xpy, thermal_c) cell entangled iff the asymptote has S < 0.

    Raises ``ValueError`` for parameters that ``thermal_environment`` rejects
    (non-positive lam, omega or m, thermal_c < 1, non-finite values).
    """
    d_values = np.asarray(d_xpy_grid, dtype=float)
    cs = np.asarray(c_grid, dtype=float)
    if not np.all(cs >= 1.0):
        raise ValueError(f"thermal parameters must be >= 1, got {cs.min()}")
    # one environment per row at the largest c, whose coefficients are the
    # row's largest, validates every cell of the row
    c_top = float(cs.max(initial=1.0))
    thresholds = np.array(
        [
            asymptotic_threshold(thermal_environment(lam, c_top, 0.0, float(d), m, omega))
            for d in d_values
        ]
    )
    unphysical = 0.5 * lam * cs[None, :] < np.abs(d_values)[:, None]
    entangled = ~unphysical & (cs[None, :] < thresholds[:, None])
    return PhaseDiagram(
        d_xpy_values=d_values,
        thermal_cs=cs,
        entangled=entangled,
        unphysical=unphysical,
    )
