"""Parameter sweeps and classification of entanglement time patterns.

A trajectory's pattern is summarized by the sign history of the Simon
function: where it starts, how often it crosses zero, and where it ends up
asymptotically.  Crossings are detected between grid samples of unequal sign,
so a grid too coarse for two nearby crossings misses both; each one detected
is refined by bisection on the exact flow, to a time independent of the grid.
Only this module reads a time column: instants, (4, n) rotations, (10, n) states.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from collections import namedtuple
from typing import Sequence

import numpy as np

from .core import CovarianceMatrix, EnvironmentSpec, thermal_environment
from .core import _check_real, _check_real_array
from .dynamics import _evolved, _offsets, _rotation, steady_covariance
from .entanglement import _invariants, _pt_terms, _simon, _threshold
from .entanglement import metrics, simon_function

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


class PhaseClassification(
    namedtuple("PhaseClassification", "label event_times s_initial_sign s_infinity_sign")
):
    """Label of an entanglement trajectory plus the refined crossing instants.

    The label is a pure function of the initial sign class of the Simon
    function and the number of sign changes:

    - no crossings: ``remains_separable`` / ``remains_entangled``
    - separable start: 1 crossing -> ``generation_persistent``,
      2 crossings -> ``generation_transient``, more -> ``collapse_revival``
    - entangled start: 1 crossing -> ``sudden_death``,
      more -> ``collapse_revival``

    Signs are -1/0/+1; the S = 0 boundary counts as separable.  Merging keeps
    each crossing cluster's parity, so the last sample is entangled iff
    ``(s_initial_sign < 0) ^ len(event_times) % 2``; where that is not
    ``s_infinity_sign < 0``, the sampling horizon is probably too short.
    """

    __slots__ = ()


def _sign(value: float) -> int:
    return (value > 0) - (value < 0)


def _check_size(name: str, value, least: int) -> int:
    """The grid size ``value`` as an ``int``, by ``operator.index``; raise
    ``TypeError`` unless it is an integer and ``ValueError`` if it is below
    ``least``."""
    try:
        size = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if size < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return size


def _check_horizon(t_max, n_t) -> tuple[float, int]:
    """``t_max`` as a float and ``n_t`` as an int, checked as every time column
    needs them: a real 0 < t_max < inf and an integer n_t >= 2."""
    t_max, = _check_real("t_max", (t_max,))
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    return t_max, _check_size("n_t", n_t, 2)


def _linspace(start: float, stop: float, num: int) -> np.ndarray:
    """``np.linspace`` without its overflow and invalid warnings.  For finite
    ends whose width is finite the grid is finite: the last index times the
    step may round past the largest float, but that point is then set to
    ``stop``.  A width that overflows gives points that are not finite, which
    the caller checks."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linspace(start, stop, num)


@functools.lru_cache(maxsize=4)
def _time_column(lam: float, omega: float, m: float, t_max: float, n_t: int):
    """The ``n_t`` uniform instants over [0, t_max] as a tuple of floats, the
    (4, n_t) array of their ``_rotation`` for the oscillator (lam, omega, m),
    with the scalar bits, and the number of instants equal to 0, which lead the
    grid, as it starts at 0 and does not decrease.  The array is a read-only
    view of immutable bytes, so no caller can make it writable.  A column
    holds about 65 n_t bytes; errors are not cached."""
    times = tuple(_linspace(0.0, t_max, n_t).tolist())
    rot = np.array([_rotation(lam, omega, m, t) for t in times]).T.tobytes()
    return times, np.frombuffer(rot).reshape(4, -1), times.count(0.0)


#: Flat indices, in ``ENTRY_NAMES`` order, of the entries of the
#: (3, 2, 2) stack of blocks (A, B, C) that ``_congruences`` returns.
_BLOCK_ENTRIES = (0, 1, 8, 9, 3, 10, 11, 4, 5, 7)


def _congruences(offsets, fixed, rot):
    """(10, n) array of ``dynamics._propagate`` at each rotation of the (4, n) column
    ``rot``, with its bits: the blocks (A, B, C) of X are one (3, 2, 2) stack, and Y = R X
    (y_ij = r_i0 x_0j + r_i1 x_1j) and Y R^T (y_i0 r_j0 + y_i1 r_j1) are each one broadcast
    product, the same rounded operations in the same order.  Where it overflows the
    entries are inf or NaN, and numpy warns.  It stays apart from ``_propagate``, since one
    array form of both would put numpy on every bisection step."""
    a0, a1, c0, c1, a2, c2, c3, b0, b1, b2 = offsets
    # x[b, 0, k, j, 0] is entry (k, j) of block b; r[i, k, t] that of R at instant t
    x = np.array(((a0, a1, a1, a2), (b0, b1, b1, b2), (c0, c1, c2, c3))).reshape(3, 1, 2, 2, 1)
    r = rot.reshape(2, 2, -1)
    y = r[:, 0, None] * x[:, :, 0]  # y[b, i, j, t]
    y += r[:, 1, None] * x[:, :, 1]
    z = y[:, :, 0, None] * r[:, 0]  # z[b, i, j, t]
    z += y[:, :, 1, None] * r[:, 1]
    out = z.reshape(12, -1)[_BLOCK_ENTRIES,]
    out += np.array(fixed)[:, None]
    return out


def _column(initial: CovarianceMatrix, env: EnvironmentSpec, t_max: float, n_t: int):
    """The steady state of ``env``, the instants of its time column over
    [0, t_max] and the (10, n_t) array of ``evolve`` of ``initial`` at each,
    with its bits: the t = 0 instants take ``initial``'s entries.  The steady
    solve comes first, so a bath error is raised before a phase overflow."""
    fixed = steady_covariance(env)
    times, rot, zeros = _time_column(env.lam, env.omega, env.m, t_max, n_t)
    with np.errstate(over="ignore", invalid="ignore"):
        entries = _congruences(_offsets(initial._values, fixed._values), fixed._values, rot)
    entries[:, :zeros] = np.array(initial._values)[:, None]
    finite = np.isfinite(entries).all(axis=0)
    if not finite.all():
        raise OverflowError(
            f"evolved covariance matrix is not finite at t = {times[finite.argmin()]}"
        )
    return fixed, times, entries


def _column_states(entries):
    """The states of a (10, n) array of ``_column`` entries, instant by
    instant, each of ten floats unpacked from the array's bytes."""
    return map(CovarianceMatrix._of, struct.iter_unpack("10d", entries.T.tobytes()))


def _column_negativity(entries) -> np.ndarray:
    """log_negativity of each column of a (10, n) array of entries, with the
    same bits, and NaN where it is None: the PT terms are one array pass and
    ``np.sqrt`` is correctly rounded like ``math.sqrt``.  L maps ``math.log2``
    over the cells with nu~_-^2 > 0, since the vectorised ``np.log2`` rounds
    some arguments differently, and clamps -0.0 and below to 0.0 as
    ``max(0.0, h)`` does.  Where a discriminant is not finite, raises what
    ``metrics`` raises for the first such column: an overflowing S also
    overflows the discriminant, so that is the first column whose ``metrics``
    fails.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        delta, _, disc = _pt_terms(_invariants(entries))
        nu_minus_sq = 0.5 * (delta - np.sqrt(disc))
        quadrupled = 4.0 * nu_minus_sq
    finite = np.isfinite(disc)
    if not finite.all():
        metrics(CovarianceMatrix._of(tuple(entries[:, finite.argmin()].tolist())))
    defined = nu_minus_sq > 0.0
    h = -0.5 * np.fromiter(map(math.log2, quadrupled[defined].tolist()), float)
    log_neg = np.full(nu_minus_sq.shape, math.nan)
    log_neg[defined] = np.where(h > 0.0, h, 0.0)
    return log_neg


def _refine_crossing(
    initial: CovarianceMatrix,
    env: EnvironmentSpec,
    fixed: CovarianceMatrix,
    t_lo: float,
    t_hi: float,
    lo_entangled: bool,
) -> float:
    """Bisect on the sign class of S over [t_lo, t_hi] while the bracket is
    wider than EVENT_TIME_TOL and its midpoint lies strictly inside it, which
    it does not once the ends are adjacent floats.  Each step is ``evolve``'s
    scalar step, ``_evolved``, at the midpoint, from s0 - s_inf formed once."""
    offsets, fixed = _offsets(initial._values, fixed._values), fixed._values
    lam, omega, m = env.lam, env.omega, env.m
    while t_hi - t_lo > EVENT_TIME_TOL:
        mid = 0.5 * (t_lo + t_hi)
        if not t_lo < mid < t_hi:
            break
        state = _evolved(offsets, fixed, _rotation(lam, omega, m, mid), mid)
        if (simon_function(state) < 0.0) == lo_entangled:
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

    S(t) is sampled on the ``n_t`` uniform instants over [0, t_max] of the
    cached time column of the bath's oscillator; every sign change between
    consecutive samples is refined by bisection on the exact flow, and the
    asymptotic sign is that of S at the solved steady state.
    """
    fixed, times, entries = _column(initial, env, *_check_horizon(t_max, n_t))
    s_values = np.array([simon_function(state) for state in _column_states(entries)])
    classes = s_values < 0.0

    events = _merge_events(
        [
            _refine_crossing(initial, env, fixed, times[k], times[k + 1], bool(classes[k]))
            for k in np.nonzero(classes[:-1] != classes[1:])[0]
        ]
    )

    labels = _LABELS[bool(classes[0])]
    return PhaseClassification(
        label=labels[min(len(events), len(labels) - 1)],
        event_times=tuple(events),
        s_initial_sign=_sign(float(s_values[0])),
        s_infinity_sign=_sign(_simon(_invariants(fixed._values))),
    )


class SweepSpec(
    namedtuple(
        "SweepSpec",
        "env_base initial t_max n_t c_min c_max n_c",
        defaults=(50.0, 500, 1.0, 1.5, 20),
    )
):
    """Grid specification for a (time, thermal parameter) surface.

    The thermal parameter is overridden at each grid column, so ``env_base``
    must be a bath that ``thermal_environment`` builds; its ``thermal_c`` is
    not read, and its lam, m, omega, d_xy and d_xpy are reused.  The time grid
    has ``n_t`` samples including t = 0; the thermal grid has ``n_c`` columns.
    It is an immutable named tuple, validated and converted on construction, ``_make`` and
    ``_replace`` included: t_max, c_min and c_max are stored as floats, n_t and n_c as ints.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.env_base.is_thermal():
            raise ValueError("sweeps override thermal_c and need a thermal env_base")
        t_max, n_t = _check_horizon(self.t_max, self.n_t)
        c_min, c_max = _check_real("{}", {"c_min": self.c_min, "c_max": self.c_max})
        n_c = _check_size("n_c", self.n_c, 1)
        if not c_min >= 1.0:
            raise ValueError(f"c_min must be >= 1, got {c_min}")
        if not c_min <= c_max < math.inf:
            raise ValueError(f"c_max must be finite and >= c_min, got {c_max}")
        return tuple.__new__(cls, (self.env_base, self.initial, t_max, n_t, c_min, c_max, n_c))

    @classmethod
    def _make(cls, iterable) -> SweepSpec:
        return cls(*iterable)

    def thermal_cs(self) -> np.ndarray:
        return _linspace(self.c_min, self.c_max, self.n_c)

    def environment_at(self, thermal_c: float) -> EnvironmentSpec:
        base = self.env_base
        return thermal_environment(
            base.lam, thermal_c, base.d_xy, base.d_xpy, base.m, base.omega
        )


class SweepResult(
    namedtuple("SweepResult", "spec times thermal_cs simon log_neg defined classifications")
):
    """Simon and logarithmic-negativity surfaces over a (t, c) grid.

    ``log_neg`` holds NaN where the degree is undefined, and ``defined`` is
    the mask of the other cells, so undefined points are propagated, never
    dropped.  Arrays have no truth value, so a result equals only itself.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def sweep(spec: SweepSpec) -> SweepResult:
    """Fill the (t, c) grid with S and L and classify each thermal column.
    Each column of L is the array ``_column_negativity`` returns, NaN where
    L is undefined."""
    cs = spec.thermal_cs()
    simon = np.empty((spec.n_t, spec.n_c))
    log_neg = np.empty((spec.n_t, spec.n_c))
    classifications = []
    for j, c in enumerate(cs):
        env_c = spec.environment_at(c)
        _, times, entries = _column(spec.initial, env_c, spec.t_max, spec.n_t)
        log_neg[:, j] = _column_negativity(entries)
        simon[:, j] = [simon_function(state) for state in _column_states(entries)]
        classifications.append(classify_phase(spec.initial, env_c, spec.t_max, spec.n_t))
    times = np.array(times)
    return SweepResult(spec, times, cs, simon, log_neg, ~np.isnan(log_neg), tuple(classifications))


class PhaseDiagram(namedtuple("PhaseDiagram", "d_xpy_values thermal_cs entangled unphysical")):
    """Entangled-at-infinity map over a (d_xpy, thermal_c) grid at one d_xy.

    A cell violating (lam/2) thermal_c >= max(|d_xpy|, m omega |d_xy|) is
    unphysical and not entangled; a physical cell is entangled iff thermal_c
    is below its row's :func:`~gaussent.entanglement.asymptotic_threshold`.
    It equals only itself, as a :class:`SweepResult` does.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def asymptotic_phase_diagram(
    lam: float,
    omega: float,
    d_xpy_grid: Sequence[float],
    c_grid: Sequence[float],
    m: float = 1.0,
    d_xy: float = 0.0,
) -> PhaseDiagram:
    """Mark each (d_xpy, thermal_c) cell entangled iff the asymptote has S < 0.

    Raises ``TypeError`` for complex or text grids, ``ValueError`` unless both
    grids are 1-D, and what ``thermal_environment`` raises for its parameters,
    checked once, also for an empty grid, on the environment at the largest
    thermal_c and |d_xpy|, whose coefficients are every cell's largest.
    """
    grids = {"d_xpy_grid": np.asarray(d_xpy_grid), "c_grid": np.asarray(c_grid)}
    for name, grid in grids.items():
        _check_real_array(name, grid)
        if grid.ndim != 1:
            raise ValueError(f"{name} must be 1-D, got shape {grid.shape}")
    d_values, cs = (grid.astype(float, copy=False) for grid in grids.values())
    if not np.all(cs >= 1.0):
        raise ValueError(f"thermal parameters must be >= 1, got {cs.min()}")
    magnitudes = np.abs(d_values)
    env = thermal_environment(lam, cs.max(initial=1.0), d_xy, magnitudes.max(initial=0.0), m, omega)
    lam, omega, m, d_xy = env.lam, env.omega, env.m, env.d_xy  # as Python floats
    unphysical = 0.5 * lam * cs[None, :] < np.maximum(magnitudes, m * omega * abs(d_xy))[:, None]
    with np.errstate(over="ignore"):  # a C* past the float range is inf and compares as it does
        thresholds = _threshold(lam, omega, m, d_xy, magnitudes, (np.maximum, np.minimum, np.sqrt))
    entangled = ~unphysical & (cs[None, :] < thresholds[:, None])
    return PhaseDiagram(d_values, cs, entangled, unphysical)
