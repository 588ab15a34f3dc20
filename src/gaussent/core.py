"""Domain types for two identical damped oscillators in a common thermal bath.

Conventions used everywhere in this package: hbar = k = 1, quadratures ordered
as (x, p_x, y, p_y), vacuum covariance I/2, and temperature expressed through
the dimensionless parameter C = coth(omega / (2 T)) >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

Matrix = NDArray[np.float64]

#: Largest asymmetry residual accepted (and symmetrized away) on construction.
SYMMETRY_TOL = 1e-12

#: Slack applied to physicality margins so exact boundary cases pass.
MARGIN_TOL = 1e-12

#: Relative tolerance of the Gibbs-state relations tested by ``is_thermal``.
THERMAL_RTOL = 1e-12

#: Two-mode symplectic form, diag(J, J) with J = [[0, 1], [-1, 0]].
OMEGA = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])

# Upper-triangle entry names in row order; these are the ten independent
# components of a symmetric 4x4 covariance matrix.
_ENTRY_INDEX: dict[str, tuple[int, int]] = {
    "sigma_xx": (0, 0),
    "sigma_xpx": (0, 1),
    "sigma_xy": (0, 2),
    "sigma_xpy": (0, 3),
    "sigma_pxpx": (1, 1),
    "sigma_ypx": (1, 2),
    "sigma_pxpy": (1, 3),
    "sigma_yy": (2, 2),
    "sigma_ypy": (2, 3),
    "sigma_pypy": (3, 3),
}

ENTRY_NAMES: tuple[str, ...] = tuple(_ENTRY_INDEX)


def _check_parameters(m, omega, lam, thermal_c, *coefficients) -> None:
    """Raise ``ValueError`` unless all are finite, m, omega, lam > 0 and thermal_c >= 1."""
    values = (m, omega, lam, thermal_c, *coefficients)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"environment parameters are not finite: {values}")
    if not m > 0:
        raise ValueError(f"mass must be positive, got {m}")
    if not omega > 0:
        raise ValueError(f"frequency must be positive, got {omega}")
    if not lam > 0:
        raise ValueError(f"dissipation constant must be positive, got {lam}")
    if not thermal_c >= 1.0:
        raise ValueError(f"thermal parameter coth(omega/2T) must be >= 1, got {thermal_c}")


@dataclass(frozen=True)
class EnvironmentSpec:
    """Oscillator and bath parameters; fully determines drift and diffusion.

    The two oscillators are identical and couple to the same bath, so the
    y-mode diffusion coefficients mirror the x-mode ones (``d_yy == d_xx`` and
    so on); the mirrored values are exposed as read-only properties.

    ``lam`` must be positive: the drift eigenvalues are -lam +/- i*omega and a
    decaying propagator (hence a steady state) exists only for lam > 0.  Every
    parameter must be finite.
    """

    m: float
    omega: float
    lam: float
    thermal_c: float
    d_xx: float
    d_xpx: float
    d_pxpx: float
    d_xy: float
    d_xpy: float
    d_pxpy: float

    def __post_init__(self) -> None:
        _check_parameters(*vars(self).values())

    @property
    def d_yy(self) -> float:
        return self.d_xx

    @property
    def d_ypy(self) -> float:
        return self.d_xpx

    @property
    def d_pypy(self) -> float:
        return self.d_pxpx

    @property
    def d_ypx(self) -> float:
        return self.d_xpy

    def is_thermal(self) -> bool:
        """True when the coefficients give a Gibbs state at long times.

        Checks m*omega*d_xx == d_pxpx/(m*omega) == lam*thermal_c/2, d_xpx == 0
        and d_pxpy == m^2*omega^2*d_xy, all within ``THERMAL_RTOL``.
        """
        ref = 0.5 * self.lam * self.thermal_c
        mw = self.m * self.omega
        tol = THERMAL_RTOL * max(1.0, abs(ref))
        return (
            abs(mw * self.d_xx - ref) <= tol
            and abs(self.d_pxpx / mw - ref) <= tol
            and abs(self.d_xpx) <= tol
            and abs(self.d_pxpy - mw * mw * self.d_xy) <= THERMAL_RTOL * max(1.0, abs(self.d_pxpy))
        )


def thermal_environment(
    lam: float,
    thermal_c: float,
    d_xy: float = 0.0,
    d_xpy: float = 0.0,
    m: float = 1.0,
    omega: float = 1.0,
) -> EnvironmentSpec:
    """Environment whose asymptotic state is a Gibbs state.

    The diagonal diffusion coefficients are tied to the thermal parameter by
    m*omega*d_xx = d_pxpx/(m*omega) = (lam/2)*thermal_c with d_xpx = 0, and the
    momentum cross-coefficient by d_pxpy = m^2*omega^2*d_xy.  The two cross
    coefficients ``d_xy`` and ``d_xpy`` remain free knobs.  Raises
    ``OverflowError`` when valid parameters overflow m*omega or a coefficient,
    or underflow it to zero.
    """
    _check_parameters(m, omega, lam, thermal_c, d_xy, d_xpy)
    half = 0.5 * lam * thermal_c
    mw = m * omega
    d_xx = half / mw if mw else math.inf
    d_pxpx = half * mw
    d_pxpy = mw * mw * d_xy
    if not (0.0 < d_xx < math.inf and 0.0 < d_pxpx < math.inf and math.isfinite(d_pxpy)):
        raise OverflowError(
            f"thermal diffusion coefficients overflow: m*omega={mw}, d_xx={d_xx}, "
            f"d_pxpx={d_pxpx}, d_pxpy={d_pxpy}"
        )
    return EnvironmentSpec(m, omega, lam, thermal_c, d_xx, 0.0, d_pxpx, d_xy, d_xpy, d_pxpy)


def _square(env: EnvironmentSpec, name: str) -> float:
    """The parameter ``name`` squared; ``OverflowError`` names it when that overflows."""
    try:
        return getattr(env, name) ** 2
    except OverflowError:
        raise OverflowError(
            f"{name}^2 overflows (m={env.m}, omega={env.omega}, lam={env.lam})"
        ) from None


def drift_matrix(env: EnvironmentSpec) -> Matrix:
    """Drift generator Y: block-diagonal, per mode [[-lam, 1/m], [-m*omega^2, -lam]].

    All four eigenvalues are -lam +/- i*omega (characteristic polynomial
    ((s + lam)^2 + omega^2)^2).
    """
    block = np.array(
        [[-env.lam, 1.0 / env.m], [-env.m * _square(env, "omega"), -env.lam]]
    )
    out = np.zeros((4, 4))
    out[:2, :2] = block
    out[2:, 2:] = block
    return out


def diffusion_matrix(env: EnvironmentSpec) -> Matrix:
    """Symmetric diffusion matrix D in (x, p_x, y, p_y) ordering."""
    return np.array(
        [
            [env.d_xx, env.d_xpx, env.d_xy, env.d_xpy],
            [env.d_xpx, env.d_pxpx, env.d_ypx, env.d_pxpy],
            [env.d_xy, env.d_ypx, env.d_yy, env.d_ypy],
            [env.d_xpy, env.d_pxpy, env.d_ypy, env.d_pypy],
        ]
    )


class CovarianceMatrix:
    """4x4 real symmetric covariance matrix in (x, p_x, y, p_y) ordering.

    Construction symmetrizes the input via (M + M^T)/2 when the asymmetry
    residual is at most ``SYMMETRY_TOL`` and rejects it otherwise, so small
    floating-point drift is absorbed but genuinely asymmetric data is not.
    Non-finite entries are rejected.  Physicality is not required here; see
    :func:`check_physical_state`.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries) -> None:
        arr = np.array(entries, dtype=float)
        if arr.shape != (4, 4):
            raise ValueError(f"covariance matrix must be 4x4, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("covariance matrix entries must be finite")
        residual = float(abs(arr - arr.T).max())
        if not residual <= SYMMETRY_TOL:
            raise ValueError(
                f"matrix is not symmetric (max asymmetry {residual:.3e} > {SYMMETRY_TOL})"
            )
        arr = 0.5 * arr  # halving first: the sum below cannot overflow
        arr = arr + arr.T
        arr.setflags(write=False)
        object.__setattr__(self, "_entries", arr)

    @property
    def entries(self) -> Matrix:
        """The full matrix (read-only view)."""
        return self._entries

    def __array__(self, dtype=None):
        return np.asarray(self._entries, dtype=dtype)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CovarianceMatrix):
            return NotImplemented
        return bool(np.array_equal(self._entries, other._entries))

    __hash__ = None

    def __repr__(self) -> str:
        return f"CovarianceMatrix({self._entries.tolist()!r})"


def covariance_from_entries(values) -> CovarianceMatrix:
    """Build a covariance matrix from named independent entries.

    ``values`` maps entry names (``sigma_xx`` ... ``sigma_pypy``) to floats;
    missing entries default to zero, unknown names are rejected.
    """
    out = np.zeros((4, 4))
    for name, value in dict(values).items():
        try:
            i, j = _ENTRY_INDEX[name]
        except KeyError:
            raise ValueError(
                f"unknown covariance entry {name!r}; valid names: {', '.join(ENTRY_NAMES)}"
            ) from None
        out[i, j] = out[j, i] = float(value)
    return CovarianceMatrix(out)


def independent_entries(sigma: CovarianceMatrix) -> dict[str, float]:
    """The ten independent entries of ``sigma`` keyed by canonical name."""
    e = sigma.entries
    return {name: float(e[i, j]) for name, (i, j) in _ENTRY_INDEX.items()}


@dataclass(frozen=True)
class DiffusionCheck:
    """One pairwise diffusion bound: passed iff margin >= -MARGIN_TOL."""

    name: str
    margin: float
    passed: bool


@dataclass(frozen=True)
class DiffusionReport:
    """Result of :func:`validate_diffusion`.

    ``checks`` holds the six pairwise Cauchy-Schwarz bounds; ``passed`` is
    their conjunction and is the gate used by the CLI.
    ``semigroup_psd`` reports whether the full 4x4 complex coefficient matrix
    of the semigroup is positive semidefinite (its smallest eigenvalue is
    ``semigroup_min_eigenvalue``); it is informational, since standard
    benchmark environments with a nonzero x-p_y cross coefficient satisfy the
    pairwise bounds while failing the full-matrix test.
    """

    checks: tuple[DiffusionCheck, ...]
    semigroup_min_eigenvalue: float
    semigroup_psd: bool

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple[DiffusionCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)


_MOMENTUM_FLIP = np.outer([1.0, -1.0, 1.0, -1.0], [1.0, -1.0, 1.0, -1.0])


def _semigroup_coefficient_matrix(env: EnvironmentSpec) -> NDArray[np.complex128]:
    """P D P - (i lam/2) Omega, with P = diag(1, -1, 1, -1)."""
    return diffusion_matrix(env) * _MOMENTUM_FLIP - (0.5j * env.lam) * OMEGA


# The pairwise bounds in report order, each the 2x2 principal minor of the
# coefficient matrix at (row, column).
_PAIRWISE_BOUNDS = {
    "xx_pxpx": (0, 1),
    "yy_pypy": (2, 3),
    "xx_yy": (0, 2),
    "pxpx_pypy": (1, 3),
    "xx_pypy": (0, 3),
    "yy_pxpx": (1, 2),
}
_BOUND_ROWS, _BOUND_COLS = np.array(list(_PAIRWISE_BOUNDS.values())).T


def validate_diffusion(env: EnvironmentSpec) -> DiffusionReport:
    """Check the diffusion coefficients against the semigroup positivity bounds.

    The six pairwise bounds are the 2x2 principal minors of the complex
    coefficient matrix of the semigroup:
    d_xx*d_pxpx - d_xpx^2 >= lam^2/4 (and its y twin),
    d_xx*d_yy >= d_xy^2, d_pxpx*d_pypy >= d_pxpy^2,
    d_xx*d_pypy >= d_xpy^2 and d_yy*d_pxpx >= d_ypx^2.
    Each is reported with its margin (left side minus right side).  The full
    matrix is additionally tested for positive semidefiniteness through its
    smallest eigenvalue.  Raises ``OverflowError`` when a margin or that
    eigenvalue is not finite, since the bounds cannot be decided then.
    """
    coef = _semigroup_coefficient_matrix(env)
    diag = coef.diagonal().real
    off = coef[_BOUND_ROWS, _BOUND_COLS]
    margins = diag[_BOUND_ROWS] * diag[_BOUND_COLS] - off.real * off.real - off.imag * off.imag
    checks = tuple(
        DiffusionCheck(name=name, margin=float(margin), passed=bool(margin >= -MARGIN_TOL))
        for name, margin in zip(_PAIRWISE_BOUNDS, margins)
    )
    min_eigenvalue = float(np.linalg.eigvalsh(coef)[0])
    if not (np.isfinite(margins).all() and math.isfinite(min_eigenvalue)):
        raise OverflowError(
            f"diffusion bounds are not finite (margins {margins.tolist()}, "
            f"min eigenvalue {min_eigenvalue})"
        )
    return DiffusionReport(
        checks=checks,
        semigroup_min_eigenvalue=min_eigenvalue,
        semigroup_psd=min_eigenvalue >= -MARGIN_TOL,
    )


@dataclass(frozen=True)
class StateReport:
    """Result of :func:`check_physical_state`."""

    min_eigenvalue: float
    physical: bool


def check_physical_state(sigma: CovarianceMatrix) -> StateReport:
    """Decide the uncertainty principle sigma + (i/2) Omega >= 0.

    This implies sigma >= 0 and states nu_- >= 1/2 for the symplectic
    eigenvalues, the form used by Simon's separability criterion.  Each mode
    is rescaled by the symplectic diag(s, 1/s), s = (sigma_pp/sigma_xx)^(1/4),
    which keeps the sign of every eigenvalue, so that axis squeezing does not
    widen the slack.  Physical means a positive diagonal and a smallest
    eigenvalue (``min_eigenvalue``, after rescaling) of at least
    -MARGIN_TOL * max(1, max|rescaled sigma|).  Raises ``OverflowError`` if
    the rescaled sigma overflows, which only a non-PSD sigma can do.
    """
    entries = sigma.entries
    xx, pp, yy, qq = (math.sqrt(math.sqrt(v)) if v > 0 else 0.0 for v in entries.diagonal())
    positive = bool(xx and pp and yy and qq)
    if positive:
        # ratios of fourth roots: s cannot overflow
        scale = np.array([pp / xx, xx / pp, qq / yy, yy / qq])
        with np.errstate(over="ignore"):
            entries = entries * np.outer(scale, scale)
    slack = MARGIN_TOL * max(1.0, float(np.max(np.abs(entries))))
    if slack == math.inf:
        raise OverflowError("covariance matrix overflows when its modes are rescaled")
    min_eigenvalue = float(np.linalg.eigvalsh(entries + 0.5j * OMEGA)[0])
    return StateReport(min_eigenvalue, positive and min_eigenvalue >= -slack)


def thermal_c_from_temperature(temperature: float, omega: float = 1.0) -> float:
    """Convert a temperature (k = 1) to the thermal parameter coth(omega/2T).

    Raises ``ValueError`` for a negative or non-finite temperature and
    ``OverflowError`` when omega/T is so small that C overflows.
    """
    if not 0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and nonnegative, got {temperature}")
    if temperature == 0:
        return 1.0
    tanh = math.tanh(0.5 * omega / temperature)
    thermal_c = 1.0 / tanh if tanh else math.inf
    if thermal_c == math.inf:
        raise OverflowError(f"thermal parameter overflows at temperature {temperature}")
    return thermal_c


def temperature_from_thermal_c(thermal_c: float, omega: float = 1.0) -> float:
    """Inverse of :func:`thermal_c_from_temperature`; thermal_c = 1 maps to T = 0."""
    if thermal_c < 1.0:
        raise ValueError(f"thermal parameter must be >= 1, got {thermal_c}")
    if thermal_c == 1.0:
        return 0.0
    return 0.5 * omega / math.atanh(1.0 / thermal_c)
