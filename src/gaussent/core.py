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
        # the sum is finite exactly when every parameter is, short of overflow
        if not math.isfinite(self.m + self.omega + self.lam + self.thermal_c + self.d_xx
                             + self.d_xpx + self.d_pxpx + self.d_xy + self.d_xpy + self.d_pxpy):
            raise ValueError(f"environment parameters are not finite or overflow: {self}")
        if not self.m > 0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if not self.omega > 0:
            raise ValueError(f"frequency must be positive, got {self.omega}")
        if not self.lam > 0:
            raise ValueError(f"dissipation constant must be positive, got {self.lam}")
        if not self.thermal_c >= 1.0:
            raise ValueError(
                f"thermal parameter coth(omega/2T) must be >= 1, got {self.thermal_c}"
            )

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
    coefficients ``d_xy`` and ``d_xpy`` remain free knobs.
    """
    if not m > 0 or not omega > 0:
        raise ValueError(f"mass and frequency must be positive, got m={m}, omega={omega}")
    half = 0.5 * lam * thermal_c
    mw = m * omega
    return EnvironmentSpec(
        m=m,
        omega=omega,
        lam=lam,
        thermal_c=thermal_c,
        d_xx=half / mw,
        d_xpx=0.0,
        d_pxpx=half * mw,
        d_xy=d_xy,
        d_xpy=d_xpy,
        d_pxpy=mw * mw * d_xy,
    )


def drift_matrix(env: EnvironmentSpec) -> Matrix:
    """Drift generator Y: block-diagonal, per mode [[-lam, 1/m], [-m*omega^2, -lam]].

    All four eigenvalues are -lam +/- i*omega (characteristic polynomial
    ((s + lam)^2 + omega^2)^2).
    """
    block = np.array(
        [[-env.lam, 1.0 / env.m], [-env.m * env.omega**2, -env.lam]]
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
    Non-finite entries are rejected.
    With ``strict=True`` the matrix must also describe a physical state
    (positive semidefinite with both symplectic eigenvalues >= 1/2).
    """

    __slots__ = ("_entries",)

    def __init__(self, entries, *, strict: bool = False) -> None:
        arr = np.array(entries, dtype=float)
        if arr.shape != (4, 4):
            raise ValueError(f"covariance matrix must be 4x4, got shape {arr.shape}")
        residual = float(np.max(np.abs(arr - arr.T)))
        # a NaN or infinite entry makes the residual NaN or infinite
        if not residual <= SYMMETRY_TOL:
            if not np.isfinite(arr).all():
                raise ValueError("covariance matrix entries must be finite")
            raise ValueError(
                f"matrix is not symmetric (max asymmetry {residual:.3e} > {SYMMETRY_TOL})"
            )
        arr = 0.5 * (arr + arr.T)
        arr.setflags(write=False)
        object.__setattr__(self, "_entries", arr)
        if strict:
            report = check_physical_state(self)
            if not report.physical:
                raise ValueError(f"covariance matrix is not a physical state: {report}")

    @property
    def entries(self) -> Matrix:
        """The full matrix (read-only view)."""
        return self._entries

    @property
    def block_a(self) -> Matrix:
        """Mode-1 covariance block (upper-left 2x2)."""
        return self._entries[:2, :2].copy()

    @property
    def block_b(self) -> Matrix:
        """Mode-2 covariance block (lower-right 2x2)."""
        return self._entries[2:, 2:].copy()

    @property
    def block_c(self) -> Matrix:
        """Cross-correlation block (upper-right 2x2)."""
        return self._entries[:2, 2:].copy()

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
    their conjunction and is the gate used by strict construction and the CLI.
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


def _semigroup_coefficient_matrix(env: EnvironmentSpec) -> NDArray[np.complex128]:
    half = 0.5j * env.lam
    return np.array(
        [
            [env.d_xx, -env.d_xpx - half, env.d_xy, -env.d_xpy],
            [-env.d_xpx + half, env.d_pxpx, -env.d_ypx, env.d_pxpy],
            [env.d_xy, -env.d_ypx, env.d_yy, -env.d_ypy - half],
            [-env.d_xpy, env.d_pxpy, -env.d_ypy + half, env.d_pypy],
        ],
        dtype=complex,
    )


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
    smallest eigenvalue.  Never raises.
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
    return DiffusionReport(
        checks=checks,
        semigroup_min_eigenvalue=min_eigenvalue,
        semigroup_psd=min_eigenvalue >= -MARGIN_TOL,
    )


#: Slack for the nu >= 1/2 test.  At degenerate points (equal symplectic
#: eigenvalues, e.g. pure states) the spectrum carries sqrt(machine-eps)
#: noise, so the uncertainty margin cannot be tested at 1e-12.
UNCERTAINTY_TOL = 1e-8


@dataclass(frozen=True)
class StateReport:
    """Physicality diagnostics for a covariance matrix.

    ``nu_minus_sq``/``nu_plus_sq`` are the squared symplectic eigenvalues of
    the state itself (not of its partial transpose); they are NaN when the
    symplectic spectrum is not real, which can only happen for unphysical
    input.  ``physical`` requires positive semidefiniteness and nu_minus >= 1/2.
    """

    symmetry_residual: float
    min_eigenvalue: float
    nu_minus_sq: float
    nu_plus_sq: float
    positive_semidefinite: bool
    uncertainty_ok: bool

    @property
    def physical(self) -> bool:
        return self.positive_semidefinite and self.uncertainty_ok


def det2(block: Matrix) -> float:
    """Determinant of a 2x2 block."""
    return float(block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0])


def symplectic_invariants(entries: Matrix, partial_transpose: bool) -> tuple[float, float]:
    """The seralian and the determinant of a symmetric 4x4 matrix.

    With blocks [[A, C], [C^T, B]] the seralian is Delta = det A + det B
    + 2 det C, or Delta~ = det A + det B - 2 det C for the partial transpose
    (which keeps det sigma).  The squared symplectic eigenvalues are the roots
    of nu^4 - Delta nu^2 + det sigma.  Finite entries can still overflow
    here; that raises ``OverflowError``.
    """
    sign = -2.0 if partial_transpose else 2.0
    delta = det2(entries[:2, :2]) + det2(entries[2:, 2:]) + sign * det2(entries[:2, 2:])
    det = float(np.linalg.det(entries))
    if not (math.isfinite(delta) and math.isfinite(det)):
        which = "PT symplectic" if partial_transpose else "symplectic"
        raise OverflowError(
            f"{which} invariants are not finite (seralian {delta}, determinant {det})"
        )
    return delta, det


def check_physical_state(sigma) -> StateReport:
    """Report symmetry, positivity and the uncertainty test for ``sigma``.

    Accepts a :class:`CovarianceMatrix` or a raw 4x4 array.  Raises
    ``OverflowError`` when the symplectic invariants overflow, since the
    uncertainty test cannot be evaluated then.
    """
    arr = np.asarray(getattr(sigma, "entries", sigma), dtype=float)
    residual = float(np.max(np.abs(arr - arr.T)))
    sym = 0.5 * (arr + arr.T)
    min_eig = float(np.min(np.linalg.eigvalsh(sym)))
    delta, det = symplectic_invariants(sym, partial_transpose=False)
    disc = delta * delta - 4.0 * det
    slack = UNCERTAINTY_TOL * max(1.0, abs(delta))
    if disc < -1e-12 * max(1.0, delta * delta):
        nu_minus_sq = nu_plus_sq = math.nan
        uncertainty_ok = False
    else:
        # clamp tiny negative discriminants: the degenerate nu_- == nu_+ case
        root = math.sqrt(max(disc, 0.0))
        nu_minus_sq = 0.5 * (delta - root)
        nu_plus_sq = 0.5 * (delta + root)
        uncertainty_ok = nu_minus_sq >= 0.25 - slack
    scale = max(1.0, float(np.max(np.abs(sym))))
    return StateReport(
        symmetry_residual=residual,
        min_eigenvalue=min_eig,
        nu_minus_sq=nu_minus_sq,
        nu_plus_sq=nu_plus_sq,
        positive_semidefinite=min_eig >= -MARGIN_TOL * scale,
        uncertainty_ok=uncertainty_ok,
    )


def thermal_c_from_temperature(temperature: float, omega: float = 1.0) -> float:
    """Convert a temperature (k = 1) to the thermal parameter coth(omega/2T)."""
    if temperature < 0:
        raise ValueError(f"temperature must be nonnegative, got {temperature}")
    if temperature == 0:
        return 1.0
    return 1.0 / math.tanh(0.5 * omega / temperature)


def temperature_from_thermal_c(thermal_c: float, omega: float = 1.0) -> float:
    """Inverse of :func:`thermal_c_from_temperature`; thermal_c = 1 maps to T = 0."""
    if thermal_c < 1.0:
        raise ValueError(f"thermal parameter must be >= 1, got {thermal_c}")
    if thermal_c == 1.0:
        return 0.0
    return 0.5 * omega / math.atanh(1.0 / thermal_c)
