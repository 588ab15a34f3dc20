"""Domain types for two identical damped oscillators in a common thermal bath.

Conventions used everywhere in this package: hbar = k = 1, quadratures ordered
as (x, p_x, y, p_y), vacuum covariance I/2, and temperature expressed through
the dimensionless parameter C = coth(omega / (2 T)) >= 1.
"""

from __future__ import annotations

import math
from collections import namedtuple

#: Largest asymmetry residual accepted (and symmetrized away) on construction.
SYMMETRY_TOL = 1e-12

#: Slack applied to physicality margins so exact boundary cases pass.
MARGIN_TOL = 1e-12

#: Names of the ten independent entries of a symmetric 4x4 covariance matrix:
#: its upper triangle in row order.
ENTRY_NAMES: tuple[str, ...] = (
    "sigma_xx", "sigma_xpx", "sigma_xy", "sigma_xpy", "sigma_pxpx",
    "sigma_ypx", "sigma_pxpy", "sigma_yy", "sigma_ypy", "sigma_pypy",
)


def _rows(values) -> list[list[float]]:
    """The four rows of the symmetric matrix with upper triangle ``values``."""
    xx, xpx, xy, xpy, pxpx, ypx, pxpy, yy, ypy, pypy = values
    return [[xx, xpx, xy, xpy], [xpx, pxpx, ypx, pxpy], [xy, ypx, yy, ypy], [xpy, pxpy, ypy, pypy]]


def _not_real(value) -> bool:
    """True for text, which ``float`` would parse, and a complex, whose real part it keeps."""
    kind = getattr(getattr(value, "dtype", None), "kind", "f")  # no dtype: __float__ decides
    return kind not in "biuf" or not hasattr(type(value), "__float__")


def _check_real(what: str, values) -> tuple[float, ...]:
    """``values`` (or a dict's values) as Python floats, the one conversion of a public real
    input; ``TypeError``, ``what`` formatted with a dict's key, where ``_not_real`` holds."""
    items = values.values() if type(values) is dict else values
    exact = True  # only Python floats, returned as they are
    for value in items:
        if type(value) is not float:
            exact = False
            if _not_real(value):
                k = [key for key in values if values[key] is value] if type(values) is dict else ()
                raise TypeError(f"{what.format(*k)} must be real, got {value!r}, not a real number")
    return tuple(items) if exact else tuple(map(float, items))


def _check_real_array(what: str, arr) -> None:
    """Raise ``TypeError`` for a complex or text numpy array, whose cast to float would drop
    imaginary parts or parse the text, and for an object array holding a ``_not_real`` item."""
    if arr.dtype.kind in "cSU" or (arr.dtype.kind == "O" and any(map(_not_real, arr.flat))):
        raise TypeError(f"{what} must be real numbers, got dtype {arr.dtype}")


def _check_parameters(*values) -> tuple[float, ...]:
    """m, omega, lam, thermal_c and any coefficients as Python floats, by ``_check_real``;
    raise ``ValueError`` unless all are finite, m, omega, lam > 0 and thermal_c >= 1."""
    m, omega, lam, thermal_c, *_ = values = _check_real("environment parameters", values)
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
    return values


class EnvironmentSpec(
    namedtuple("EnvironmentSpec", "m omega lam thermal_c d_xx d_xpx d_pxpx d_xy d_xpy d_pxpy")
):
    """Oscillator and bath parameters; fully determines drift and diffusion.

    The two oscillators are identical and couple to the same bath, so the
    y-mode diffusion coefficients mirror the x-mode ones (d_yy = d_xx,
    d_ypy = d_xpx, d_pypy = d_pxpx and d_ypx = d_xpy) and are not stored.

    ``lam`` must be positive: the drift eigenvalues are -lam +/- i*omega and a
    decaying propagator (hence a steady state) exists only for lam > 0.  Every
    parameter must be finite.  It is an immutable named tuple of floats, validated
    and converted on construction, ``_make`` and ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return tuple.__new__(cls, _check_parameters(*self))

    @classmethod
    def _make(cls, iterable) -> EnvironmentSpec:
        return cls(*iterable)

    @classmethod
    def _of(cls, *values) -> EnvironmentSpec:
        """The record of ten floats its caller has validated, unchecked."""
        return tuple.__new__(cls, values)

    def is_thermal(self) -> bool:
        """True exactly when :func:`thermal_environment`, whose baths have a Gibbs
        asymptote, builds this record from its own parameters; False otherwise."""
        try:
            return self == thermal_environment(
                self.lam, self.thermal_c, self.d_xy, self.d_xpy, self.m, self.omega
            )
        except OverflowError:
            return False


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
    m, omega, lam, thermal_c, d_xy, d_xpy = _check_parameters(m, omega, lam, thermal_c, d_xy, d_xpy)
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
    # _check_parameters covered the inputs and the test above the derived
    # coefficients, so the record skips EnvironmentSpec's second check
    return EnvironmentSpec._of(m, omega, lam, thermal_c, d_xx, 0.0, d_pxpx, d_xy, d_xpy, d_pxpy)


def _square(env: EnvironmentSpec, name: str) -> float:
    """The parameter ``name`` squared; ``OverflowError`` names it when that overflows."""
    try:
        return getattr(env, name) ** 2
    except OverflowError:
        raise OverflowError(
            f"{name}^2 overflows (m={env.m}, omega={env.omega}, lam={env.lam})"
        ) from None


class CovarianceMatrix:
    """4x4 real symmetric covariance matrix in (x, p_x, y, p_y) ordering.

    Construction stores an exactly symmetric input as given, symmetrizes one
    whose asymmetry residual is at most ``SYMMETRY_TOL`` via (M + M^T)/2 and
    rejects it otherwise, so small floating-point drift is absorbed but
    genuinely asymmetric data is not.  Complex or text entries raise
    ``TypeError`` and non-finite ones ``ValueError``.  Physicality is not
    required here; see :func:`check_physical_state`.  The state is its ten
    independent entries, floats in ``ENTRY_NAMES`` order; numpy builds the
    4x4 each time it is read.
    """

    __slots__ = ("_values",)

    def __init__(self, entries) -> None:
        import numpy as np

        arr = np.array(entries)
        _check_real_array("covariance matrix entries", arr)
        arr = arr.astype(float, copy=False)
        if arr.shape != (4, 4):
            raise ValueError(f"covariance matrix must be 4x4, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("covariance matrix entries must be finite")
        residual = float(abs(arr - arr.T).max())
        if not residual <= SYMMETRY_TOL:
            raise ValueError(
                f"matrix is not symmetric (max asymmetry {residual:.3e} > {SYMMETRY_TOL})"
            )
        if residual:
            arr = 0.5 * arr  # halving first: the sum below cannot overflow
            arr = arr + arr.T
        self._values = tuple(arr[np.triu_indices(4)].tolist())

    @classmethod
    def _of(cls, values: tuple[float, ...]) -> CovarianceMatrix:
        """The matrix of ten finite floats in ``ENTRY_NAMES`` order, unchecked."""
        self = object.__new__(cls)
        self._values = values
        return self

    @property
    def entries(self):
        """The full matrix, as a new read-only numpy array on each read."""
        import numpy as np

        out = np.array(_rows(self._values))
        out.setflags(write=False)
        return out

    def __array__(self, dtype=None, copy=None):
        import numpy as np

        return (np.array if copy else np.asarray)(self.entries, dtype=dtype)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CovarianceMatrix):
            return NotImplemented
        return self._values == other._values

    __hash__ = None

    def __repr__(self) -> str:
        return f"CovarianceMatrix({_rows(self._values)!r})"


def covariance_from_entries(values) -> CovarianceMatrix:
    """Build a covariance matrix from named independent entries.

    ``values`` maps entry names (``sigma_xx`` ... ``sigma_pypy``) to finite reals, which
    ``_check_real`` converts; missing entries default to zero, unknown names are rejected.
    """
    out = dict.fromkeys(ENTRY_NAMES, 0.0)
    for name, value in dict(values).items():
        if name not in out:
            raise ValueError(
                f"unknown covariance entry {name!r}; valid names: {', '.join(ENTRY_NAMES)}"
            )
        out[name] = value
    values = _check_real("covariance entry {!r}", out)
    if not all(map(math.isfinite, values)):
        raise ValueError("covariance matrix entries must be finite")
    return CovarianceMatrix._of(values)


def independent_entries(sigma: CovarianceMatrix) -> dict[str, float]:
    """The ten independent entries of ``sigma`` keyed by canonical name."""
    return dict(zip(ENTRY_NAMES, sigma._values))


class DiffusionCheck(namedtuple("DiffusionCheck", "name margin passed")):
    """One pairwise diffusion bound: passed iff margin >= -MARGIN_TOL times the
    sum of the magnitudes of the margin's terms."""

    __slots__ = ()


def validate_diffusion(env: EnvironmentSpec) -> tuple[DiffusionCheck, ...]:
    """Check the diffusion coefficients against the semigroup positivity bounds.

    The six pairwise bounds are the 2x2 principal minors of the complex
    coefficient matrix P D P - (i lam/2) Omega of the semigroup,
    P = diag(1, -1, 1, -1), in float arithmetic:
    xx_pxpx: d_xx*d_pxpx - d_xpx^2 >= lam^2/4, yy_pypy (its y twin, the same
    margin), xx_yy: d_xx^2 >= d_xy^2, pxpx_pypy: d_pxpx^2 >= d_pxpy^2,
    xx_pypy: d_xx*d_pxpx >= d_xpy^2 and yy_pxpx (its y twin, the same margin).
    Each is reported with its margin (left side minus right side), and passes
    within a rounding slack relative to its terms, since a margin is a
    difference of products that cancel exactly on the bound.  Raises
    ``OverflowError`` when a margin is not finite, since the bounds cannot be
    decided then.
    """
    d_xx, d_pxpx, tol = env.d_xx, env.d_pxpx, MARGIN_TOL
    half = 0.5 * env.lam
    # each margin is a - b, or a - b - lam^2/4, over terms of which only a may
    # be negative; the slack is scaled term by term, so it cannot overflow
    # where the terms do not
    product, xpx_sq, half_sq = d_xx * d_pxpx, env.d_xpx * env.d_xpx, half * half
    xx_sq, xy_sq = d_xx * d_xx, env.d_xy * env.d_xy
    pp_sq, pxpy_sq = d_pxpx * d_pxpx, env.d_pxpy * env.d_pxpy
    xpy_sq = env.d_xpy * env.d_xpy
    local = product - xpx_sq - half_sq
    xx_yy, pxpx_pypy, cross = xx_sq - xy_sq, pp_sq - pxpy_sq, product - xpy_sq
    if not (
        math.isfinite(local) and math.isfinite(xx_yy)
        and math.isfinite(pxpx_pypy) and math.isfinite(cross)
    ):
        margins = [local, local, xx_yy, pxpx_pypy, cross, cross]
        raise OverflowError(f"diffusion bounds are not finite (margins {margins})")
    local_ok = local >= -tol * abs(product) - tol * xpx_sq - tol * half_sq
    cross_ok = cross >= -tol * abs(product) - tol * xpy_sq
    return (
        DiffusionCheck("xx_pxpx", local, local_ok),
        DiffusionCheck("yy_pypy", local, local_ok),
        DiffusionCheck("xx_yy", xx_yy, xx_yy >= -tol * xx_sq - tol * xy_sq),
        DiffusionCheck("pxpx_pypy", pxpx_pypy, pxpx_pypy >= -tol * pp_sq - tol * pxpy_sq),
        DiffusionCheck("xx_pypy", cross, cross_ok),
        DiffusionCheck("yy_pxpx", cross, cross_ok),
    )


def _pivots(values, shift: float) -> tuple[float, ...]:
    """Pivots of the LDL^H factorization of the Hermitian
    H = sigma + (i/2) Omega + shift * I, sigma with upper triangle ``values``,
    up to the first that is not positive (or NaN), in real arithmetic.

    Omega = diag(J, J), J = [[0, 1], [-1, 0]], puts -i/2 at (1, 0) and (3, 2)
    of the lower triangle, which is all that is read.  Entry by entry this is
    the complex elimination h_ij -= (h_ik / h_kk) conj(h_jk) written out in
    real and imaginary parts, in the same order, without the products whose
    factor is an imaginary part that Omega leaves at zero: so every pivot has
    the complex loop's bits wherever the elimination stays finite.
    """
    xx, xpx, xy, xpy, pxpx, ypx, pxpy, yy, ypy, pypy = values
    p0 = xx + shift
    if not p0 > 0.0:
        return (p0,)
    # column 0: the ratios h_i0 / p0 are (a1, b1), a2 and a3, real
    a1, b1, a2, a3 = xpx / p0, -0.5 / p0, xy / p0, xpy / p0
    p1 = (pxpx + shift) - (a1 * xpx - b1 * 0.5)
    if not p1 > 0.0:
        return (p0, p1)
    re21, im21 = ypx - a2 * xpx, -(a2 * 0.5)
    re31, im31 = pxpy - a3 * xpx, -(a3 * 0.5)
    # column 1: the ratios (c2, d2) and (c3, d3); h32 keeps its -1/2 until here
    c2, d2, c3, d3 = re21 / p1, im21 / p1, re31 / p1, im31 / p1
    p2 = ((yy + shift) - a2 * xy) - (c2 * re21 + d2 * im21)
    if not p2 > 0.0:
        return (p0, p1, p2)
    re32 = (ypy - a3 * xy) - (c3 * re21 + d3 * im21)
    im32 = -0.5 - (d3 * re21 - c3 * im21)
    # column 2: the ratio (e3, f3)
    e3, f3 = re32 / p2, im32 / p2
    p3 = (((pypy + shift) - a3 * xpy) - (c3 * re31 + d3 * im31)) - (e3 * re32 + f3 * im32)
    return (p0, p1, p2, p3)


class StateReport(namedtuple("StateReport", "physical rescaled")):
    """Result of :func:`check_physical_state`: the verdict, and the sigma it
    was reached on (rescaled when its diagonal is positive) as ten entries in
    ``ENTRY_NAMES`` order."""

    __slots__ = ()

    @property
    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of ``rescaled`` + (i/2) Omega, by numpy."""
        import numpy as np

        h = np.array(_rows(self.rescaled), complex)
        h[1, 0] -= 0.5j  # the lower triangle, which eigvalsh reads, as in _pivots
        h[3, 2] -= 0.5j
        return float(np.linalg.eigvalsh(h)[0])


def check_physical_state(sigma: CovarianceMatrix) -> StateReport:
    """Decide the uncertainty principle sigma + (i/2) Omega >= 0.

    This implies sigma >= 0 and states nu_- >= 1/2 for the symplectic
    eigenvalues, the form used by Simon's separability criterion.  Each mode
    is rescaled by the symplectic diag(s, 1/s), s = (sigma_pp/sigma_xx)^(1/4),
    which keeps the sign of every eigenvalue, so that axis squeezing does not
    widen the slack.  Physical means a positive diagonal and a smallest
    eigenvalue of the rescaled sigma + (i/2) Omega above -slack, slack =
    MARGIN_TOL * max(1, max|rescaled sigma|).  No eigenvalue is computed for
    that: the Hermitian H = rescaled sigma + (i/2) Omega + slack * I is
    positive definite exactly when every pivot of its LDL^H factorization
    (Cholesky without square roots) is positive, which is decided in Python
    floats, and the factorization is backward stable.  ``min_eigenvalue``
    calls numpy when it is read.  Raises ``OverflowError`` if the rescaled
    sigma is not finite, which only an unphysical sigma can make it.
    """
    v = sigma._values
    diagonal = (v[0], v[4], v[7], v[9])
    xx, pp, yy, qq = (math.sqrt(math.sqrt(d)) if d > 0 else 0.0 for d in diagonal)
    if not (xx and pp and yy and qq):
        return StateReport(False, v)
    # ratios of fourth roots: s cannot overflow; entry (i, j) is scaled by
    # scale_i * scale_j with scale = (s_x, 1/s_x, s_y, 1/s_y)
    a, b, c, d = pp / xx, xx / pp, qq / yy, yy / qq
    rescaled = (
        v[0] * (a * a), v[1] * (a * b), v[2] * (a * c), v[3] * (a * d), v[4] * (b * b),
        v[5] * (b * c), v[6] * (b * d), v[7] * (c * c), v[8] * (c * d), v[9] * (d * d),
    )
    if not all(map(math.isfinite, rescaled)):
        raise OverflowError("covariance matrix overflows when its modes are rescaled")
    slack = MARGIN_TOL * max(1.0, *map(abs, rescaled))
    return StateReport(_pivots(rescaled, slack)[-1] > 0.0, rescaled)


def thermal_c_from_temperature(temperature: float, omega: float = 1.0) -> float:
    """Convert a temperature (k = 1) to the thermal parameter coth(omega/2T).

    Both become Python floats by ``_check_real``; ``ValueError`` unless 0 <= temperature < inf
    and 0 < omega < inf, and ``OverflowError`` when omega/T is so small that C overflows.
    """
    temperature, omega = _check_real("temperature and frequency", (temperature, omega))
    if not 0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and nonnegative, got {temperature}")
    if not 0 < omega < math.inf:
        raise ValueError(f"frequency must be positive and finite, got {omega}")
    if temperature == 0:
        return 1.0
    tanh = math.tanh(0.5 * omega / temperature)
    thermal_c = 1.0 / tanh if tanh else math.inf
    if thermal_c == math.inf:
        raise OverflowError(f"thermal parameter overflows at temperature {temperature}")
    return thermal_c

