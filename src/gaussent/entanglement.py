"""Separability and entanglement measures for two-mode Gaussian states.

The Simon PPT function decides separability (S >= 0 separable, S < 0
entangled) and the logarithmic negativity L = max{0, -log2(2 nu~_-)}
quantifies the entanglement degree, with nu~_- the smaller symplectic
eigenvalue of the partially transposed covariance matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import CovarianceMatrix, EnvironmentSpec

#: Width of the boundary band for the PPT sign-agreement classification.
BOUNDARY_TOL = 1e-12


def _invariants(values) -> tuple:
    """det A, det B, det C and T = Tr[A J C J B J C^T J] of sigma = [[A, C], [C^T, B]],
    from its ten entries ``values`` in ``ENTRY_NAMES`` order.

    J X J = -cof(X) for the 2x2 symplectic unit J, so T = Tr[A K B K^T] with
    K = cof(C).  It is +, - and x only, so the entries may be floats or arrays
    over a time column, with the same bits.
    """
    a0, a1, c0, c1, a2, c2, c3, b0, b1, b2 = values
    # K = [[c3, -c2], [-c1, c0]]; rows u, v of K B, then P = K B K^T
    u0 = c3 * b0 - c2 * b1
    u1 = c3 * b1 - c2 * b2
    v0 = c0 * b1 - c1 * b0
    v1 = c0 * b2 - c1 * b1
    p00 = u0 * c3 - u1 * c2
    p01 = u1 * c0 - u0 * c1
    p11 = v1 * c0 - v0 * c1
    trace = a0 * p00 + 2.0 * a1 * p01 + a2 * p11
    return a0 * a2 - a1 * a1, b0 * b2 - b1 * b1, c0 * c3 - c1 * c2, trace


def _pt_terms(values) -> tuple:
    """Delta~, det sigma and the discriminant Delta~^2 - 4 det sigma of the
    partial transpose, from the entries ``values`` (floats or arrays)."""
    det_a, det_b, det_c, trace = _invariants(values)
    delta = det_a + det_b - 2.0 * det_c
    det_sigma = det_a * det_b + det_c * det_c - trace
    return delta, det_sigma, delta * delta - 4.0 * det_sigma


def simon_function(sigma: CovarianceMatrix) -> float:
    """Simon's separability function.

    S = det A det B + (1/4 - |det C|)^2 - Tr[A J C J B J C^T J]
        - (det A + det B)/4,
    with J the 2x2 symplectic unit.  Defined for any symmetric 4x4 matrix;
    S >= 0 is necessary and sufficient for separability of physical states.
    Raises ``OverflowError`` when S overflows.
    """
    return _simon(sigma._values)


def _simon(values) -> float:
    """:func:`simon_function` of the ten float entries ``values``."""
    det_a, det_b, det_c, trace = _invariants(values)
    mixed = 0.25 - abs(det_c)
    value = det_a * det_b + mixed * mixed - trace - 0.25 * (det_a + det_b)
    if not math.isfinite(value):
        raise OverflowError(f"Simon function is not finite ({value})")
    return value


class PtSpectrum(NamedTuple):
    """Squared symplectic spectrum of the partial transpose.

    2 nu~_-+^2 = Delta~ -/+ sqrt(Delta~^2 - 4 det sigma) with the seralian
    Delta~ = det A + det B - 2 det C.  When the discriminant is negative the
    squared eigenvalues form a complex pair and the nu fields are NaN instead
    of pretending to be real.
    """

    delta_tilde: float
    nu_minus_sq: float
    nu_plus_sq: float


def symplectic_spectrum_pt(sigma: CovarianceMatrix) -> PtSpectrum:
    """Seralian and squared PT symplectic eigenvalues of ``sigma``.

    Delta~ and det sigma = det A det B + det C^2 - Tr[A J C J B J C^T J]
    come from the same four invariants.  Raises ``OverflowError`` when
    Delta~, det sigma or the discriminant overflows.
    """
    delta, det_sigma, disc = _pt_terms(sigma._values)
    if not math.isfinite(disc):  # also when delta or det_sigma is not finite
        raise OverflowError(
            f"PT symplectic spectrum overflows (seralian {delta}, determinant {det_sigma})"
        )
    if disc < 0.0:
        return PtSpectrum(delta, math.nan, math.nan)
    root = math.sqrt(disc)
    return PtSpectrum(delta, 0.5 * (delta - root), 0.5 * (delta + root))


def _negativity(nu_minus_sq: float) -> float | None:
    if not nu_minus_sq > 0.0:
        return None
    return max(0.0, -0.5 * math.log2(4.0 * nu_minus_sq))


def _column_negativity(entries) -> list[float | None]:
    """log_negativity of each column of a (10, n) array of entries, with the
    same bits: the PT terms are one array pass, ``np.sqrt`` is correctly
    rounded like ``math.sqrt`` and a negative discriminant gives NaN, hence
    None; L itself keeps ``math.log2``.  Raises a bare ``OverflowError`` when
    a discriminant overflows; ``symplectic_spectrum_pt`` names the cell.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        delta, _, disc = _pt_terms(entries)
        nu_minus_sq = 0.5 * (delta - np.sqrt(disc))
    if not np.isfinite(disc).all():
        raise OverflowError("PT symplectic spectrum overflows")
    return [_negativity(nu) for nu in nu_minus_sq.tolist()]


def log_negativity(sigma: CovarianceMatrix) -> float | None:
    """Logarithmic negativity max{0, -(1/2) log2(4 nu~_-^2)}.

    Returns None when nu~_-^2 <= 0 or is not real: the PT symplectic
    eigenvalue is degenerate or the input is unphysical, and no value is
    fabricated there.  Raises ``OverflowError`` when the invariants overflow.
    """
    return _negativity(symplectic_spectrum_pt(sigma).nu_minus_sq)


@dataclass(frozen=True)
class EntanglementMetrics:
    """Separability and entanglement-degree summary of one covariance matrix.

    ``separable`` follows the sign convention S >= 0 (the S = 0 boundary
    classifies as separable); ``boundary`` flags |S| <= BOUNDARY_TOL, where
    the sign is numerically ambiguous.  ``log_negativity`` is None when
    undefined (degenerate or unphysical input).
    """

    simon_s: float
    seralian_tilde: float
    nu_tilde_minus_sq: float
    log_negativity: float | None
    separable: bool
    boundary: bool


def metrics(sigma: CovarianceMatrix) -> EntanglementMetrics:
    """Bundle Simon function, PT spectrum and logarithmic negativity.

    Raises ``OverflowError`` when S or the symplectic invariants overflow.
    """
    s = simon_function(sigma)
    spectrum = symplectic_spectrum_pt(sigma)
    return EntanglementMetrics(
        simon_s=s,
        seralian_tilde=spectrum.delta_tilde,
        nu_tilde_minus_sq=spectrum.nu_minus_sq,
        log_negativity=_negativity(spectrum.nu_minus_sq),
        separable=s >= 0.0,
        boundary=abs(s) <= BOUNDARY_TOL,
    )


def _require_thermal(env: EnvironmentSpec, what: str) -> None:
    if not env.is_thermal():
        raise ValueError(f"{what} requires thermal (Gibbs-asymptote) coefficients")


def asymptotic_simon(env: EnvironmentSpec) -> float:
    """Simon function of the steady state, in closed form.

    Uses det A(inf) = det B(inf) = thermal_c^2/4, det C(inf) = g - d and
    Tr[...] = thermal_c^2 (g + d)/2, where g = (m omega d_xy / lam)^2 and
    d = d_xpy^2/(lam^2 + omega^2).  The |det C| term keeps the expression
    equal to simon_function(steady_covariance(env)) in both sign regimes of
    det C(inf).  Raises ``OverflowError`` when the value overflows.
    """
    _require_thermal(env, "the asymptotic Simon value")
    theta_sq = env.thermal_c * env.thermal_c
    den = env.lam * env.lam + env.omega * env.omega
    g = env.m * env.omega * env.d_xy / env.lam
    g *= g
    d = env.d_xpy * env.d_xpy / den
    det_a_inf = 0.25 * theta_sq
    mixed = 0.25 - abs(g - d)
    value = (
        det_a_inf * det_a_inf
        + mixed * mixed
        - 0.5 * theta_sq * (g + d)
        - 0.5 * det_a_inf
    )
    if not math.isfinite(value):
        raise OverflowError(f"asymptotic Simon function is not finite ({value})")
    return value


def asymptotic_threshold(env: EnvironmentSpec) -> float:
    """Thermal parameter C* = 1 + 2|d_xpy|/sqrt(lam^2 + omega^2), for d_xy = 0.

    The steady state is entangled exactly when thermal_c < C*.
    """
    _require_thermal(env, "the asymptotic threshold")
    if env.d_xy != 0.0:
        raise ValueError("the closed-form threshold is stated for d_xy = 0")
    return 1.0 + 2.0 * abs(env.d_xpy) / math.hypot(env.lam, env.omega)


def asymptotic_log_negativity(env: EnvironmentSpec) -> float | None:
    """Entanglement degree of the steady state for d_xy = 0.

    Evaluates max{0, -log2 |thermal_c - 2|d_xpy|/sqrt(lam^2+omega^2)|}, that
    is max{0, -log2 |thermal_c - (C* - 1)|} with C* the
    :func:`asymptotic_threshold`, which coincides with
    log_negativity(steady_covariance(env)).  Returns None when the
    absolute-value argument vanishes (degenerate PT eigenvalue).
    """
    arg = abs(env.thermal_c - (asymptotic_threshold(env) - 1.0))
    if arg == 0.0:
        return None
    return max(0.0, -math.log2(arg))
