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

import numpy as np

from .core import CovarianceMatrix, EnvironmentSpec, det2, symplectic_invariants

#: Width of the boundary band for the PPT sign-agreement classification.
BOUNDARY_TOL = 1e-12

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def simon_function(sigma: CovarianceMatrix) -> float:
    """Simon's separability function.

    S = det A det B + (1/4 - |det C|)^2 - Tr[A J C J B J C^T J]
        - (det A + det B)/4,
    with J the 2x2 symplectic unit.  Defined for any symmetric 4x4 matrix;
    S >= 0 is necessary and sufficient for separability of physical states.
    Raises ``OverflowError`` when S overflows.
    """
    e = sigma.entries
    a_blk = e[:2, :2]
    b_blk = e[2:, 2:]
    c_blk = e[:2, 2:]
    det_a = det2(a_blk)
    det_b = det2(b_blk)
    det_c = det2(c_blk)
    trace = float(np.trace(a_blk @ _J @ c_blk @ _J @ b_blk @ _J @ c_blk.T @ _J))
    value = det_a * det_b + (0.25 - abs(det_c)) ** 2 - trace - 0.25 * (det_a + det_b)
    if not math.isfinite(value):
        raise OverflowError(f"Simon function is not finite ({value})")
    return value


class PtSpectrum(NamedTuple):
    """Squared symplectic spectrum of the partial transpose.

    2 nu~_-+^2 = Delta~ -/+ sqrt(Delta~^2 - 4 det sigma) with the seralian
    Delta~ = det A + det B - 2 det C.  When the discriminant is negative the
    squared eigenvalues form a complex pair; ``complex_pair`` is set and the
    nu fields are NaN instead of pretending to be real.
    """

    delta_tilde: float
    nu_minus_sq: float
    nu_plus_sq: float
    complex_pair: bool


def symplectic_spectrum_pt(sigma: CovarianceMatrix) -> PtSpectrum:
    """Seralian and squared PT symplectic eigenvalues of ``sigma``.

    Raises ``OverflowError`` when the invariants overflow.
    """
    delta, det_sigma = symplectic_invariants(sigma.entries, partial_transpose=True)
    if not (math.isfinite(delta) and math.isfinite(det_sigma)):
        raise OverflowError(
            f"PT symplectic invariants are not finite (seralian {delta}, determinant {det_sigma})"
        )
    disc = delta * delta - 4.0 * det_sigma
    if disc < 0.0:
        return PtSpectrum(delta, math.nan, math.nan, True)
    root = math.sqrt(disc)
    return PtSpectrum(delta, 0.5 * (delta - root), 0.5 * (delta + root), False)


def log_negativity(sigma: CovarianceMatrix) -> float | None:
    """Logarithmic negativity max{0, -(1/2) log2(4 nu~_-^2)}.

    Returns None when nu~_-^2 <= 0 or is not real: the PT symplectic
    eigenvalue is degenerate or the input is unphysical, and no value is
    fabricated there.  Raises ``OverflowError`` when the invariants overflow.
    """
    nu_sq = symplectic_spectrum_pt(sigma).nu_minus_sq
    if not nu_sq > 0.0:
        return None
    return max(0.0, -0.5 * math.log2(4.0 * nu_sq))


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
        log_negativity=log_negativity(sigma),
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
    det C(inf).
    """
    _require_thermal(env, "the asymptotic Simon value")
    theta_sq = env.thermal_c**2
    den = env.lam**2 + env.omega**2
    g = (env.m * env.omega * env.d_xy / env.lam) ** 2
    d = env.d_xpy**2 / den
    det_c_inf = g - d
    det_a_inf = 0.25 * theta_sq
    return (
        det_a_inf * det_a_inf
        + (0.25 - abs(det_c_inf)) ** 2
        - 0.5 * theta_sq * (g + d)
        - 0.5 * det_a_inf
    )


class ThresholdResult(NamedTuple):
    """Entangled-at-infinity window in the thermal parameter, for d_xy = 0.

    The steady state is entangled exactly for
    c_lower_rule < thermal_c < c_threshold with
    c_threshold = 1 + 2|d_xpy|/sqrt(lam^2 + omega^2); the lower edge
    c_lower_rule = c_threshold - 2 is below 1 whenever the diffusion
    constraint holds, so the upper edge is the operative one.
    ``constraint_ok`` evaluates (lam/2) thermal_c >= d_xpy at the
    environment's own thermal parameter.
    """

    c_lower_rule: float
    c_threshold: float
    constraint_ok: bool


def asymptotic_threshold(env: EnvironmentSpec) -> ThresholdResult:
    """Thermal-parameter threshold below which the asymptote is entangled."""
    _require_thermal(env, "the asymptotic threshold")
    if env.d_xy != 0.0:
        raise ValueError("the closed-form threshold is stated for d_xy = 0")
    span = 2.0 * abs(env.d_xpy) / math.hypot(env.lam, env.omega)
    return ThresholdResult(
        c_lower_rule=span - 1.0,
        c_threshold=span + 1.0,
        constraint_ok=0.5 * env.lam * env.thermal_c >= env.d_xpy,
    )


def asymptotic_log_negativity(env: EnvironmentSpec) -> float | None:
    """Entanglement degree of the steady state for d_xy = 0.

    Evaluates max{0, -log2 |thermal_c - 2|d_xpy|/sqrt(lam^2+omega^2)|}, which
    coincides with log_negativity(steady_covariance(env)).  Returns None when
    the absolute-value argument vanishes (degenerate PT eigenvalue).
    """
    _require_thermal(env, "the asymptotic logarithmic negativity")
    if env.d_xy != 0.0:
        raise ValueError("the closed-form asymptotic degree is stated for d_xy = 0")
    arg = abs(env.thermal_c - 2.0 * abs(env.d_xpy) / math.hypot(env.lam, env.omega))
    if arg == 0.0:
        return None
    return max(0.0, -math.log2(arg))


@dataclass(frozen=True)
class AsymptoticEntanglement:
    """Long-time entanglement summary of a thermal environment with d_xy = 0."""

    s_infinity: float
    l_infinity: float | None
    entangled_at_infinity: bool
    c_threshold: float


def asymptotic_entanglement(env: EnvironmentSpec) -> AsymptoticEntanglement:
    """Bundle the closed-form asymptotic quantities for d_xy = 0."""
    s_inf = asymptotic_simon(env)
    threshold = asymptotic_threshold(env)
    return AsymptoticEntanglement(
        s_infinity=s_inf,
        l_infinity=asymptotic_log_negativity(env),
        entangled_at_infinity=s_inf < 0.0,
        c_threshold=threshold.c_threshold,
    )
