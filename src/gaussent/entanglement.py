"""Separability and entanglement measures for two-mode Gaussian states.

The Simon PPT function decides separability (S >= 0 separable, S < 0
entangled) and the logarithmic negativity L = max{0, -log2(2 nu~_-)}
quantifies the entanglement degree, with nu~_- the smaller symplectic
eigenvalue of the partially transposed covariance matrix.  It imports no numpy.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core import CovarianceMatrix, EnvironmentSpec
from .dynamics import steady_covariance

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


def _pt_terms(invariants) -> tuple:
    """Delta~, det sigma and the discriminant Delta~^2 - 4 det sigma of the
    partial transpose, from the ``_invariants`` (floats or arrays)."""
    det_a, det_b, det_c, trace = invariants
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
    return _simon(_invariants(sigma._values))


def _simon(invariants) -> float:
    """:func:`simon_function` from the float ``_invariants``, passed as one
    tuple: a call that unpacks it into arguments costs more."""
    det_a, det_b, det_c, trace = invariants
    mixed = 0.25 - abs(det_c)
    value = det_a * det_b + mixed * mixed - trace - 0.25 * (det_a + det_b)
    if not math.isfinite(value):
        raise OverflowError(f"Simon function is not finite ({value})")
    return value


def _negativity(nu_minus_sq: float) -> float | None:
    if not nu_minus_sq > 0.0:
        return None
    return max(0.0, -0.5 * math.log2(4.0 * nu_minus_sq))


def log_negativity(sigma: CovarianceMatrix) -> float | None:
    """Logarithmic negativity max{0, -(1/2) log2(4 nu~_-^2)}: the
    ``log_negativity`` field of :func:`metrics`, with its exceptions."""
    return metrics(sigma).log_negativity


class EntanglementMetrics(
    namedtuple(
        "EntanglementMetrics",
        "simon_s seralian_tilde nu_tilde_minus_sq log_negativity separable boundary",
    )
):
    """Separability and entanglement-degree summary of one covariance matrix.

    ``seralian_tilde`` is Delta~ = det A + det B - 2 det C and
    ``nu_tilde_minus_sq`` = (Delta~ - sqrt(Delta~^2 - 4 det sigma))/2 the
    smaller squared PT symplectic eigenvalue, NaN when the pair is complex;
    the larger is ``seralian_tilde - nu_tilde_minus_sq``.  ``separable``
    follows the sign convention S >= 0 (the S = 0 boundary classifies as
    separable); ``boundary`` flags |S| <= BOUNDARY_TOL, where the sign is
    numerically ambiguous.  ``log_negativity`` is None when undefined
    (degenerate or unphysical input).
    """

    __slots__ = ()


def metrics(sigma: CovarianceMatrix) -> EntanglementMetrics:
    """Simon function, PT spectrum and logarithmic negativity of ``sigma``.

    Raises ``OverflowError`` when S overflows, else when Delta~, det sigma
    or the discriminant does.
    """
    invariants = _invariants(sigma._values)
    s = _simon(invariants)  # an overflowing S raises first
    delta, det_sigma, disc = _pt_terms(invariants)
    if not math.isfinite(disc):  # also when delta or det_sigma is not finite
        raise OverflowError(
            f"PT symplectic spectrum overflows (seralian {delta}, determinant {det_sigma})"
        )
    nu_minus_sq = 0.5 * (delta - math.sqrt(disc)) if disc >= 0.0 else math.nan
    return EntanglementMetrics(
        simon_s=s,
        seralian_tilde=delta,
        nu_tilde_minus_sq=nu_minus_sq,
        log_negativity=_negativity(nu_minus_sq),
        separable=s >= 0.0,
        boundary=abs(s) <= BOUNDARY_TOL,
    )


def asymptotic_simon(env: EnvironmentSpec) -> float:
    """S of the solved steady state of any bath, as ``classify_phase`` reads
    it; the thermal closed form is a test oracle.  Raises ``OverflowError``
    when S overflows."""
    return _simon(_invariants(steady_covariance(env)._values))


def _threshold(lam: float, omega: float, m: float, d_xy: float, d_xpy, ops=(max, min, math.sqrt)):
    """C*+ of :func:`asymptotic_threshold`; ``ops`` = (np.maximum, np.minimum,
    np.sqrt) take an array ``d_xpy``, with the same bits."""
    maximum, minimum, sqrt = ops
    cross, local = 2.0 * abs(d_xpy) / math.hypot(lam, omega), 2.0 * abs(d_xy) * (m * omega) / lam
    low = minimum(cross, local)
    return maximum(cross, local) + sqrt(1.0 + low * low)


def asymptotic_threshold(env: EnvironmentSpec) -> float:
    """Thermal parameter C*+ below which the steady state is entangled.

    With p = |d_xpy|/sqrt(lam^2 + omega^2), s = m omega |d_xy|/lam, a = max(p, s)
    and b = min(p, s), S of the steady state is quadratic in C^2 with roots
    (sqrt(1 + 4b^2) -/+ 2a)^2.  The lower one lies below the pairwise bounds
    C >= 2|d_xpy|/lam and C >= 2s, so a bath within them is entangled at
    infinity iff thermal_c < C*+ = sqrt(1 + 4b^2) + 2a, 1 + 2p at d_xy = 0.
    Raises ``ValueError`` unless ``env`` is a bath ``thermal_environment`` builds.
    """
    if not env.is_thermal():
        raise ValueError(
            "the asymptotic threshold requires thermal (Gibbs-asymptote) coefficients"
        )
    return _threshold(env.lam, env.omega, env.m, env.d_xy, env.d_xpy)
