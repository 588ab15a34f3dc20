"""Exact covariance propagation and the Lyapunov steady state.

The drift matrix has the known closed-form exponential
exp(Y t) = e^{-lam t} * diag(R(t), R(t)) with
R(t) = [[cos(omega t), sin(omega t)/(m omega)], [-m omega sin(omega t), cos(omega t)]],
so trajectories are sampled without any ODE integration: every instant is
computed directly from t = 0 by ``_evolved``, the float step (``_propagate``) of
``evolve`` and of the bisection, which forms s0 - s_inf (``_offsets``) once per
bracket.  Only ``propagator`` imports numpy.
"""

from __future__ import annotations

import math
import sys

from .core import CovarianceMatrix, EnvironmentSpec, _check_real, _square


def _rotation(lam: float, omega: float, m: float, t: float) -> tuple[float, float, float, float]:
    """Entries (r00, r01, r10, r11) of the oscillator block e^{-lam t} R(t).

    Raises ``ValueError`` unless t is finite and nonnegative, and
    ``OverflowError`` when the phase omega*t overflows.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"propagation time must be finite and nonnegative, got {t}")
    mw = m * omega
    decay = math.exp(-lam * t)
    phase = omega * t
    if phase == math.inf:
        raise OverflowError(f"oscillator phase omega*t overflows at t = {t}")
    diagonal = decay * math.cos(phase)
    sin = math.sin(phase)
    return diagonal, decay * (sin / mw), decay * (-mw * sin), diagonal


def propagator(env: EnvironmentSpec, t: float):
    """Closed-form exp(Y t) as a numpy 4x4; identity at t = 0, determinant
    e^{-4 lam t}.  Raises ``OverflowError`` when the phase omega*t overflows.
    """
    import numpy as np

    _check_real("propagation time", (t,))
    r00, r01, r10, r11 = _rotation(env.lam, env.omega, env.m, t)
    return np.array(
        [[r00, r01, 0.0, 0.0], [r10, r11, 0.0, 0.0], [0.0, 0.0, r00, r01], [0.0, 0.0, r10, r11]]
    )


def _check_block(env: EnvironmentSpec, block, diffusion) -> None:
    """Raise ``ArithmeticError`` unless s = [[a, b], [b, c]] (``block``)
    solves Y0 s + s Y0^T = -2 [[d11, d12], [d12, d22]] (``diffusion``): each of
    the three independent residual entries (the diagonal ones halved) must lie
    within 1e-12 of the sum of the magnitudes of its terms, a finite sum, or
    within the smallest normal float, where that bound underflows for a
    subnormal term.  Sums run left to right, in the order of the terms."""
    (a, b, c), (d11, d12, d22) = block, diffusion
    lam, m = env.lam, env.m
    mw2 = m * _square(env, "omega")
    x1, x2 = -lam * a, b / m
    y0, y1, y2, y3 = 2.0 * d12, -2.0 * lam * b, c / m, -mw2 * a
    z1, z2 = -mw2 * b, -lam * c
    for scale, total in (
        (abs(d11) + abs(x1) + abs(x2), d11 + x1 + x2),
        (abs(y0) + abs(y1) + abs(y2) + abs(y3), y0 + y1 + y2 + y3),
        (abs(d22) + abs(z1) + abs(z2), d22 + z1 + z2),
    ):
        residual, bound = abs(total), max(1e-12 * scale, sys.float_info.min)
        if scale < math.inf and residual <= bound:
            continue
        if not scale < math.inf:
            raise ArithmeticError(
                f"Lyapunov solve is not finite or its residual overflows: s = {list(block)}"
            )
        raise ArithmeticError(f"Lyapunov solve residual {residual:.3e} exceeds {bound:.3e}")


def _steady_block(env: EnvironmentSpec, d11: float, d12: float, d22: float):
    """Entries (a, b, c) of the symmetric 2x2 block s = [[a, b], [b, c]] solving
    Y0 s + s Y0^T = -2 [[d11, d12], [d12, d22]] for one oscillator block Y0,
    checked by :func:`_check_block`; ``ZeroDivisionError`` names an underflowed divisor."""
    omega_sq = _square(env, "omega")
    mw2 = env.m * omega_sq
    divisor = 2.0 * (_square(env, "lam") + omega_sq)
    if divisor == 0.0:
        raise ZeroDivisionError(
            f"2(lambda^2 + omega^2) underflows to 0 (lam={env.lam}, omega={env.omega})"
        )
    b = (2.0 * env.lam * d12 - mw2 * d11 + d22 / env.m) / divisor
    block = (d11 + b / env.m) / env.lam, b, (d22 - mw2 * b) / env.lam
    _check_block(env, block, (d11, d12, d22))
    return block


def steady_covariance(env: EnvironmentSpec) -> CovarianceMatrix:
    """Solve Y s + s Y^T = -2 D for the asymptotic covariance matrix.

    The drift is block-diagonal with two equal blocks Y0, so the equation
    splits into one 2x2 equation per block of s = [[A, C], [C^T, B]]: each
    block has a symmetric right-hand side (the matching block of D, whose
    cross block is symmetric because d_ypx = d_xpy) and is solved in closed
    form for any diffusion coefficients, with B = A.  Each block's residual is
    checked entry by entry against the size of its terms; a failure, or a
    solve that is not finite, raises ``ArithmeticError``.
    """
    xx, xp, pp = _steady_block(env, env.d_xx, env.d_xpx, env.d_pxpx)
    cx, cm, cp = _steady_block(env, env.d_xy, env.d_xpy, env.d_pxpy)
    return CovarianceMatrix._of((xx, xp, cx, cm, pp, cm, cp, xx, xp, pp))


def _offsets(initial, fixed):
    """Entries of s0 - s_inf in ``ENTRY_NAMES`` order from those of s0 and s_inf."""
    xx, xpx, xy, xpy, pxpx, ypx, pxpy, yy, ypy, pypy = fixed
    a0, a1, c0, c1, a2, c2, c3, b0, b1, b2 = initial
    return (
        a0 - xx, a1 - xpx, c0 - xy, c1 - xpy, a2 - pxpx,
        c2 - ypx, c3 - pxpy, b0 - yy, b1 - ypy, b2 - pypy,
    )


def _propagate(offsets, fixed, rot):
    """Entries of M X M^T + s_inf in ``ENTRY_NAMES`` order: (R Y) R^T on each
    2x2 block Y of X = s0 - s_inf, written out in floats with +, - and x, from
    the entries ``offsets`` of X (``_offsets``), those of s_inf and the
    rotation entries ``rot``.  The state is exactly symmetric."""
    r00, r01, r10, r11 = rot
    xx, xpx, xy, xpy, pxpx, ypx, pxpy, yy, ypy, pypy = fixed
    a0, a1, c0, c1, a2, c2, c3, b0, b1, b2 = offsets
    y00, y01 = r00 * a0 + r01 * a1, r00 * a1 + r01 * a2
    y10, y11 = r10 * a0 + r11 * a1, r10 * a1 + r11 * a2
    a0, a1, a2 = y00 * r00 + y01 * r01, y00 * r10 + y01 * r11, y10 * r10 + y11 * r11
    y00, y01 = r00 * b0 + r01 * b1, r00 * b1 + r01 * b2
    y10, y11 = r10 * b0 + r11 * b1, r10 * b1 + r11 * b2
    b0, b1, b2 = y00 * r00 + y01 * r01, y00 * r10 + y01 * r11, y10 * r10 + y11 * r11
    y00, y01 = r00 * c0 + r01 * c2, r00 * c1 + r01 * c3
    y10, y11 = r10 * c0 + r11 * c2, r10 * c1 + r11 * c3
    c0, c1 = y00 * r00 + y01 * r01, y00 * r10 + y01 * r11
    c2, c3 = y10 * r00 + y11 * r01, y10 * r10 + y11 * r11
    return (
        a0 + xx, a1 + xpx, c0 + xy, c1 + xpy, a2 + pxpx,
        c2 + ypx, c3 + pxpy, b0 + yy, b1 + ypy, b2 + pypy,
    )


def _evolved(offsets, fixed, rot, t: float) -> CovarianceMatrix:
    """The state at t from the entries ``offsets`` of s0 - s_inf, those of s_inf
    and the rotation ``rot`` at t; ``OverflowError`` when it is not finite."""
    values = _propagate(offsets, fixed, rot)
    if not all(map(math.isfinite, values)):
        raise OverflowError(f"evolved covariance matrix is not finite at t = {t}")
    return CovarianceMatrix._of(values)


def evolve(initial: CovarianceMatrix, env: EnvironmentSpec, t: float) -> CovarianceMatrix:
    """Propagate ``initial`` for time ``t``: M(t) (s0 - s_inf) M(t)^T + s_inf.

    ``t = 0`` returns ``initial`` unchanged; ``t`` must be finite and
    nonnegative, and a complex numpy value raises ``TypeError``.  The result
    is exactly symmetric; ``OverflowError`` is raised when it is not finite.
    This is float arithmetic on the ten entries, with no numpy.
    """
    _check_real("propagation time", (t,))
    if t == 0:
        return initial
    rot = _rotation(env.lam, env.omega, env.m, t)
    fixed = steady_covariance(env)._values
    return _evolved(_offsets(initial._values, fixed), fixed, rot, t)
