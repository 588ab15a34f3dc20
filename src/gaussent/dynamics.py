"""Exact covariance propagation and the Lyapunov steady state.

The drift matrix has the known closed-form exponential
exp(Y t) = e^{-lam t} * diag(R(t), R(t)) with
R(t) = [[cos(omega t), sin(omega t)/(m omega)], [-m omega sin(omega t), cos(omega t)]],
so trajectories are sampled without any ODE integration: every instant is
computed directly from t = 0.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    CovarianceMatrix,
    EnvironmentSpec,
    Matrix,
    _square,
    diffusion_matrix,
    drift_matrix,
)


def _rotation(env: EnvironmentSpec, t: float) -> tuple[float, float, float, float]:
    """Entries (r00, r01, r10, r11) of the oscillator block e^{-lam t} R(t).

    Raises ``ValueError`` unless t is finite and nonnegative, and
    ``OverflowError`` when the phase omega*t overflows.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"propagation time must be finite and nonnegative, got {t}")
    mw = env.m * env.omega
    decay = math.exp(-env.lam * t)
    phase = env.omega * t
    if phase == math.inf:
        raise OverflowError(f"oscillator phase omega*t overflows at t = {t}")
    diagonal = decay * math.cos(phase)
    sin = math.sin(phase)
    return diagonal, decay * (sin / mw), decay * (-mw * sin), diagonal


def _congruence(rot, p: float, q: float, r: float, u: float) -> tuple[float, float, float, float]:
    """Entries of R X R^T for X = [[p, q], [r, u]] and R = [[r00, r01], [r10, r11]]."""
    r00, r01, r10, r11 = rot
    y00, y01 = r00 * p + r01 * r, r00 * q + r01 * u
    y10, y11 = r10 * p + r11 * r, r10 * q + r11 * u
    return (
        y00 * r00 + y01 * r01,
        y00 * r10 + y01 * r11,
        y10 * r00 + y11 * r01,
        y10 * r10 + y11 * r11,
    )


def propagator(env: EnvironmentSpec, t: float) -> Matrix:
    """Closed-form exp(Y t); identity at t = 0, determinant e^{-4 lam t}.

    Raises ``OverflowError`` when the phase omega*t overflows.
    """
    r00, r01, r10, r11 = _rotation(env, t)
    return np.array(
        [[r00, r01, 0.0, 0.0], [r10, r11, 0.0, 0.0], [0.0, 0.0, r00, r01], [0.0, 0.0, r10, r11]]
    )


def _steady_block(env: EnvironmentSpec, d11: float, d12: float, d22: float):
    """Entries (a, b, c) of the symmetric 2x2 block s = [[a, b], [b, c]] solving
    Y0 s + s Y0^T = -2 [[d11, d12], [d12, d22]] for one oscillator block Y0."""
    omega_sq = _square(env, "omega")
    mw2 = env.m * omega_sq
    b = (2.0 * env.lam * d12 - mw2 * d11 + d22 / env.m) / (
        2.0 * (_square(env, "lam") + omega_sq)
    )
    return (d11 + b / env.m) / env.lam, b, (d22 - mw2 * b) / env.lam


def steady_covariance(env: EnvironmentSpec) -> CovarianceMatrix:
    """Solve Y s + s Y^T = -2 D for the asymptotic covariance matrix.

    The drift is block-diagonal with two equal blocks Y0, so the equation
    splits into one 2x2 equation per block of s = [[A, C], [C^T, B]]: each
    block has a symmetric right-hand side (the matching block of D, whose
    cross block is symmetric because d_ypx = d_xpy) and is solved in closed
    form for any diffusion coefficients, with B = A.  The residual is checked
    against 1e-12 * (1 + max|D|) and a failure raises
    ``numpy.linalg.LinAlgError``.
    """
    xx, xp, pp = _steady_block(env, env.d_xx, env.d_xpx, env.d_pxpx)
    cx, cm, cp = _steady_block(env, env.d_xy, env.d_xpy, env.d_pxpy)
    sigma = np.array(
        [[xx, xp, cx, cm], [xp, pp, cm, cp], [cx, cm, xx, xp], [cm, cp, xp, pp]]
    )
    y = drift_matrix(env)
    d = diffusion_matrix(env)
    residual = float(np.max(np.abs(y @ sigma + sigma @ y.T + 2.0 * d)))
    bound = 1e-12 * (1.0 + float(np.max(np.abs(d))))
    if not residual <= bound:
        raise np.linalg.LinAlgError(
            f"Lyapunov solve residual {residual:.3e} exceeds {bound:.3e}"
        )
    return CovarianceMatrix(sigma)


def evolve(
    initial: CovarianceMatrix,
    env: EnvironmentSpec,
    t: float,
    *,
    steady: CovarianceMatrix | None = None,
) -> CovarianceMatrix:
    """Propagate ``initial`` for time ``t``: M(t) (s0 - s_inf) M(t)^T + s_inf.

    ``t = 0`` returns ``initial`` unchanged; ``t`` must be finite and
    nonnegative.  ``steady`` may carry a precomputed steady-state covariance
    to avoid repeated Lyapunov solves in sweep loops.  M(t) is applied as
    R X R^T on each 2x2 block of X = s0 - s_inf, in floats, and the result is
    exactly symmetric; ``OverflowError`` is raised when it is not finite.
    """
    if t == 0:
        return initial
    rot = _rotation(env, t)
    fixed = (steady if steady is not None else steady_covariance(env)).entries
    (a0, a1, c0, c1), (_, a2, c2, c3), (_, _, b0, b1), (_, _, _, b2) = (
        initial.entries - fixed
    ).tolist()
    a0, a1, _, a2 = _congruence(rot, a0, a1, a1, a2)
    b0, b1, _, b2 = _congruence(rot, b0, b1, b1, b2)
    c0, c1, c2, c3 = _congruence(rot, c0, c1, c2, c3)
    moved = np.array([[a0, a1, c0, c1], [a1, a2, c2, c3], [c0, c2, b0, b1], [c1, c3, b1, b2]])
    try:
        return CovarianceMatrix(moved + fixed)
    except ValueError:  # finite inputs, so the entries overflowed
        raise OverflowError(f"evolved covariance matrix is not finite at t = {t}") from None
