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
    diffusion_matrix,
    drift_matrix,
)


def propagator(env: EnvironmentSpec, t: float) -> Matrix:
    """Closed-form exp(Y t); identity at t = 0, determinant e^{-4 lam t}."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"propagation time must be finite and nonnegative, got {t}")
    mw = env.m * env.omega
    decay = math.exp(-env.lam * t)
    cos = math.cos(env.omega * t)
    sin = math.sin(env.omega * t)
    block = decay * np.array([[cos, sin / mw], [-mw * sin, cos]])
    out = np.zeros((4, 4))
    out[:2, :2] = block
    out[2:, 2:] = block
    return out


def _steady_block(env: EnvironmentSpec, d11: float, d12: float, d22: float):
    """Entries (a, b, c) of the symmetric 2x2 block s = [[a, b], [b, c]] solving
    Y0 s + s Y0^T = -2 [[d11, d12], [d12, d22]] for one oscillator block Y0."""
    mw2 = env.m * env.omega**2
    b = (2.0 * env.lam * d12 - mw2 * d11 + d22 / env.m) / (
        2.0 * (env.lam**2 + env.omega**2)
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
    to avoid repeated Lyapunov solves in sweep loops.  The result is
    re-symmetrized via (s + s^T)/2.
    """
    if t == 0:
        return initial
    m = propagator(env, t)
    fixed = steady.entries if steady is not None else steady_covariance(env).entries
    out = m @ (initial.entries - fixed) @ m.T + fixed
    return CovarianceMatrix(0.5 * (out + out.T))
