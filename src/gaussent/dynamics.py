"""Exact covariance propagation and the Lyapunov steady state.

The drift matrix has the known closed-form exponential
exp(Y t) = e^{-lam t} * diag(R(t), R(t)) with
R(t) = [[cos(omega t), sin(omega t)/(m omega)], [-m omega sin(omega t), cos(omega t)]],
so trajectories are sampled without any ODE integration: every instant is
computed directly from t = 0, and a column of instants in one array pass.
The rotations do not depend on the bath temperature, so a column's rotation
array is built once per oscillator (lam, omega, m) and time grid and shared
by every column and classification on that grid.  A whole column is
propagated, and its t = 0 instants then take the initial entries.
"""

from __future__ import annotations

import functools
import math
import sys

from .core import CovarianceMatrix, EnvironmentSpec, _square


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


@functools.lru_cache(maxsize=4)
def _rotation_column(lam: float, omega: float, m: float, times: tuple[float, ...]):
    """Read-only (4, len(times)) array of ``_rotation`` for each t of ``times``,
    keyed on exactly what ``_rotation`` reads, with its bits (``math.exp`` is
    not ``np.exp``).  A grid of n instants holds about 64 n bytes with its
    key; errors are not cached."""
    import numpy as np

    rot = np.array(list(zip(*[_rotation(lam, omega, m, t) for t in times]))).reshape(4, -1)
    rot.flags.writeable = False
    return rot


def _congruence(rot, p: float, q: float, r: float, u: float) -> tuple[float, float, float, float]:
    """Entries of R X R^T for X = [[p, q], [r, u]] and R = [[r00, r01], [r10, r11]];
    +, - and x only, so R's entries may be floats or arrays."""
    r00, r01, r10, r11 = rot
    y00, y01 = r00 * p + r01 * r, r00 * q + r01 * u
    y10, y11 = r10 * p + r11 * r, r10 * q + r11 * u
    return (
        y00 * r00 + y01 * r01,
        y00 * r10 + y01 * r11,
        y10 * r00 + y11 * r01,
        y10 * r10 + y11 * r11,
    )


def propagator(env: EnvironmentSpec, t: float):
    """Closed-form exp(Y t) as a numpy 4x4; identity at t = 0, determinant
    e^{-4 lam t}.  Raises ``OverflowError`` when the phase omega*t overflows.
    """
    import numpy as np

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


def _propagate(initial, fixed, rot):
    """Entries of M (s0 - s_inf) M^T + s_inf in ``ENTRY_NAMES`` order, from the
    entry tuples of s0 and s_inf and the rotation entries ``rot`` (floats, or
    arrays over a time column).  R X R^T acts on each 2x2 block of
    X = s0 - s_inf; the mirror entries are not stored, so the state is exactly
    symmetric."""
    xx, xpx, xy, xpy, pxpx, ypx, pxpy, yy, ypy, pypy = fixed
    a0, a1, c0, c1, a2, c2, c3, b0, b1, b2 = initial
    a1, b1 = a1 - xpx, b1 - ypy
    a0, a1, _, a2 = _congruence(rot, a0 - xx, a1, a1, a2 - pxpx)
    b0, b1, _, b2 = _congruence(rot, b0 - yy, b1, b1, b2 - pypy)
    c0, c1, c2, c3 = _congruence(rot, c0 - xy, c1 - xpy, c2 - ypx, c3 - pxpy)
    return (
        a0 + xx, a1 + xpx, c0 + xy, c1 + xpy, a2 + pxpx,
        c2 + ypx, c3 + pxpy, b0 + yy, b1 + ypy, b2 + pypy,
    )


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
    to avoid repeated Lyapunov solves.  The result is exactly symmetric;
    ``OverflowError`` is raised when it is not finite.  This is float
    arithmetic on the ten entries, with no numpy.
    """
    if t == 0:
        return initial
    rot = _rotation(env.lam, env.omega, env.m, t)
    fixed = steady if steady is not None else steady_covariance(env)
    values = _propagate(initial._values, fixed._values, rot)
    if not all(map(math.isfinite, values)):
        raise OverflowError(f"evolved covariance matrix is not finite at t = {t}")
    return CovarianceMatrix._of(values)


def _column_entries(
    initial: CovarianceMatrix, env: EnvironmentSpec, times: list[float], fixed: CovarianceMatrix
):
    """(10, len(times)) array of the entries of evolve(initial, env, t, steady=fixed)
    for each t of ``times``, in one numpy pass with the same bits: the rotations
    are the cached ``_rotation_column`` of the time grid, and +, - and x round
    alike in numpy and in floats.  The whole grid is propagated, and each t = 0
    column then takes ``initial``'s entries, as ``evolve`` returns ``initial``.
    """
    import numpy as np

    rot = _rotation_column(env.lam, env.omega, env.m, tuple(times))
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.array(_propagate(initial._values, fixed._values, rot))
    out[:, np.equal(times, 0.0)] = np.array(initial._values)[:, None]
    finite = np.isfinite(out).all(axis=0)
    if not finite.all():
        raise OverflowError(
            f"evolved covariance matrix is not finite at t = {times[finite.argmin()]}"
        )
    return out
