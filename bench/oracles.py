"""Independent references that the benchmark checks gaussent's outputs against.

Nothing here imports gaussent.  The scalar oracles come from ``tests/helpers.py``
(series matrix exponential, exact rational Simon function, PT spectrum from
eigenvalues of i*Omega*sigma); this module adds what the benchmark needs on
top of them:

- a steady state derived in the eigenbasis of the drift matrix rather than by
  the package's 16x16 Kronecker solve;
- a vectorized Simon function built from the identity
  S = det(sigma) + 1/16 - |det C|/2 - (det A + det B)/4, for whole time grids;
- the classification label rule and the analytic phase-diagram status.
"""

from __future__ import annotations

import math

import numpy as np

from helpers import OMEGA_4, PT_FLIP, matrix_exp_oracle, pt_symplectic_eigs_oracle, simon_oracle_exact

#: |S| at or below this is on the separability boundary, where the sign of a
#: floating-point evaluation is not meaningful (the package's BOUNDARY_TOL).
BOUNDARY_TOL = 1e-12


def drift(lam: float, omega: float, m: float = 1.0) -> np.ndarray:
    """Drift matrix Y of two identical damped oscillators, (x, p_x, y, p_y) order."""
    block = np.array([[-lam, 1.0 / m], [-m * omega * omega, -lam]])
    out = np.zeros((4, 4))
    out[:2, :2] = block
    out[2:, 2:] = block
    return out


def thermal_diffusion(
    lam: float, c: float, d_xpy: float, d_xy: float = 0.0, m: float = 1.0, omega: float = 1.0
) -> np.ndarray:
    """Diffusion matrix of a bath with a Gibbs asymptote at thermal parameter c."""
    mw = m * omega
    d_xx = 0.5 * lam * c / mw
    d_pp = 0.5 * lam * c * mw
    d_pxpy = mw * mw * d_xy
    return np.array(
        [
            [d_xx, 0.0, d_xy, d_xpy],
            [0.0, d_pp, d_xpy, d_pxpy],
            [d_xy, d_xpy, d_xx, 0.0],
            [d_xpy, d_pxpy, 0.0, d_pp],
        ]
    )


def steady_state(y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve Y s + s Y^T = -2 D in the eigenbasis of Y.

    With Y = V diag(mu) V^-1 the equation decouples entry by entry:
    X_ij = -2 (V^-1 D V^-T)_ij / (mu_i + mu_j) and s = V X V^T.
    """
    mu, v = np.linalg.eig(y)
    v_inv = np.linalg.inv(v)
    g = v_inv @ d @ v_inv.T
    x = -2.0 * g / (mu[:, None] + mu[None, :])
    s = (v @ x @ v.T).real
    s = 0.5 * (s + s.T)
    residual = float(np.max(np.abs(y @ s + s @ y.T + 2.0 * d)))
    if residual > 1e-10 * (1.0 + float(np.max(np.abs(d)))):
        raise ArithmeticError(f"reference steady state residual {residual:.3e}")
    return s


def evolve(sigma0: np.ndarray, y: np.ndarray, s_inf: np.ndarray, t: float) -> np.ndarray:
    """sigma(t) = M (sigma0 - s_inf) M^T + s_inf with M = exp(Y t) from the series oracle."""
    if t == 0.0:
        return np.array(sigma0, dtype=float)
    m = matrix_exp_oracle(y * t)
    out = m @ (sigma0 - s_inf) @ m.T + s_inf
    return 0.5 * (out + out.T)


def simon_exact(sigma: np.ndarray) -> float:
    """Simon function of the given float entries, rounded once from exact arithmetic."""
    return float(simon_oracle_exact(sigma))


def pt_nu_sq(sigma: np.ndarray) -> tuple[complex, complex]:
    """Squared PT symplectic eigenvalues (nu~_-^2, nu~_+^2), as complex numbers.

    The eigenvalues of i*Omega*sigma~ come in pairs +/-nu~, so their squares are
    the roots of x^2 - Delta~ x + det(sigma).  A nonzero imaginary part means a
    complex pair; a nonpositive real part means the degree is undefined.
    """
    tilde = PT_FLIP @ sigma @ PT_FLIP
    squares = np.sort_complex(np.linalg.eigvals(1j * OMEGA_4 @ tilde) ** 2)
    return complex(squares[0]), complex(squares[-1])


def log_negativity(sigma: np.ndarray) -> float:
    """max(0, -log2(2 nu~_-)) with nu~_- from the eigenvalue oracle."""
    nu_minus = float(pt_symplectic_eigs_oracle(sigma)[0])
    return max(0.0, -math.log2(2.0 * nu_minus))


def simon_grid(sigmas: np.ndarray) -> np.ndarray:
    """Vectorized Simon function of stacked (..., 4, 4) matrices via the det identity."""
    a = sigmas[..., :2, :2]
    b = sigmas[..., 2:, 2:]
    c = sigmas[..., :2, 2:]
    det2 = lambda blk: blk[..., 0, 0] * blk[..., 1, 1] - blk[..., 0, 1] * blk[..., 1, 0]
    return np.linalg.det(sigmas) + 1.0 / 16.0 - 0.5 * np.abs(det2(c)) - 0.25 * (det2(a) + det2(b))


def propagators(y: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(Y t) for each t of a uniform grid starting at 0, by repeated products.

    One series evaluation at the grid step h gives M(h); M(k h) = M(h)^k.
    """
    n = len(times)
    out = np.empty((n, 4, 4))
    out[0] = np.eye(4)
    if n > 1:
        step = matrix_exp_oracle(y * float(times[1] - times[0]))
        for k in range(1, n):
            out[k] = out[k - 1] @ step
    return out


def trajectory_simon(
    sigma0: np.ndarray, s_inf: np.ndarray, mats: np.ndarray
) -> np.ndarray:
    """S(t) along precomputed propagators ``mats`` of shape (n, 4, 4)."""
    delta = sigma0 - s_inf
    sigmas = mats @ delta @ np.swapaxes(mats, -1, -2) + s_inf
    return simon_grid(sigmas)


def sign_class(value: float, scale: float = 1.0) -> int:
    """-1 / 0 / +1, with 0 for values inside the boundary band BOUNDARY_TOL * scale."""
    if abs(value) <= BOUNDARY_TOL * scale:
        return 0
    return 1 if value > 0 else -1


def label_for(start_entangled: bool, n_events: int) -> str:
    """Pattern label from the initial sign class and the number of sign changes."""
    if n_events == 0:
        return "remains_entangled" if start_entangled else "remains_separable"
    if not start_entangled:
        return {1: "generation_persistent", 2: "generation_transient"}.get(
            n_events, "collapse_revival"
        )
    return "sudden_death" if n_events == 1 else "collapse_revival"


def phase_status(
    lam: float, omega: float, d_xpy: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expected status per (d_xpy, c) cell, and a mask of cells on the threshold.

    A cell is unphysical when the diffusion bound (lam/2) c >= d_xpy fails,
    entangled when c < C* = 1 + 2 d_xpy / sqrt(lam^2 + omega^2), and separable
    otherwise.  Cells within BOUNDARY_TOL (relative) of C* may take either
    physical status.
    """
    d_col = np.asarray(d_xpy, dtype=float)[:, None]
    c_row = np.asarray(c, dtype=float)[None, :]
    c_star = 1.0 + 2.0 * np.abs(d_col) / math.hypot(lam, omega)
    unphysical = 0.5 * lam * c_row < d_col
    status = np.where(unphysical, "unphysical", np.where(c_row < c_star, "entangled", "separable"))
    on_threshold = ~unphysical & (np.abs(c_row - c_star) <= BOUNDARY_TOL * c_star)
    return status, on_threshold
