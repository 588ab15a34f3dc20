"""Shared test oracles: independent implementations used to cross-check the package.

Nothing here may call back into the code paths under test; the matrix
exponential is a plain scaling-and-squaring Taylor sum, the Lyapunov oracle is
a dense Kronecker solve, the ODE residual is a centered finite difference of
a sampled flow, the Simon oracle runs in exact rational arithmetic,
symplectic spectra come from eigenvalues of i*Omega*sigma, and the PT
invariants and the propagation step are the plain matrix forms (2x2 block
determinants, an LU determinant, M sigma M^T) that the package's
float-arithmetic kernels replace.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

OMEGA_4 = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

PT_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])


def matrix_exp_oracle(mat: np.ndarray, terms: int = 30) -> np.ndarray:
    """Scaling-and-squaring Taylor evaluation of exp(mat)."""
    norm = float(np.max(np.sum(np.abs(mat), axis=1)))
    squarings = 0
    if norm > 0.25:
        squarings = int(math.ceil(math.log2(norm / 0.25)))
    scaled = mat / (2.0**squarings)
    out = np.eye(mat.shape[0])
    term = np.eye(mat.shape[0])
    for k in range(1, terms + 1):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def lyapunov_oracle(y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve Y s + s Y^T = -2 D as one dense 16x16 system (Kronecker form, LU)."""
    eye = np.eye(4)
    coeff = np.kron(eye, y) + np.kron(y, eye)
    vec = np.linalg.solve(coeff, (-2.0 * d).reshape(-1, order="F"))
    sigma = vec.reshape((4, 4), order="F")
    return 0.5 * (sigma + sigma.T)


def ode_residual_oracle(flow, y: np.ndarray, d: np.ndarray, t_max: float, n_steps: int) -> float:
    """Max norm of d(sigma)/dt - (Y sigma + sigma Y^T + 2 D) on a sampled flow.

    ``flow(t)`` returns the 4x4 covariance matrix at time t; it is sampled on
    n_steps + 1 uniform instants of [0, t_max].  The derivative is a centered
    finite difference on the interior samples, so for the exact flow the
    residual is O(dt^2): halving the grid spacing divides it by about 4.
    """
    if n_steps < 2:
        raise ValueError("residual check needs at least three samples")
    times = np.linspace(0.0, t_max, n_steps + 1)
    mats = np.stack([np.asarray(flow(float(t)), dtype=float) for t in times])
    lhs = (mats[2:] - mats[:-2]) / (times[2:] - times[:-2])[:, None, None]
    inner = mats[1:-1]
    rhs = np.matmul(y, inner) + np.matmul(inner, y.T) + 2.0 * d
    return float(np.max(np.abs(lhs - rhs)))


def _frac_matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(len(b[0]))]
        for i in range(n)
    ]


def _frac_det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def simon_oracle_exact(entries: np.ndarray) -> Fraction:
    """Term-by-term Simon function in exact rational arithmetic.

    ``Fraction(float)`` is exact, so this evaluates the same inputs as the
    float implementation with zero rounding error.
    """
    e = [[Fraction(float(entries[i, j])) for j in range(4)] for i in range(4)]
    a = [[e[0][0], e[0][1]], [e[1][0], e[1][1]]]
    b = [[e[2][2], e[2][3]], [e[3][2], e[3][3]]]
    c = [[e[0][2], e[0][3]], [e[1][2], e[1][3]]]
    c_t = [[c[0][0], c[1][0]], [c[0][1], c[1][1]]]
    j = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    det_a = _frac_det2(a)
    det_b = _frac_det2(b)
    det_c = _frac_det2(c)
    prod = _frac_matmul(a, j)
    for factor in (c, j, b, j, c_t, j):
        prod = _frac_matmul(prod, factor)
    trace = prod[0][0] + prod[1][1]
    quarter = Fraction(1, 4)
    return (
        det_a * det_b
        + (quarter - abs(det_c)) ** 2
        - trace
        - quarter * (det_a + det_b)
    )


def pt_symplectic_eigs_oracle(entries: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of the partial transpose from |eig(i Omega sigma~)|.

    The partial transpose flips the sign of the second mode's momentum.
    Returns the two eigenvalues sorted ascending.
    """
    tilde = PT_FLIP @ entries @ PT_FLIP
    eigs = np.linalg.eigvals(1j * OMEGA_4 @ tilde)
    nus = np.sort(np.abs(eigs))
    return nus[::2]


def pt_invariants_oracle(entries: np.ndarray) -> tuple[float, float]:
    """Seralian det A + det B - 2 det C from the 2x2 blocks, and det sigma by LU."""

    def det2(block):
        return float(block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0])

    delta = det2(entries[:2, :2]) + det2(entries[2:, 2:]) - 2.0 * det2(entries[:2, 2:])
    return delta, float(np.linalg.det(entries))


def evolve_oracle(initial: np.ndarray, m: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """M (s0 - s_inf) M^T + s_inf as 4x4 matrix products, re-symmetrized."""
    out = m @ (initial - fixed) @ m.T + fixed
    return 0.5 * (out + out.T)


def rotation(theta: float) -> np.ndarray:
    return np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    )


def squeezer(r: float) -> np.ndarray:
    return np.diag([math.exp(r), math.exp(-r)])


def direct_sum(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4))
    out[:2, :2] = m1
    out[2:, 2:] = m2
    return out


def two_mode_squeezer(r: float) -> np.ndarray:
    ch, sh = math.cosh(r), math.sinh(r)
    return np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )


def random_symplectic(rng: np.random.Generator, max_squeeze: float = 1.0) -> np.ndarray:
    """Random 4x4 symplectic built from rotations, squeezers and a two-mode squeezer."""
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=4)
    squeezes = rng.uniform(-max_squeeze, max_squeeze, size=3)
    local_in = direct_sum(
        rotation(thetas[0]) @ squeezer(squeezes[0]),
        rotation(thetas[1]) @ squeezer(squeezes[1]),
    )
    local_out = direct_sum(rotation(thetas[2]), rotation(thetas[3]))
    return local_out @ two_mode_squeezer(squeezes[2]) @ local_in


def random_physical_cm(rng: np.random.Generator, max_squeeze: float = 1.0) -> np.ndarray:
    """Symplectic transform of a two-mode thermal state: always a physical CM."""
    nus = rng.uniform(0.5, 2.5, size=2)
    thermal = np.diag([nus[0], nus[0], nus[1], nus[1]])
    s = random_symplectic(rng, max_squeeze=max_squeeze)
    out = s @ thermal @ s.T
    return 0.5 * (out + out.T)
