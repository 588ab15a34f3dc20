"""Shared test oracles: independent implementations used to cross-check the package.

Nothing here may call back into the code paths under test; the matrix
exponential is a plain scaling-and-squaring Taylor sum, the Lyapunov oracle is
a dense Kronecker solve, the ODE residual is a centered finite difference of
a sampled flow, the Simon oracle runs in exact rational arithmetic,
symplectic spectra come from eigenvalues of i*Omega*sigma, and the PT
invariants and the propagation step are the plain matrix forms (2x2 block
determinants, an LU determinant, M sigma M^T) that the package's
float-arithmetic kernels replace.  The dense drift, diffusion and semigroup
coefficient matrices are built from an environment's named coefficients,
which the package reads as floats, and the asymptotic Simon function and
logarithmic negativity are their closed forms in those coefficients, where
the package solves the steady state.  The writer oracles read every grid
cell on its own, format every CSV cell on its own and pick each
phase-diagram status from the two masks, where the package formats each grid
axis once, reads whole grids through ``.tolist()`` and maps the masks
through one table.  Two oracles call the package: the horizon oracle,
which samples through its column path because what it checks is how a
classification record is read, not how S is sampled, and the bisection
oracle below, whose steps call ``evolve``.  Four oracles keep
the package's earlier forms of its physical gates: the LDL^H pivots as the
complex elimination loop that ``core._pivots`` writes out in real and
imaginary parts, the Lyapunov residual check with term tuples and a
left-to-right sum, the diffusion bounds with a dict of margins, and the
thermal bath built through the validating ``EnvironmentSpec(...)``, which
checks its parameters a second time.  Two keep earlier forms of the
propagation step: one 2x2 congruence call per block, where
``dynamics._propagate`` writes the three out in floats and
``dynamics._congruences`` stacks them over a rotation column, and the
bisection with a full ``evolve`` call per step, where
``experiments._refine_crossing`` forms s0 - s_inf once per bracket.
"""

from __future__ import annotations

import math
import sys
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


def drift_matrix(env) -> np.ndarray:
    """Drift generator Y: block-diagonal, per mode [[-lam, 1/m], [-m*omega^2, -lam]].

    All four eigenvalues are -lam +/- i*omega (characteristic polynomial
    ((s + lam)^2 + omega^2)^2).
    """
    block = np.array([[-env.lam, 1.0 / env.m], [-env.m * env.omega**2, -env.lam]])
    out = np.zeros((4, 4))
    out[:2, :2] = block
    out[2:, 2:] = block
    return out


def diffusion_matrix(env) -> np.ndarray:
    """Symmetric diffusion matrix D in (x, p_x, y, p_y) ordering; the y-mode
    coefficients mirror the x-mode ones (d_yy = d_xx, d_ypy = d_xpx,
    d_pypy = d_pxpx, d_ypx = d_xpy)."""
    return np.array(
        [
            [env.d_xx, env.d_xpx, env.d_xy, env.d_xpy],
            [env.d_xpx, env.d_pxpx, env.d_xpy, env.d_pxpy],
            [env.d_xy, env.d_xpy, env.d_xx, env.d_xpx],
            [env.d_xpy, env.d_pxpy, env.d_xpx, env.d_pxpx],
        ]
    )


def semigroup_matrix(env) -> np.ndarray:
    """Complex coefficient matrix P D P - (i lam/2) Omega of the semigroup,
    P = diag(1, -1, 1, -1); the dynamics is completely positive iff it is PSD."""
    flip = np.array([1.0, -1.0, 1.0, -1.0])
    return diffusion_matrix(env) * np.outer(flip, flip) - (0.5j * env.lam) * OMEGA_4


def asymptotic_simon_oracle(env) -> float:
    """Simon function of a thermal environment's steady state, in closed form.

    Uses det A(inf) = det B(inf) = thermal_c^2/4, det C(inf) = g - d and
    Tr[...] = thermal_c^2 (g + d)/2, where g = (m omega d_xy / lam)^2 and
    d = d_xpy^2/(lam^2 + omega^2).  The |det C| term keeps the expression
    equal to the steady state's S in both sign regimes of det C(inf).
    """
    theta_sq = env.thermal_c * env.thermal_c
    g = env.m * env.omega * env.d_xy / env.lam
    g *= g
    d = env.d_xpy * env.d_xpy / (env.lam * env.lam + env.omega * env.omega)
    det_a_inf = 0.25 * theta_sq
    mixed = 0.25 - abs(g - d)
    return det_a_inf * det_a_inf + mixed * mixed - 0.5 * theta_sq * (g + d) - 0.5 * det_a_inf


def asymptotic_log_negativity_oracle(env) -> float | None:
    """Logarithmic negativity of a thermal environment's steady state, in
    closed form.

    The PT discriminant of the steady state is (2 thermal_c p)^2, so
    4 nu~_-^2 = (thermal_c - 2p)^2 - 4s^2 with p = |d_xpy|/sqrt(lam^2 +
    omega^2) and s = m omega |d_xy|/lam.  Returns None where that is not
    positive, as ``log_negativity`` does.
    """
    p = abs(env.d_xpy) / math.hypot(env.lam, env.omega)
    s = env.m * env.omega * abs(env.d_xy) / env.lam
    four_nu_sq = (env.thermal_c - 2.0 * p) ** 2 - 4.0 * s * s
    if not four_nu_sq > 0.0:
        return None
    return max(0.0, -0.5 * math.log2(four_nu_sq))


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


def merge_events_oracle(events: list, tol: float) -> list:
    """Merge crossings closer than ``tol`` from (t, class before, class after)
    triples: a cluster whose class before its first crossing equals the class
    after its last is dropped, any other becomes one event at its midpoint."""
    merged = []
    i = 0
    while i < len(events):
        j = i
        while j + 1 < len(events) and events[j + 1][0] - events[j][0] < tol:
            j += 1
        before, after = events[i][1], events[j][2]
        if before != after:
            merged.append((0.5 * (events[i][0] + events[j][0]), before, after))
        i = j + 1
    return merged


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


def temperature_from_thermal_c(thermal_c: float, omega: float = 1.0) -> float:
    """Inverse of ``thermal_c_from_temperature``; thermal_c = 1 maps to T = 0."""
    if thermal_c < 1.0:
        raise ValueError(f"thermal parameter must be >= 1, got {thermal_c}")
    if thermal_c == 1.0:
        return 0.0
    return 0.5 * omega / math.atanh(1.0 / thermal_c)


def sweep_rows_oracle(result) -> list[list]:
    """[t, c, S, L, defined] per cell, t-major, each read from the grids on its
    own; L is None and defined False where the degree is undefined."""
    rows = []
    for i, t in enumerate(result.times):
        for j, c in enumerate(result.thermal_cs):
            defined = bool(result.defined[i, j])
            degree = float(result.log_neg[i, j]) if defined else None
            rows.append([float(t), float(c), float(result.simon[i, j]), degree, defined])
    return rows


def sweep_csv_oracle(result) -> str:
    """The sweep CSV cell by cell: one format(x, ".17g") per float, and L
    written as nan with defined = 0 where the degree is undefined."""
    lines = ["t,c,S,L,defined"]
    for t, c, s, degree, defined in sweep_rows_oracle(result):
        cells = [format(x, ".17g") for x in (t, c, s)]
        cells.append("nan" if degree is None else format(degree, ".17g"))
        lines.append(",".join([*cells, str(int(defined))]))
    return "\n".join(lines) + "\n"


def phase_status_oracle(unphysical: bool, entangled: bool) -> str:
    if unphysical:
        return "unphysical"
    return "entangled" if entangled else "separable"


def phase_diagram_rows_oracle(diagram) -> list[list]:
    """[d_xpy, c, status] per cell, d_xpy-major, each status from the two masks."""
    unphysical, entangled = diagram.unphysical, diagram.entangled
    return [
        [float(d), float(c), phase_status_oracle(unphysical[i, j], entangled[i, j])]
        for i, d in enumerate(diagram.d_xpy_values)
        for j, c in enumerate(diagram.thermal_cs)
    ]


def phase_diagram_csv_oracle(diagram) -> str:
    lines = ["d_xpy,c,status"]
    lines += [f"{d:.17g},{c:.17g},{status}" for d, c, status in phase_diagram_rows_oracle(diagram)]
    return "\n".join(lines) + "\n"


def last_sample_disagrees_oracle(initial, env, t_max: float, n_t: int) -> bool:
    """Whether S at the last of ``n_t`` uniform instants over [0, t_max] and S
    at the solved steady state fall in different sign classes (S < 0 is
    entangled), with the last instant resampled as ``classify_phase`` samples
    it, through ``_column_entries`` and ``simon_function``."""
    from gaussent.core import CovarianceMatrix
    from gaussent.dynamics import _column_entries, steady_covariance
    from gaussent.entanglement import simon_function
    from gaussent.experiments import _time_column

    fixed = steady_covariance(env)
    entries = _column_entries(initial, fixed, _time_column(env.lam, env.omega, env.m, t_max, n_t))
    last = simon_function(CovarianceMatrix._of(tuple(entries[:, -1].tolist())))
    return (last < 0.0) != (simon_function(fixed) < 0.0)


def ldl_pivots_oracle(values, shift: float) -> tuple[float, ...]:
    """Pivots of the LDL^H factorization of sigma + (i/2) Omega + shift * I,
    sigma with upper triangle ``values``, up to the first that is not
    positive: the elimination in Python complex arithmetic, lower triangle
    only."""
    xx, xpx, xy, xpy, pxpx, ypx, pxpy, yy, ypy, pypy = values
    rows = [[xx, xpx, xy, xpy], [xpx, pxpx, ypx, pxpy], [xy, ypx, yy, ypy], [xpy, pxpy, ypy, pypy]]
    h = [[complex(v) for v in row] for row in rows]
    h[1][0] -= 0.5j  # Omega = diag(J, J), J = [[0, 1], [-1, 0]]
    h[3][2] -= 0.5j
    for k in range(4):
        h[k][k] += shift
    pivots = []
    for k in range(4):
        pivot = h[k][k].real
        pivots.append(pivot)
        if not pivot > 0.0:  # also NaN
            break
        for i in range(k + 1, 4):
            ratio = h[i][k] / pivot
            for j in range(k + 1, i + 1):
                h[i][j] -= ratio * h[j][k].conjugate()
    return tuple(pivots)


def _left_to_right(terms) -> float:
    """sum(terms) as Python up to 3.11 adds floats: one rounding per term."""
    total = 0
    for term in terms:
        total = total + term
    return total


def check_block_oracle(env, block, diffusion) -> None:
    """The Lyapunov residual check of one 2x2 block, term tuple by term
    tuple: ``ArithmeticError`` with the package's messages, or None."""
    (a, b, c), (d11, d12, d22) = block, diffusion
    lam, m = env.lam, env.m
    mw2 = m * env.omega**2
    for terms in (
        (d11, -lam * a, b / m),
        (2.0 * d12, -2.0 * lam * b, c / m, -mw2 * a),
        (d22, -mw2 * b, -lam * c),
    ):
        scale = _left_to_right(map(abs, terms))
        residual = abs(_left_to_right(terms))
        bound = max(1e-12 * scale, sys.float_info.min)
        if scale < math.inf and residual <= bound:
            continue
        if not scale < math.inf:
            raise ArithmeticError(
                f"Lyapunov solve is not finite or its residual overflows: s = {list(block)}"
            )
        raise ArithmeticError(f"Lyapunov solve residual {residual:.3e} exceeds {bound:.3e}")


def validate_diffusion_oracle(env, tol: float = 1e-12) -> list[tuple[str, float, bool]]:
    """(name, margin, passed) of the six pairwise diffusion bounds, each
    margin a - b - c of its own term triple, passing at
    margin >= -tol (|a| + b + c) summed term by term; ``OverflowError`` with
    the package's message when a margin is not finite."""
    half = 0.5 * env.lam
    local = (env.d_xx * env.d_pxpx, env.d_xpx * env.d_xpx, half * half)
    cross = (env.d_xx * env.d_pxpx, env.d_xpy * env.d_xpy, 0.0)
    terms = dict(
        xx_pxpx=local,
        yy_pypy=local,
        xx_yy=(env.d_xx * env.d_xx, env.d_xy * env.d_xy, 0.0),
        pxpx_pypy=(env.d_pxpx * env.d_pxpx, env.d_pxpy * env.d_pxpy, 0.0),
        xx_pypy=cross,
        yy_pxpx=cross,
    )
    margins = {name: a - b - c for name, (a, b, c) in terms.items()}
    if not all(map(math.isfinite, margins.values())):
        raise OverflowError(f"diffusion bounds are not finite (margins {list(margins.values())})")
    return [
        (name, v, v >= -tol * abs(a) - tol * b - tol * c)
        for (name, v), (a, b, c) in zip(margins.items(), terms.values())
    ]


def thermal_environment_oracle(lam, thermal_c, d_xy=0.0, d_xpy=0.0, m=1.0, omega=1.0):
    """``thermal_environment`` checked twice: its inputs and derived
    coefficients as the package checks them, then all ten fields again by
    ``EnvironmentSpec(...)``; the record, or the first check's error.  It
    computes in Python floats whatever real type its parameters have."""
    from gaussent.core import EnvironmentSpec, _check_parameters

    _check_parameters(m, omega, lam, thermal_c, d_xy, d_xpy)
    m, omega, lam, thermal_c, d_xy, d_xpy = map(float, (m, omega, lam, thermal_c, d_xy, d_xpy))
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
    return EnvironmentSpec(m, omega, lam, thermal_c, d_xx, 0.0, d_pxpx, d_xy, d_xpy, d_pxpy)


def _congruence_oracle(rot, p, q, r, u):
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


def propagate_oracle(initial, fixed, rot):
    """Entries of M (s0 - s_inf) M^T + s_inf in ``ENTRY_NAMES`` order from the
    entry tuples of s0 and s_inf and the rotation entries ``rot`` (floats, or
    arrays), one congruence call per 2x2 block of s0 - s_inf."""
    xx, xpx, xy, xpy, pxpx, ypx, pxpy, yy, ypy, pypy = fixed
    a0, a1, c0, c1, a2, c2, c3, b0, b1, b2 = initial
    a1, b1 = a1 - xpx, b1 - ypy
    a0, a1, _, a2 = _congruence_oracle(rot, a0 - xx, a1, a1, a2 - pxpx)
    b0, b1, _, b2 = _congruence_oracle(rot, b0 - yy, b1, b1, b2 - pypy)
    c0, c1, c2, c3 = _congruence_oracle(rot, c0 - xy, c1 - xpy, c2 - ypx, c3 - pxpy)
    return (
        a0 + xx, a1 + xpx, c0 + xy, c1 + xpy, a2 + pxpx,
        c2 + ypx, c3 + pxpy, b0 + yy, b1 + ypy, b2 + pypy,
    )


def rotation_instants(monkeypatch) -> list[float]:
    """A list that records the instant of every ``_rotation`` call made
    through ``gaussent.dynamics`` or ``gaussent.experiments`` from now on."""
    from gaussent import dynamics, experiments

    rotation, instants = dynamics._rotation, []

    def recorded(lam, omega, m, t):
        instants.append(t)
        return rotation(lam, omega, m, t)

    for module in (dynamics, experiments):
        monkeypatch.setattr(module, "_rotation", recorded)
    return instants


def refine_crossing_oracle(initial, env, fixed, t_lo, t_hi, lo_entangled) -> float:
    """``experiments._refine_crossing`` with a full ``evolve`` call per step,
    which solves the steady state ``fixed`` of ``env`` again.  It reads S
    through ``gaussent.experiments.simon_function`` at each step, so a test
    that replaces that name sees the oracle's calls too."""
    from gaussent import experiments
    from gaussent.dynamics import evolve

    while t_hi - t_lo > experiments.EVENT_TIME_TOL:
        mid = 0.5 * (t_lo + t_hi)
        if not t_lo < mid < t_hi:
            break
        mid_entangled = experiments.simon_function(evolve(initial, env, mid)) < 0.0
        if mid_entangled == lo_entangled:
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


def reference_bath(thermal_c: float):
    """The bath of ``presets.benchmark_environment`` at the thermal parameter
    ``thermal_c``, where that preset is at C = 1."""
    from gaussent import thermal_environment

    return thermal_environment(0.1, thermal_c, 0.0, 0.049)
