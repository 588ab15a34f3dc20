"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and are not calibration knobs.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import gaussent as ge
from gaussent.core import EnvironmentSpec, covariance_from_entries
from gaussent.dynamics import propagator, steady_covariance
from gaussent.entanglement import asymptotic_simon, log_negativity, simon_function
from helpers import (
    asymptotic_log_negativity_oracle,
    asymptotic_simon_oracle,
    diffusion_matrix,
    drift_matrix,
    lyapunov_oracle,
    matrix_exp_oracle,
    ode_residual_oracle,
    pt_symplectic_eigs_oracle,
    random_physical_cm,
    simon_oracle_exact,
)


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def test_c01_propagator_exactness():
    """Closed-form exp(Yt) matches a scaling-and-squaring series oracle."""
    start = time.perf_counter()
    worst = 0.0
    for lam, omega, m in itertools.product(
        (0.01, 0.1, 1.0), (0.5, 1.0, 2.0), (0.5, 1.0, 2.0)
    ):
        env = ge.thermal_environment(lam, 1.0, m=m, omega=omega)
        y = drift_matrix(env)
        for t in (0.1, 1.0, 10.0, 100.0):
            diff = np.max(np.abs(propagator(env, t) - matrix_exp_oracle(y * t)))
            worst = max(worst, float(diff))
    elapsed = time.perf_counter() - start
    _report(
        "01 propagator exactness",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst entry diff {worst:.2e}, runtime {elapsed:.2f}s over 108 points",
    )


def _thermal_grid():
    for lam in (0.05, 0.1, 0.2):
        for c in (1.0, 1.1, 1.5, 2.0):
            for d_xpy in (0.0, 0.02, 0.049):
                for d_xy in (0.0, 0.005):
                    yield ge.thermal_environment(lam, c, d_xy, d_xpy)


def _non_thermal_baths(n: int = 100):
    """Seeded baths with d_xpx != 0, non-Gibbs diagonals and free cross terms."""
    rng = np.random.default_rng(19720401)
    for _ in range(n):
        lam, omega, m = rng.uniform(0.02, 1.0), rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
        d = rng.uniform(-1.0, 1.0, size=6)
        yield EnvironmentSpec(
            m=m, omega=omega, lam=lam, thermal_c=1.0,
            d_xx=abs(d[0]), d_xpx=d[1], d_pxpx=abs(d[2]), d_xy=d[3], d_xpy=d[4], d_pxpy=d[5],
        )


def test_c02_lyapunov_correctness():
    """Steady-state residual and dense-solve oracle entries on the 72-point
    thermal grid and on 100 seeded non-thermal baths."""
    worst_residual = 0.0
    worst_oracle = 0.0
    count = 0
    for env in itertools.chain(_thermal_grid(), _non_thermal_baths()):
        count += 1
        sigma = steady_covariance(env)
        y = drift_matrix(env)
        d = diffusion_matrix(env)
        residual = np.max(np.abs(y @ sigma.entries + sigma.entries @ y.T + 2 * d))
        worst_residual = max(
            worst_residual, float(residual) / (1.0 + float(np.max(np.abs(d))))
        )
        oracle = lyapunov_oracle(y, d)
        worst_oracle = max(
            worst_oracle,
            float(np.max(np.abs(sigma.entries - oracle))) / (1.0 + float(np.max(np.abs(oracle)))),
        )
    _report(
        "02 lyapunov correctness",
        count == 172 and worst_residual <= 1e-12 and worst_oracle <= 1e-12,
        f"worst scaled residual {worst_residual:.2e}, "
        f"worst scaled dense-oracle diff {worst_oracle:.2e} over {count} points",
    )


def test_c03_asymptotic_simon_cross_check():
    """Closed-form S(inf) equals the Lyapunov + Simon route on the 72-point grid."""
    worst = 0.0
    count = 0
    for env in _thermal_grid():
        count += 1
        worst = max(worst, abs(asymptotic_simon_oracle(env) - asymptotic_simon(env)))
    _report(
        "03 asymptotic Simon cross-check",
        count == 72 and worst <= 1e-10,
        f"worst |closed - direct| {worst:.2e} over {count} points",
    )


def test_c04_threshold_identity():
    """Bisection root of S(inf) in C sits at 1 + 2 d_xpy / sqrt(lam^2 + omega^2)."""

    def s_of_c(c):
        return asymptotic_simon(ge.thermal_environment(0.1, c, 0.0, 0.049))

    lo, hi = 1.0 + 1e-15, 1.5
    assert s_of_c(lo) < 0 < s_of_c(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if s_of_c(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    expected = 1.0 + 2.0 * 0.049 / math.sqrt(1.01)
    root_err = abs(root - expected)
    degree_at_root = log_negativity(
        steady_covariance(ge.thermal_environment(0.1, root, 0.0, 0.049))
    )
    _report(
        "04 threshold identity",
        root_err <= 1e-10 and abs(degree_at_root) <= 1e-10,
        f"root {root:.12f}, |root - analytic| {root_err:.2e}, "
        f"L(inf) at root {degree_at_root:.2e}",
    )


def test_c05_asymptotic_degree_convergence():
    """L of the evolved state reaches the closed-form L(inf) from any start."""
    env = ge.thermal_environment(0.1, 1.0, 0.0, 0.049)
    expected = asymptotic_log_negativity_oracle(env)
    worst = 0.0
    for name in ("fig1", "fig2", "vacuum"):
        state = ge.evolve(ge.presets.initial_state(name), env, 300.0 / 0.1)
        degree = log_negativity(state)
        worst = max(worst, abs(degree - expected))
    _report(
        "05 asymptotic degree convergence",
        worst <= 1e-6,
        f"L(inf) {expected:.9f}, worst |evolved - closed form| {worst:.2e} "
        "over 3 initial states",
    )


def test_c06_benchmark_regime_reproduction():
    """Entanglement generation at C = 1; separable asymptote at C = 1.5; sweep speed."""
    initial = ge.presets.initial_state("fig1")
    phase = ge.classify_phase(initial, ge.presets.benchmark_environment(1.0), 50.0, 500)
    generated = (
        phase.s_initial_sign >= 0
        and len(phase.event_times) >= 1
        and phase.event_times[0] > 0.0
        and phase.s_infinity_sign == -1
        and phase.label in ("generation_persistent", "collapse_revival")
    )
    separable_tail = asymptotic_simon(ge.presets.benchmark_environment(1.5)) > 0
    start = time.perf_counter()
    ge.sweep(
        ge.SweepSpec(
            env_base=ge.presets.benchmark_environment(1.0),
            initial=initial,
            t_max=50.0,
            n_t=500,
            c_min=1.0,
            c_max=1.5,
            n_c=20,
        )
    )
    elapsed = time.perf_counter() - start
    _report(
        "06 benchmark regime reproduction",
        generated and separable_tail and elapsed < 5.0,
        f"label {phase.label}, first event {phase.event_times[0]:.2e}, "
        f"S(inf) sign at C=1.5 {'+' if separable_tail else '-'}, "
        f"500x20 sweep {elapsed:.2f}s",
    )


def test_c07_entangled_preset_exact_simon():
    """Preset fig3 Simon value equals -133/576 against exact rational evaluation."""
    sigma = ge.presets.initial_state("fig3")
    value = simon_function(sigma)
    reference = -133.0 / 576.0
    oracle = simon_oracle_exact(sigma.entries)
    rel_vs_reference = abs(value - reference) / abs(reference)
    rel_vs_oracle = abs(value - float(oracle)) / abs(float(oracle))
    oracle_exactness = abs(oracle - Fraction(-133, 576))
    _report(
        "07 entangled preset exact Simon",
        rel_vs_reference <= 1e-15
        and rel_vs_oracle <= 1e-15
        and oracle_exactness < Fraction(1, 10**12),
        f"S {value!r}, rel err vs -133/576 {rel_vs_reference:.2e}, "
        f"rel err vs rational oracle {rel_vs_oracle:.2e}",
    )


def test_c08_ppt_consistency_property():
    """Sign agreement of S and L plus nu~_-^2 against eig(i Omega sigma~) on 1000 states."""
    rng = np.random.default_rng(20240817)
    disagreements = 0
    worst_nu = 0.0
    entangled = separable = 0
    for _ in range(1000):
        sigma = ge.CovarianceMatrix(random_physical_cm(rng))
        met = ge.metrics(sigma)
        nu_plus_sq = met.seralian_tilde - met.nu_tilde_minus_sq
        nu_minus = pt_symplectic_eigs_oracle(sigma.entries)[0]
        worst_nu = max(worst_nu, abs(met.nu_tilde_minus_sq - nu_minus**2) / max(1.0, nu_plus_sq))
        s = simon_function(sigma)
        degree = log_negativity(sigma)
        if s < -1e-12:
            entangled += 1
            if not degree > 0:
                disagreements += 1
        elif s > 1e-12:
            separable += 1
            if not degree == 0.0:
                disagreements += 1
    _report(
        "08 PPT consistency property",
        disagreements == 0 and worst_nu <= 1e-12 and entangled > 50 and separable > 50,
        f"{entangled} entangled / {separable} separable samples, "
        f"0 boundary-band exclusions allowed, disagreements {disagreements}, "
        f"worst relative nu~_-^2 diff {worst_nu:.2e}",
    )


def test_c09_fixed_point_and_flow():
    """The steady state is a fixed point; the flow composes as a semigroup."""
    env = ge.thermal_environment(0.1, 1.2, 0.0, 0.049)
    fixed = steady_covariance(env)
    worst_fixed = max(
        float(np.max(np.abs(ge.evolve(fixed, env, t).entries - fixed.entries)))
        for t in (1.0, 10.0, 100.0)
    )
    rng = np.random.default_rng(7)
    worst_flow = 0.0
    for _ in range(100):
        sigma = ge.CovarianceMatrix(random_physical_cm(rng))
        s, t = rng.uniform(0.0, 20.0, size=2)
        two_step = ge.evolve(ge.evolve(sigma, env, float(s)), env, float(t))
        one_step = ge.evolve(sigma, env, float(s + t))
        worst_flow = max(
            worst_flow, float(np.max(np.abs(two_step.entries - one_step.entries)))
        )
    _report(
        "09 fixed point and flow",
        worst_fixed <= 1e-12 and worst_flow <= 1e-11,
        f"worst fixed-point drift {worst_fixed:.2e}, "
        f"worst composition defect {worst_flow:.2e} over 100 cases",
    )


def test_c10_ode_residual_convergence():
    """Centered-difference residual of the covariance ODE drops ~4x when dt halves."""
    env = ge.presets.benchmark_environment(1.0)
    initial = ge.presets.initial_state("fig1")

    def residual(n_steps):
        return ode_residual_oracle(
            lambda t: ge.evolve(initial, env, t).entries,
            drift_matrix(env),
            diffusion_matrix(env),
            10.0,
            n_steps,
        )

    coarse = residual(1000)
    fine = residual(2000)
    ratio = coarse / fine
    _report(
        "10 ODE residual convergence",
        3.5 <= ratio <= 4.5,
        f"residual dt=0.01 {coarse:.2e}, dt=0.005 {fine:.2e}, ratio {ratio:.3f}",
    )


def test_c11_two_mode_squeezed_oracle():
    """L of a two-mode squeezed state with r = 0.5 equals 2r/ln 2."""
    r = 0.5
    ch = 0.5 * math.cosh(2 * r)
    sh = 0.5 * math.sinh(2 * r)
    sigma = covariance_from_entries(
        {
            "sigma_xx": ch, "sigma_pxpx": ch, "sigma_yy": ch, "sigma_pypy": ch,
            "sigma_xy": sh, "sigma_pxpy": -sh,
        }
    )
    value = log_negativity(sigma)
    expected = 2 * r / math.log(2)
    _report(
        "11 two-mode squeezed oracle",
        abs(value - expected) <= 1e-12,
        f"L {value!r} vs 2r/ln2 {expected!r}, diff {abs(value - expected):.2e}",
    )


def test_c12_cli_determinism(tmp_path):
    """Documented CLI examples are byte-identical across repeated runs."""
    from gaussent.cli import main

    examples = [
        ("steady", "--set", "c=1"),
        ("metrics", "--set", "initial=fig3", "--format", "json"),
        ("sweep", "--set", "initial=fig1", "--set", "n_t=120", "--set", "n_c=4"),
        ("classify", "--set", "initial=fig1", "--set", "n_c=3"),
        ("phase-diagram", "--set", "n_d=3", "--set", "n_c=5"),
    ]
    identical = True
    for idx, args in enumerate(examples):
        first = tmp_path / f"first_{idx}.out"
        second = tmp_path / f"second_{idx}.out"
        assert main([*args, "--out", str(first)]) == 0
        assert main([*args, "--out", str(second)]) == 0
        if first.read_bytes() != second.read_bytes():
            identical = False
    _report(
        "12 CLI determinism",
        identical,
        f"{len(examples)} documented examples, byte-identical reruns",
    )
