import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gaussent as ge
from gaussent.core import ENTRY_NAMES, EnvironmentSpec, covariance_from_entries, validate_diffusion
from gaussent.dynamics import steady_covariance
from gaussent.entanglement import (
    _column_negativity,
    _invariants,
    asymptotic_simon,
    log_negativity,
    simon_function,
)
from helpers import (
    asymptotic_log_negativity_oracle,
    asymptotic_simon_oracle,
    diffusion_matrix,
    drift_matrix,
    lyapunov_oracle,
    pt_invariants_oracle,
    pt_symplectic_eigs_oracle,
    random_physical_cm,
    rotation,
    simon_oracle_exact,
    squeezer,
)

# rounded random symmetric matrix whose PT symplectic spectrum is a complex
# quartet (seralian^2 - 4 det < 0); found by search, frozen here
COMPLEX_PAIR_EXAMPLE = np.array(
    [
        [0.329, 0.187, 1.294, 0.329],
        [0.187, -2.204, -0.283, 0.809],
        [1.294, -0.283, 1.822, -0.636],
        [0.329, 0.809, -0.636, 2.002],
    ]
)


def two_mode_squeezed(r: float) -> ge.CovarianceMatrix:
    ch = 0.5 * math.cosh(2 * r)
    sh = 0.5 * math.sinh(2 * r)
    return covariance_from_entries(
        {
            "sigma_xx": ch,
            "sigma_pxpx": ch,
            "sigma_yy": ch,
            "sigma_pypy": ch,
            "sigma_xy": sh,
            "sigma_pxpy": -sh,
        }
    )


def thermal_product(c: float) -> ge.CovarianceMatrix:
    return ge.CovarianceMatrix(0.5 * c * np.eye(4))


class TestSimonFunction:
    def test_thermal_product(self):
        # det A = det B = 1 at C = 2: S = 1 + 1/16 - 1/2
        assert simon_function(thermal_product(2.0)) == pytest.approx(0.5625, abs=1e-15)

    def test_squeezed_preset_on_boundary(self):
        assert simon_function(ge.presets.initial_state("fig1")) == pytest.approx(
            0.0, abs=1e-16
        )

    def test_entangled_squeezed_preset(self):
        sigma = ge.presets.initial_state("fig3")
        value = simon_function(sigma)
        reference = -133.0 / 576.0
        assert value == pytest.approx(reference, rel=1e-15)
        # term-by-term evaluation in exact rational arithmetic on the same floats
        oracle = simon_oracle_exact(sigma.entries)
        assert value == pytest.approx(float(oracle), rel=1e-15)
        assert abs(oracle - Fraction(-133, 576)) < Fraction(1, 10**12)

    def test_vacuum_boundary(self):
        assert simon_function(thermal_product(1.0)) == pytest.approx(0.0, abs=1e-16)


def pt_spectrum(sigma):
    """Delta~, nu~_-^2 and nu~_+^2 = Delta~ - nu~_-^2 of ``sigma``, as ``metrics`` gives them."""
    met = ge.metrics(sigma)
    return met.seralian_tilde, met.nu_tilde_minus_sq, met.seralian_tilde - met.nu_tilde_minus_sq


class TestPtSpectrum:
    def test_vacuum(self):
        delta, nu_minus_sq, nu_plus_sq = pt_spectrum(thermal_product(1.0))
        assert delta == pytest.approx(0.5, abs=1e-15)
        assert nu_minus_sq == pytest.approx(0.25, abs=1e-12)
        assert nu_plus_sq == pytest.approx(0.25, abs=1e-12)

    def test_two_mode_squeezed(self):
        r = 0.5
        _, nu_minus_sq, nu_plus_sq = pt_spectrum(two_mode_squeezed(r))
        assert math.sqrt(nu_minus_sq) == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-12)
        # independent eigenvalue-based evaluation of the PT spectrum
        nus = pt_symplectic_eigs_oracle(two_mode_squeezed(r).entries)
        assert math.sqrt(nu_minus_sq) == pytest.approx(nus[0], rel=1e-10)
        assert math.sqrt(nu_plus_sq) == pytest.approx(nus[1], rel=1e-10)

    def test_entangled_mixed_preset_degenerate(self):
        sigma = ge.presets.initial_state("fig4")
        assert np.linalg.det(sigma.entries) == pytest.approx(0.0, abs=1e-15)
        delta, nu_minus_sq, _ = pt_spectrum(sigma)
        assert delta == pytest.approx(1.5, abs=1e-15)
        assert nu_minus_sq == pytest.approx(0.0, abs=1e-15)

    def test_complex_pair_flagged(self):
        _, nu_minus_sq, nu_plus_sq = pt_spectrum(ge.CovarianceMatrix(COMPLEX_PAIR_EXAMPLE))
        # the discriminant of the independent block/LU invariants is negative
        delta, det = pt_invariants_oracle(COMPLEX_PAIR_EXAMPLE)
        assert delta * delta < 4.0 * det
        assert math.isnan(nu_minus_sq)
        assert math.isnan(nu_plus_sq)


class TestLogNegativity:
    def test_vacuum_separable(self):
        assert log_negativity(thermal_product(1.0)) == 0.0

    def test_two_mode_squeezed_value(self):
        r = 0.5
        value = log_negativity(two_mode_squeezed(r))
        assert value == pytest.approx(2 * r / math.log(2), abs=1e-12)

    def test_degenerate_returns_none(self):
        assert log_negativity(ge.presets.initial_state("fig4")) is None

    def test_complex_pair_returns_none(self):
        assert log_negativity(ge.CovarianceMatrix(COMPLEX_PAIR_EXAMPLE)) is None

    def test_overflow_raises_instead_of_zero(self):
        # finite entries whose invariants overflow: no NaN may become L = 0
        sigma = covariance_from_entries({"sigma_xx": 1e200, "sigma_pxpx": 1e200})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError):
                log_negativity(sigma)
            with pytest.raises(OverflowError):
                ge.metrics(sigma)
        # finite invariants whose discriminant overflows: no -inf nu~_-^2
        sigma = ge.CovarianceMatrix(np.diag([1e160, 1.0, 1.0, 1.0]))
        with pytest.raises(OverflowError, match="PT symplectic spectrum overflows"):
            ge.metrics(sigma)
        # the steady state's S overflows the same way, not to inf
        for thermal_c in (1e100, 1e200):
            with pytest.raises(OverflowError, match="Simon function is not finite"):
                asymptotic_simon(ge.thermal_environment(0.1, thermal_c))


class TestMetrics:
    def test_vacuum(self):
        met = ge.metrics(thermal_product(1.0))
        assert met.simon_s == pytest.approx(0.0, abs=1e-16)
        assert met.log_negativity == 0.0
        assert met.separable
        assert met.boundary

    def test_two_mode_squeezed(self):
        met = ge.metrics(two_mode_squeezed(0.5))
        assert met.simon_s < 0
        assert met.log_negativity == pytest.approx(1.4426950408889634, abs=1e-12)
        assert not met.separable
        assert not met.boundary

    def test_thermal_product(self):
        met = ge.metrics(thermal_product(2.0))
        assert met.simon_s == pytest.approx(0.5625, abs=1e-15)
        assert met.log_negativity == 0.0
        assert met.separable

    def test_degenerate_carries_marker(self):
        met = ge.metrics(ge.presets.initial_state("fig4"))
        assert met.log_negativity is None
        assert met.nu_tilde_minus_sq == pytest.approx(0.0, abs=1e-15)


def _thermal_grid():
    for lam in (0.05, 0.1, 0.2):
        for c in (1.0, 1.1, 1.5, 2.0):
            for d_xpy in (0.0, 0.02, 0.049):
                for d_xy in (0.0, 0.005):
                    yield ge.thermal_environment(lam, c, d_xy, d_xpy)


class TestAsymptoticSimon:
    def test_zero_cross_zero_temperature(self):
        assert asymptotic_simon(ge.thermal_environment(0.1, 1.0)) == 0.0

    def test_entangled_asymptote(self):
        env = ge.thermal_environment(0.1, 1.0, 0.0, 0.049)
        d = 0.049**2 / 1.01
        assert asymptotic_simon(env) == pytest.approx(d * d - d, rel=1e-14)
        assert asymptotic_simon(env) == pytest.approx(-2.37158e-3, rel=1e-4)

    def test_separable_asymptote(self):
        env = ge.thermal_environment(0.1, 1.2, 0.0, 0.049)
        d = 0.049**2 / 1.01
        expected = (0.11 + d) ** 2 - d * 1.44
        assert asymptotic_simon(env) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(9.206e-3, rel=1e-3)

    def test_matches_lyapunov_route_on_grid(self):
        for env in _thermal_grid():
            direct = asymptotic_simon(env)
            assert asymptotic_simon_oracle(env) == pytest.approx(direct, abs=1e-10), env

    def test_matches_lyapunov_route_off_unit_mass(self):
        env = ge.thermal_environment(0.08, 1.3, 0.002, 0.03, m=0.5, omega=2.0)
        direct = asymptotic_simon(env)
        assert asymptotic_simon_oracle(env) == pytest.approx(direct, abs=1e-12)

    def test_non_thermal_bath_matches_the_lyapunov_oracle(self):
        # no Gibbs asymptote and no closed form, but a steady state for every lam > 0
        rng = np.random.default_rng(20261019)
        for _ in range(50):
            lam, omega, m = rng.uniform(0.02, 1.0), rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
            d = rng.uniform(-1.0, 1.0, size=6)
            env = EnvironmentSpec(
                m=m, omega=omega, lam=lam, thermal_c=1.0,
                d_xx=abs(d[0]), d_xpx=d[1], d_pxpx=abs(d[2]), d_xy=d[3], d_xpy=d[4], d_pxpy=d[5],
            )
            assert not env.is_thermal()
            oracle = lyapunov_oracle(drift_matrix(env), diffusion_matrix(env))
            scale = (1.0 + np.max(np.abs(oracle))) ** 4
            exact = float(simon_oracle_exact(oracle))
            assert abs(asymptotic_simon(env) - exact) <= scale * 1e-13


def _steady_degree(env):
    """L of the solved steady state, as the package computes it."""
    return ge.metrics(steady_covariance(env)).log_negativity


class TestAsymptoticThreshold:
    def test_benchmark_threshold(self):
        env = ge.thermal_environment(0.1, 1.0, 0.0, 0.049)
        threshold = ge.asymptotic_threshold(env)
        assert threshold == pytest.approx(1 + 0.098 / math.sqrt(1.01), abs=1e-15)

    def test_no_cross_coefficient(self):
        assert ge.asymptotic_threshold(ge.thermal_environment(0.1, 1.5)) == 1.0

    def test_rejects_non_thermal(self):
        env = EnvironmentSpec(
            m=1.0, omega=1.0, lam=0.1, thermal_c=1.0,
            d_xx=0.06, d_xpx=0.0, d_pxpx=0.05, d_xy=0.0, d_xpy=0.0, d_pxpy=0.0,
        )
        with pytest.raises(ValueError, match="threshold requires thermal"):
            ge.asymptotic_threshold(env)

    def test_position_cross_raises_the_threshold(self):
        # s = m omega |d_xy| / lam = 0.2 and d_xpy = 0: C*+ = 1 + 2s, whatever the sign
        for d_xy in (0.02, -0.02):
            threshold = ge.asymptotic_threshold(ge.thermal_environment(0.1, 1.0, d_xy, 0.0))
            assert threshold == pytest.approx(1.4, abs=1e-15)
            below, above = (ge.thermal_environment(0.1, c, d_xy, 0.0) for c in (1.399, 1.401))
            assert asymptotic_simon(below) < 0.0 < asymptotic_simon(above)

    @pytest.mark.parametrize("lam,d_xpy", [(0.05, 0.02), (0.1, 0.049), (0.2, 0.03)])
    def test_bisection_root_matches(self, lam, d_xpy):
        def s_of_c(c):
            return asymptotic_simon(ge.thermal_environment(lam, c, 0.0, d_xpy))

        lo, hi = 1.0 + 1e-15, 3.0
        assert s_of_c(lo) < 0 < s_of_c(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if s_of_c(mid) < 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        expected = 1.0 + 2.0 * d_xpy / math.hypot(lam, 1.0)
        assert root == pytest.approx(expected, abs=1e-10)

    def test_any_pairwise_physical_bath(self):
        # seeded baths with d_xy != 0 at the pairwise diffusion bounds and above:
        # S(inf) changes sign at C*+ and nowhere else, and L(inf) is the oracle's
        rng = random.Random(20121)
        roots = 0
        for _ in range(2000):
            lam, omega, m = (10.0 ** rng.uniform(-1.5, 0.5) for _ in range(3))
            d_xy = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 0.3) * lam / (m * omega)
            d_xpy = rng.uniform(-1.2, 1.2) * lam
            edge = max(1.0, 2.0 * abs(d_xpy) / lam, 2.0 * m * omega * abs(d_xy) / lam)
            edge *= 1.0 + 1e-12

            def env_at(c):
                return ge.thermal_environment(lam, c, d_xy, d_xpy, m, omega)

            def s_of_c(c):
                return asymptotic_simon(env_at(c))

            assert all(check.passed for check in validate_diffusion(env_at(edge)))
            threshold = ge.asymptotic_threshold(env_at(edge))
            if threshold > edge:
                roots += 1
                lo, hi = edge, 2.0 * threshold
                assert s_of_c(lo) < 0.0 < s_of_c(hi)
                while hi - lo > 1e-12 * hi:
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if s_of_c(mid) < 0.0 else (lo, mid)
                assert 0.5 * (lo + hi) == pytest.approx(threshold, rel=1e-10)
            top = 2.0 * max(threshold, edge)
            for k in range(6):
                env = env_at(edge + (top - edge) * k / 5)
                s_inf = s_of_c(env.thermal_c)
                if abs(env.thermal_c - threshold) > 1e-9 * threshold:
                    assert (s_inf < 0.0) == (env.thermal_c < threshold), env
                met = ge.metrics(steady_covariance(env))
                expected = asymptotic_log_negativity_oracle(env)
                if abs(met.nu_tilde_minus_sq) > 1e-12 * top * top:  # not zero within rounding
                    assert (met.log_negativity is None) == (expected is None), env
                if expected is not None and expected < 5.0:  # 4 nu^2 > 2^-10: well conditioned
                    assert met.log_negativity == pytest.approx(expected, abs=1e-10), env
        assert roots > 1500  # most baths are entangled at their pairwise edge


class TestAsymptoticLogNegativity:
    """L of the solved steady state against its closed form in tests/helpers."""

    def test_benchmark_value(self):
        env = ge.thermal_environment(0.1, 1.0, 0.0, 0.049)
        expected = -math.log2(1.0 - 0.098 / math.sqrt(1.01))
        assert asymptotic_log_negativity_oracle(env) == pytest.approx(expected, abs=1e-15)
        value = _steady_degree(env)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.14802297474805887, abs=1e-12)

    def test_zero_cross_reports_zero_degree(self):
        # raw closed form is -log2(C) <= 0; the reported degree clamps at 0
        env = ge.thermal_environment(0.1, 2.0)
        assert _steady_degree(env) == asymptotic_log_negativity_oracle(env) == 0.0

    def test_zero_at_threshold(self):
        for d_xy, d_xpy in ((0.0, 0.049), (0.02, 0.0), (0.01, 0.049)):
            threshold = ge.asymptotic_threshold(ge.thermal_environment(0.1, 1.0, d_xy, d_xpy))
            env = ge.thermal_environment(0.1, threshold, d_xy, d_xpy)
            assert abs(_steady_degree(env)) <= 1e-10

    def test_degenerate_argument_returns_none(self):
        d_star = 0.5 * math.sqrt(1.01)  # makes |C - 2 d/sqrt(...)| vanish at C = 1
        env = ge.thermal_environment(0.1, 1.0, 0.0, d_star)
        assert asymptotic_log_negativity_oracle(env) is None
        assert _steady_degree(env) is None

    @pytest.mark.parametrize("c", [1.0, 1.05, 1.2, 1.6])
    def test_matches_steady_state_route(self, c):
        for d_xy in (0.0, 0.01, -0.03):
            env = ge.thermal_environment(0.1, c, d_xy, 0.049)
            direct = log_negativity(steady_covariance(env))
            assert direct == _steady_degree(env)
            assert asymptotic_log_negativity_oracle(env) == pytest.approx(direct, abs=1e-10)

    def test_initial_state_independence(self):
        env = ge.thermal_environment(0.1, 1.0, 0.0, 0.049)
        expected = _steady_degree(env)
        values = [
            log_negativity(ge.evolve(ge.presets.initial_state(name), env, 300.0 / 0.1))
            for name in ("fig1", "fig2", "vacuum")
        ]
        for value in values:
            assert value == pytest.approx(expected, abs=1e-6)
        assert max(values) - min(values) <= 1e-6


class TestInvariantProperties:
    @given(data=st.lists(st.floats(-2.0, 2.0), min_size=10, max_size=10))
    @settings(max_examples=120, deadline=None)
    def test_f_equals_pt_eigenvalue(self, data):
        sigma = covariance_from_entries(dict(zip(ENTRY_NAMES, data)))
        _, nu_minus_sq, nu_plus_sq = pt_spectrum(sigma)
        assume(not math.isnan(nu_minus_sq))
        # the moduli of eig(i Omega sigma~) are sqrt|nu~^2|, also for the
        # negative nu~^2 of unphysical input
        oracle = pt_symplectic_eigs_oracle(sigma.entries) ** 2
        expected = np.sort(np.abs([nu_minus_sq, nu_plus_sq]))
        # eigenvalues of a nearly defective matrix carry rounding / gap
        scale = (1.0 + np.max(np.abs(sigma.entries))) ** 2
        gap = nu_plus_sq - nu_minus_sq
        tol = 1e-12 * scale + 1e-13 * scale**2 / max(gap, 1e-6)
        assert np.max(np.abs(oracle - expected)) <= tol

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_ppt_sign_agreement_on_physical_states(self, seed):
        rng = np.random.default_rng(seed)
        sigma = ge.CovarianceMatrix(random_physical_cm(rng))
        met = ge.metrics(sigma)
        assert met.log_negativity is not None
        if abs(met.simon_s) > 1e-12:
            assert (met.simon_s < 0) == (met.log_negativity > 0)

    @given(
        seed=st.integers(0, 2**32 - 1),
        thetas=st.tuples(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi)),
        squeezes=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    )
    # entries up to 141 and nu~_-^2 ~ 0.05: |dL| = 1.4e-10 from rounding alone
    @example(seed=8388607, thetas=(1.0, 1.0), squeezes=(1.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_local_symplectic_invariance(self, seed, thetas, squeezes):
        rng = np.random.default_rng(seed)
        sigma = random_physical_cm(rng)
        local = np.zeros((4, 4))
        local[:2, :2] = rotation(thetas[0]) @ squeezer(squeezes[0])
        local[2:, 2:] = rotation(thetas[1]) @ squeezer(squeezes[1])
        transformed = local @ sigma @ local.T
        transformed = 0.5 * (transformed + transformed.T)
        states = [ge.CovarianceMatrix(sigma), ge.CovarianceMatrix(transformed)]
        spectra = [pt_spectrum(state) for state in states]
        tol_s, tol_l = _local_map_tolerances(sigma, local, spectra)
        s_before, s_after = map(simon_function, states)
        assert s_after == pytest.approx(s_before, abs=tol_s)
        l_before, l_after = map(log_negativity, states)
        assert l_after == pytest.approx(l_before, abs=tol_l)


def _local_map_tolerances(sigma, local, spectra) -> tuple[float, float]:
    """Float-error bounds on |dS| and |dL| between sigma and local sigma local^T.

    First order in the unit roundoff u, with every entry of sigma and of
    |local| |sigma| |local|^T at most s - 1:
    - A polynomial in the entries evaluated in float is off by at most
      (rounded operations on its longest path) * u * (its sum of |monomials|):
      4 * 8s^2 u for Delta~, 9 * 160s^4 u for the discriminant
      Delta~^2 - 4 det sigma and 9 * 25s^4 u for S.  Through nu~_-^2 = (Delta~ - sqrt(disc))/2 with gap
      g = sqrt(disc), one evaluation is off by 28us^2 + 360us^4/g in nu~_-^2
      and 225us^4 in S.
    - Each entry of the transformed state is off by 15us: 8u from the two
      4-term matmuls, u from the symmetrisation and 6u because each float 2x2
      block of ``local`` has determinant 1 +- 6u.  That moves each polynomial
      by at most 15us times the derivative of its |monomial| sum:
      8s * 15us + 160s^3 * 15us / g in nu~_-^2 and 100s^3 * 15us in S.
    Two evaluations and the transform sum to |dS| <= 1950us^4 and
    |dnu~_-^2| <= 176us^2 + 3120us^4/g, and L = -log2(4 nu~_-^2)/2 moves by at
    most |dnu~_-^2| / (2 ln 2 (nu~_-^2 - |dnu~_-^2|)).
    """
    u = 2.0**-53
    s = 1.0 + max(np.abs(sigma).max(), (np.abs(local) @ np.abs(sigma) @ np.abs(local).T).max())
    gap = min(nu_plus_sq - nu_minus_sq for _, nu_minus_sq, nu_plus_sq in spectra)
    d_nu_sq = u * (176.0 * s**2 + 3120.0 * s**4 / gap)
    nu_sq = min(nu_minus_sq for _, nu_minus_sq, _ in spectra) - d_nu_sq
    return 1950.0 * u * s**4, d_nu_sq / (2.0 * math.log(2.0) * nu_sq)


@pytest.fixture(scope="module")
def kernel_states():
    """The presets plus 1,000 seeded physical states at each of max_squeeze 1 and 2."""
    states = [ge.presets.initial_state(name) for name in ge.presets.PRESET_NAMES]
    for seed, max_squeeze in ((20261018, 1.0), (20261019, 2.0)):
        rng = np.random.default_rng(seed)
        states += [
            ge.CovarianceMatrix(random_physical_cm(rng, max_squeeze)) for _ in range(1000)
        ]
    return states


class TestClosedFormKernels:
    """S, the PT spectrum and det sigma from det A, det B, det C and one trace."""

    def test_simon_matches_exact_oracle(self, kernel_states):
        for sigma in kernel_states:
            scale = (1.0 + np.max(np.abs(sigma.entries))) ** 4
            exact = float(simon_oracle_exact(sigma.entries))
            assert abs(simon_function(sigma) - exact) <= scale * 1e-15

    def test_pt_spectrum_matches_eigenvalue_oracle(self, kernel_states):
        for sigma in kernel_states:
            _, nu_minus_sq, nu_plus_sq = pt_spectrum(sigma)
            # the oracle gives |nu~^2|, also for the unphysical fig3
            expected = np.sort(np.abs([nu_minus_sq, nu_plus_sq]))
            oracle = pt_symplectic_eigs_oracle(sigma.entries) ** 2
            assert np.max(np.abs(oracle - expected)) <= 1e-12 * max(1.0, nu_plus_sq)

    def test_determinant_identity_matches_lu(self, kernel_states):
        for sigma in kernel_states:
            det_a, det_b, det_c, trace = _invariants(sigma._values)
            delta, det_lu = pt_invariants_oracle(sigma.entries)
            scale = (1.0 + np.max(np.abs(sigma.entries))) ** 4
            assert abs(det_a * det_b + det_c * det_c - trace - det_lu) <= scale * 1e-15
            seralian = ge.metrics(sigma).seralian_tilde
            assert seralian == pytest.approx(delta, abs=scale * 1e-15)

    def test_array_column_equals_per_state_floats_bit_for_bit(self, kernel_states):
        # one column of entry arrays against the per-state float path
        column = np.array([sigma._values for sigma in kernel_states]).T
        floats = np.array([_invariants(sigma._values) for sigma in kernel_states]).T
        assert np.array_equal(np.array(_invariants(column)), floats)

    def test_metrics_reads_the_simon_function_bit_for_bit(self, kernel_states):
        # the kernel states plus seeded ones with entries up to 1e160, so that
        # S or only the PT terms overflow: metrics gives simon_function's S
        # bit for bit, or raises what it raises, message and all
        rng = np.random.default_rng(20261020)
        scales = 10.0 ** rng.choice([0.0, 0.0, 40.0, 70.0, 80.0, 160.0], (2000, 10))
        rows = (rng.normal(size=(2000, 10)) * scales).tolist()
        states = kernel_states + [ge.CovarianceMatrix._of(tuple(row)) for row in rows]
        outcomes = set()
        for sigma in states:
            try:
                s = simon_function(sigma)
            except OverflowError as exc:
                with pytest.raises(OverflowError) as raised:
                    ge.metrics(sigma)
                assert str(raised.value) == str(exc)
                outcomes.add("S overflows")
                continue
            try:
                met = ge.metrics(sigma)
            except OverflowError as exc:
                assert str(exc).startswith("PT symplectic spectrum overflows (")
                outcomes.add("PT overflows")
            else:
                assert met.simon_s.hex() == s.hex()
                outcomes.add("finite")
        assert outcomes == {"S overflows", "PT overflows", "finite"}

    def test_column_negativity_raises_or_returns_what_each_cell_gives(self):
        # physical columns with a random share of their entries replaced by
        # random-sign values of 1e70-1e80: the column raises the first failure
        # of metrics cell by cell, message and all, or returns each cell's L
        rng = np.random.default_rng(20261019)
        outcomes = set()
        for _ in range(200):
            n = int(rng.integers(1, 5))
            states = [ge.CovarianceMatrix(random_physical_cm(rng, 1.0)) for _ in range(n)]
            huge = rng.choice([-1.0, 1.0], (10, n)) * 10.0 ** rng.uniform(70.0, 80.0, (10, n))
            share = np.where(rng.random(n) < 0.5, rng.random(n), 0.0)
            entries = np.where(
                rng.random((10, n)) < share, huge, np.array([s._values for s in states]).T
            )
            expected = []
            try:
                for values in entries.T.tolist():
                    cell = ge.CovarianceMatrix._of(tuple(values))
                    expected.append(ge.metrics(cell).log_negativity)
            except OverflowError as exc:
                with pytest.raises(OverflowError) as column:
                    _column_negativity(entries)
                assert str(column.value) == str(exc)
                outcomes.add(str(exc).partition(" (")[0])
            else:
                assert list(map(repr, _column_negativity(entries))) == list(map(repr, expected))
                outcomes.add("huge" if np.abs(entries).max() > 1e60 else "finite")
        assert outcomes == {
            "Simon function is not finite", "PT symplectic spectrum overflows", "huge", "finite"
        }

    def test_pure_preset_has_zero_negativity(self):
        # fig1 is a pure product state: nu~_-^2 = 1/4 exactly, so L = 0 exactly
        # (an LU determinant gives L ~ 1e-8 here)
        assert log_negativity(ge.presets.initial_state("fig1")) == 0.0

