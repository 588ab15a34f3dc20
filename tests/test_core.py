import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussent as ge
from gaussent.core import (
    ENTRY_NAMES,
    MARGIN_TOL,
    EnvironmentSpec,
    check_physical_state,
    covariance_from_entries,
    diffusion_matrix,
    drift_matrix,
    independent_entries,
    temperature_from_thermal_c,
    thermal_c_from_temperature,
    validate_diffusion,
)
from helpers import random_symplectic, two_mode_squeezer


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


class TestThermalEnvironment:
    def test_zero_temperature_no_cross(self):
        env = ge.thermal_environment(0.1, 1.0)
        assert env.d_xx == pytest.approx(0.05, abs=0)
        assert env.d_pxpx == pytest.approx(0.05, abs=0)
        assert env.d_xpx == 0.0
        assert env.d_pxpy == 0.0

    def test_benchmark_cross_coefficient(self):
        env = ge.thermal_environment(0.1, 1.0, d_xy=0.0, d_xpy=0.049)
        assert env.d_xpy == 0.049
        assert env.d_xy == 0.0
        assert env.d_xx == env.d_pxpx == 0.05

    def test_mass_frequency_scaling(self):
        env = ge.thermal_environment(0.1, 2.0, d_xy=0.01, d_xpy=0.0, m=1.0, omega=2.0)
        assert env.d_xx == pytest.approx(0.05, rel=1e-15)
        assert env.d_pxpx == pytest.approx(0.2, rel=1e-15)
        assert env.d_pxpy == pytest.approx(0.04, rel=1e-15)
        assert env.d_xpx == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=0.0, thermal_c=1.0),
            dict(lam=-0.1, thermal_c=1.0),
            dict(lam=0.1, thermal_c=0.99),
            dict(lam=0.1, thermal_c=1.0, m=0.0),
            dict(lam=0.1, thermal_c=1.0, omega=-1.0),
            dict(lam=0.1, thermal_c=1.0, d_xpy=math.nan),
            dict(lam=0.1, thermal_c=1.0, d_xy=math.inf),
            dict(lam=math.inf, thermal_c=1.0),
            dict(lam=0.1, thermal_c=math.inf),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ge.thermal_environment(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=10.0, thermal_c=1e308),
            dict(lam=0.1, thermal_c=1.0, m=1e-200, omega=1e-200),
            dict(lam=0.1, thermal_c=1.0, m=1e200, omega=1e200),
            dict(lam=5e-324, thermal_c=1.0),
        ],
    )
    def test_overflowing_coefficients_raise(self, kwargs):
        # valid parameters whose m*omega or coefficients overflow or underflow
        with pytest.raises(OverflowError, match="thermal diffusion coefficients"):
            ge.thermal_environment(**kwargs)

    def test_mirrored_coefficients(self):
        env = ge.thermal_environment(0.2, 1.3, d_xy=0.01, d_xpy=0.02)
        assert env.d_yy == env.d_xx
        assert env.d_ypy == env.d_xpx
        assert env.d_pypy == env.d_pxpx
        assert env.d_ypx == env.d_xpy

    def test_is_thermal(self):
        assert ge.thermal_environment(0.1, 1.2, 0.01, 0.02).is_thermal()
        lopsided = EnvironmentSpec(
            m=1.0, omega=1.0, lam=0.1, thermal_c=1.0,
            d_xx=0.06, d_xpx=0.0, d_pxpx=0.05, d_xy=0.0, d_xpy=0.0, d_pxpy=0.0,
        )
        assert not lopsided.is_thermal()


def test_environment_requires_positive_dissipation():
    with pytest.raises(ValueError):
        EnvironmentSpec(
            m=1.0, omega=1.0, lam=0.0, thermal_c=1.0,
            d_xx=0.0, d_xpx=0.0, d_pxpx=0.0, d_xy=0.0, d_xpy=0.0, d_pxpy=0.0,
        )


class TestDriftDiffusion:
    def test_drift_structure(self):
        env = ge.thermal_environment(0.1, 1.0, m=2.0, omega=0.5)
        y = drift_matrix(env)
        block = np.array([[-0.1, 0.5], [-0.5, -0.1]])
        np.testing.assert_allclose(y[:2, :2], block, rtol=0, atol=0)
        np.testing.assert_allclose(y[2:, 2:], block, rtol=0, atol=0)
        assert np.all(y[:2, 2:] == 0) and np.all(y[2:, :2] == 0)

    @given(
        lam=st.floats(0.01, 1.0),
        omega=st.floats(0.5, 2.0),
        m=st.floats(0.5, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_drift_eigenvalues(self, lam, omega, m):
        env = ge.thermal_environment(lam, 1.0, m=m, omega=omega)
        eigs = np.linalg.eigvals(drift_matrix(env))
        # every eigenvalue is a root of (s + lam)^2 + omega^2
        residuals = np.abs((eigs + lam) ** 2 + omega**2)
        assert np.max(residuals) <= 1e-10
        np.testing.assert_allclose(eigs.real, -lam, rtol=0, atol=1e-12)

    def test_diffusion_matrix_symmetric(self):
        env = ge.thermal_environment(0.1, 1.5, d_xy=0.01, d_xpy=0.049)
        d = diffusion_matrix(env)
        np.testing.assert_array_equal(d, d.T)
        assert d[0, 0] == env.d_xx
        assert d[0, 3] == env.d_xpy
        assert d[1, 2] == env.d_xpy  # sigma_yp_x mirrors sigma_xp_y


class TestValidateDiffusion:
    def test_zero_temperature_boundary_margin(self):
        report = validate_diffusion(ge.thermal_environment(0.1, 1.0))
        check = _check(report, "xx_pxpx")
        assert abs(check.margin) <= 1e-15
        assert check.passed
        assert report.passed
        assert report.semigroup_psd  # boundary case still passes with slack
        assert abs(report.semigroup_min_eigenvalue) <= 1e-15

    def test_excessive_cross_coefficient_fails(self):
        report = validate_diffusion(ge.thermal_environment(0.1, 1.0, d_xpy=0.06))
        check = _check(report, "xx_pypy")
        assert not check.passed
        assert check.margin == pytest.approx(0.0025 - 0.0036, rel=1e-12)
        assert not report.passed
        assert check in report.failures()

    def test_benchmark_cross_coefficient_passes(self):
        report = validate_diffusion(ge.thermal_environment(0.1, 1.0, d_xpy=0.049))
        check = _check(report, "xx_pypy")
        assert check.passed
        assert check.margin == pytest.approx(0.0025 - 0.049**2, rel=1e-12)
        assert report.passed
        # all pairwise bounds hold, yet the full 4x4 coefficient matrix is
        # indefinite for this benchmark; the report keeps the two facts apart
        assert not report.semigroup_psd
        assert report.semigroup_min_eigenvalue < -1e-6

    def test_overflowing_bounds_raise(self):
        # d_xx * d_pxpx and lam^2/4 both overflow, so the margin is inf - inf
        env = ge.thermal_environment(1e300, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError, match="diffusion bounds are not finite"):
                validate_diffusion(env)

    def test_pure_thermal_full_matrix_psd(self):
        report = validate_diffusion(ge.thermal_environment(0.1, 2.0))
        assert report.passed
        assert report.semigroup_psd

    @given(lam=st.floats(1e-3, 10.0), thermal_c=st.floats(1.0, 100.0))
    @settings(max_examples=80, deadline=None)
    def test_thermal_environments_always_pass(self, lam, thermal_c):
        report = validate_diffusion(ge.thermal_environment(lam, thermal_c))
        assert report.passed
        assert report.semigroup_psd


class TestCheckPhysicalState:
    def test_vacuum(self):
        # sigma + i Omega/2 = [[1/2, i/2], [-i/2, 1/2]] per mode: eigenvalues 0 and 1
        report = check_physical_state(ge.presets.initial_state("vacuum"))
        assert report.physical
        assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-15)

    def test_entangled_squeezed_preset_is_unphysical(self):
        sigma = ge.presets.initial_state("fig3")
        assert np.linalg.det(sigma.entries) == pytest.approx(-25.0 / 576.0, rel=1e-12)
        assert np.linalg.eigvalsh(sigma.entries)[0] < -0.1  # not even PSD
        report = check_physical_state(sigma)
        assert report.min_eigenvalue < -0.1
        assert not report.physical

    def test_squeezed_preset_is_physical_boundary(self):
        # pure squeezed: nu_- sits exactly at 1/2, so the smallest eigenvalue
        # is zero up to rounding
        report = check_physical_state(ge.presets.initial_state("fig1"))
        assert report.physical
        assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-15)

    def test_entangled_mixed_preset_violates_uncertainty(self):
        sigma = ge.presets.initial_state("fig4")
        assert np.linalg.eigvalsh(sigma.entries)[0] >= 0.0  # PSD, yet nu_- = 0
        report = check_physical_state(sigma)
        assert report.min_eigenvalue < -0.1
        assert not report.physical

    def test_two_mode_squeezed_vacua_are_physical(self):
        # pure states: the smallest eigenvalue is zero, and the squeezing
        # grows the entries to cosh(6)/2 ~ 100 at r = 3
        for r in np.linspace(0.05, 3.0, 60):
            s = two_mode_squeezer(float(r))
            report = check_physical_state(ge.CovarianceMatrix(0.5 * s @ s.T))
            assert report.physical, (r, report)

    def test_states_just_below_the_bound_are_unphysical(self):
        rng = np.random.default_rng(20240611)
        for _ in range(1000):
            s = random_symplectic(rng, max_squeeze=1.0)
            nu_minus, nu_plus = 0.5 - 1e-7, rng.uniform(0.5, 2.5)
            sigma = s @ np.diag([nu_minus, nu_minus, nu_plus, nu_plus]) @ s.T
            report = check_physical_state(ge.CovarianceMatrix(0.5 * (sigma + sigma.T)))
            assert not report.physical, report

    def test_squeezing_does_not_widen_the_slack(self):
        # the states above and pure states, each mode then squeezed along its
        # axes by up to e^12, so that entries reach ~1e11: the rescaling
        # undoes that squeezing, and the verdicts stay as before
        rng = np.random.default_rng(20240612)
        for _ in range(1000):
            a, b = rng.uniform(-12.0, 12.0, size=2)
            local = np.diag([math.exp(a), math.exp(-a), math.exp(b), math.exp(-b)])
            s = local @ random_symplectic(rng, max_squeeze=1.0)
            for nu_minus, physical in ((0.5 - 1e-7, False), (0.5, True)):
                nu_plus = rng.uniform(0.5, 2.5)
                sigma = s @ np.diag([nu_minus, nu_minus, nu_plus, nu_plus]) @ s.T
                report = check_physical_state(ge.CovarianceMatrix(0.5 * (sigma + sigma.T)))
                assert report.physical is physical, (a, b, report)

    @pytest.mark.parametrize(
        "diagonal",
        [
            # a pure squeezed x mode next to a y mode with
            # sigma_yy * sigma_pypy = 1e-4 < 1/4
            [5e11, 2e-12, 0.01, 0.01],
            [1e-300, 1e300, 1e-300, 1e-308],
            # sigma must be positive definite
            [1e12, -1e-12, 1.0, 1.0],
            [1e12, 0.0, 1.0, 1.0],
        ],
    )
    def test_badly_scaled_unphysical_states(self, diagonal):
        report = check_physical_state(ge.CovarianceMatrix(np.diag(diagonal)))
        assert not report.physical, report

    def test_rescaling_overflow_raises(self):
        # s = 1e150 on the x mode makes sigma_xy * s overflow; such a sigma is
        # never PSD
        sigma = covariance_from_entries(
            dict(sigma_xx=1e-300, sigma_pxpx=1e300, sigma_xy=1e200, sigma_yy=1.0, sigma_pypy=1.0)
        )
        with pytest.raises(OverflowError, match="rescaled"):
            check_physical_state(sigma)

    @given(
        thermal_c=st.floats(1.0, 50.0),
        m=st.floats(0.5, 2.0),
        omega=st.floats(0.5, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_gibbs_family_is_physical(self, thermal_c, m, omega):
        mw = m * omega
        sigma = ge.CovarianceMatrix(
            0.5 * thermal_c * np.diag([1.0 / mw, mw, 1.0 / mw, mw])
        )
        assert check_physical_state(sigma).physical


class TestCovarianceMatrix:
    def test_rejects_asymmetry(self):
        bad = 0.5 * np.eye(4)
        bad = bad.copy()
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            ge.CovarianceMatrix(bad)
        for value in (math.nan, math.inf, -math.inf):
            for i, j in ((0, 0), (0, 1)):
                bad = 0.5 * np.eye(4)
                bad[i, j] = bad[j, i] = value
                with pytest.raises(ValueError, match="finite"):
                    ge.CovarianceMatrix(bad)
        with pytest.raises(ValueError, match="finite"):
            ge.CovarianceMatrix(np.full((4, 4), math.nan))

    def test_symmetrizes_small_drift(self):
        noisy = 0.5 * np.eye(4)
        noisy = noisy.copy()
        noisy[0, 1] = 1e-13
        sigma = ge.CovarianceMatrix(noisy)
        np.testing.assert_array_equal(sigma.entries, sigma.entries.T)
        assert sigma.entries[0, 1] == pytest.approx(5e-14, rel=1e-9)

    def test_symmetrizing_large_entries_does_not_overflow(self):
        big = np.full((4, 4), 1.7e308)
        np.testing.assert_array_equal(ge.CovarianceMatrix(big).entries, big)

    def test_entries_read_only(self):
        sigma = ge.presets.initial_state("vacuum")
        with pytest.raises(ValueError):
            sigma.entries[0, 0] = 2.0

    @given(data=st.lists(st.floats(-2.0, 2.0), min_size=10, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_block_roundtrip(self, data):
        values = dict(zip(ENTRY_NAMES, data))
        sigma = covariance_from_entries(values)
        rebuilt = covariance_from_entries(independent_entries(sigma))
        np.testing.assert_array_equal(rebuilt.entries, sigma.entries)
        np.testing.assert_array_equal(sigma.entries, sigma.entries.T)
        assert independent_entries(sigma) == pytest.approx(values)

    def test_unknown_entry_name(self):
        with pytest.raises(ValueError, match="unknown covariance entry"):
            covariance_from_entries({"sigma_zz": 1.0})


class TestTemperatureConversion:
    def test_zero_temperature(self):
        assert thermal_c_from_temperature(0.0) == 1.0
        assert temperature_from_thermal_c(1.0) == 0.0

    @given(temperature=st.floats(0.5, 50.0), omega=st.floats(0.5, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, temperature, omega):
        # mild omega/2T ratios only: coth saturates to 1 exponentially fast,
        # so the low-temperature direction is not invertible in floats
        c = thermal_c_from_temperature(temperature, omega)
        assert c > 1.0
        back = temperature_from_thermal_c(c, omega)
        assert back == pytest.approx(temperature, rel=1e-9)

    def test_overflow(self):
        # omega/(2T) = 5e-309: coth is 2e308, past the largest float
        with pytest.raises(OverflowError, match="thermal parameter overflows"):
            thermal_c_from_temperature(1e308)

    def test_domain_errors(self):
        for temperature in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                thermal_c_from_temperature(temperature)
        with pytest.raises(ValueError):
            temperature_from_thermal_c(0.5)
